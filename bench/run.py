"""layerflow benchmark: time to a checked answer for solves and norm estimates.

Run from the repository root:

    python3 bench/run.py --workload desk_picard --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports the per-layer metrics, from operations run under the span
tracer and interleaved with untraced ones. ``--workload all`` runs every
workload in both modes, one child process at a time. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

Each workload generates a few problems from the seed. One round solves every
problem once; per-operation figures average the problems, so a seed whose
problems need one iteration more or less moves the figure by a fraction of an
iteration rather than a whole one.

A shared host runs the same code at speeds that differ by a third or more, in
spells from seconds to minutes, and a slow spell can outlast a run. So the host
probe, a fixed numpy/scipy kernel independent of layerflow, runs between every
two timed operations, and each operation's time is divided by the mean of the
probe runs on either side of it. A figure is the median of these ratios times
the probe's reference time PROBE_REF_S: seconds per operation at the reference
host speed. A change to layerflow moves the operation and not the probe; a
slow spell of the host moves both. The raw figures are printed above the
result.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy loads: the transforms get one worker
# through the solve's `--threads` flag, and BLAS/OpenMP (used by GMRES) get
# one thread here. Both stay at or below nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_picard", "desk_newton", "cube_picard", "holder_metric")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170
# A typical time of one HostProbe run on the 2-core Xeon of the baseline (it ranged
# 0.022-0.047 s); timings are reported at the host speed at which it takes this long.
PROBE_REF_S = 0.03


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(fft_workers: int) -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "layerflow").glob("*.py")):
        src_hash.update(path.read_bytes())
    return {"commit": _git_commit(), "source_sha256": src_hash.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "fft_workers": fft_workers, "blas_threads": BLAS_THREADS}


def _clear_program_caches() -> None:
    """Empty the lru_caches of layerflow (grids, symbols, pair sets) so that a
    repeated set-up pays for them again."""
    for name, mod in list(sys.modules.items()):
        if name == "layerflow" or name.startswith("layerflow."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "__wrapped__"):
                    obj.cache_clear()


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy, scipy and layerflow
    (everything the workloads module pulls in), timed inside that interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH_DIR)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


def _timed(fn, *args):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - w0, time.process_time() - c0


class HostProbe:
    """A fixed kernel that gauges the host's speed, in three parts, each like
    the work of some workloads: transforms over the spatial axes of a
    2x16x64x64 field (the 2-D solves) and of a 3x9x16x16x16 field (the 3-D
    solve), each with elementwise arithmetic; and the gathered pair
    differences of a 2x17x4096 field (the Hoelder estimates). It uses no
    layerflow code."""

    def __init__(self) -> None:
        import numpy as np
        import scipy.fft

        self.np, self.fft = np, scipy.fft
        rng = np.random.default_rng(0)
        self.plane = rng.standard_normal((2, 16, 64, 64))
        self.cube = rng.standard_normal((3, 9, 16, 16, 16))
        self.slices = rng.standard_normal((2, 17, 4096))
        self.ix, self.iy = rng.integers(0, 4096, (2, 28_000))
        self.factor = rng.random(28_000) + 0.5
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._kernel()  # untimed: first-call costs

    def _transforms(self, field, axes, repeats: int) -> None:
        for _ in range(repeats):
            f = self.fft.fftn(field, axes=axes, workers=1)
            self.fft.ifftn(f * f.conj() + 1.0, axes=axes, workers=1).real.max()

    def _kernel(self) -> None:
        np = self.np
        self._transforms(self.plane, (2, 3), 2)
        self._transforms(self.cube, (2, 3, 4), 3)
        diff = np.abs(self.slices[..., self.ix] - self.slices[..., self.iy])
        np.max(diff * (self.factor ** 1.75 / self.factor ** 0.25))

    def __call__(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self._kernel()
        self.walls.append(time.perf_counter() - w0)
        self.cpus.append(time.process_time() - c0)

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of what ran between the last two probe runs,
        at the reference host speed."""
        (w0, w1), (c0, c1) = self.walls[-2:], self.cpus[-2:]
        return wall * 2 * PROBE_REF_S / (w0 + w1), cpu * 2 * PROBE_REF_S / (c0 + c1)


class Runner:
    """Runs operations on the current workload, checks each one and counts
    the failures."""

    def __init__(self, check_failed) -> None:
        self.w = None
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0

    def _traced_run(self, tracer, j: int):
        tracer.install()
        try:
            root = tracer.begin("op")
            try:
                return self.w.run(j)
            finally:
                tracer.end(root)
        finally:
            tracer.uninstall()

    def op(self, j: int, tracer=None):
        """One checked operation on problem j; returns (wall, cpu, facts, ok)."""
        self.attempted += 1
        try:
            if tracer is None:
                result, wall, cpu = _timed(self.w.run, j)
            else:
                result, wall, cpu = _timed(self._traced_run, tracer, j)
            facts = self.w.check(j, result)
        except Exception as err:  # a failed operation is counted and the run goes on
            if not isinstance(err, self.check_failed):
                traceback.print_exc()
            print(f"FAILED problem {j}: {type(err).__name__}: {err}", flush=True)
            self.failed += 1
            return None, None, {}, False
        return wall, cpu, facts, True


def run_untraced(args, workloads_mod, workdir):
    """End-to-end metrics: repeated set-up, timed rounds and one memory-traced
    op; every timed step runs between two host probe runs."""
    make = workloads_mod.WORKLOADS[args.workload]
    runner = Runner(workloads_mod.CheckFailed)
    probe = HostProbe()
    setups = []  # (import s, whole set-up s) of each repeat
    for rep in range(SETUP_REPEATS):
        probe()
        probe()
        t0 = time.perf_counter()
        import_s = _import_s()
        _clear_program_caches()
        repdir = workdir / f"setup{rep}"
        repdir.mkdir()
        runner.w = make(repdir, args.seed)
        runner.op(0)  # warm-up operation, timed as set-up
        setups.append((import_s, time.perf_counter() - t0))
    probe()
    probe()
    # A set-up is too long for the probe runs on either side of it to gauge the
    # host, and too few repeats are made for a median of ratios: scale the
    # median set-up by the median probe run of the set-up phase.
    setup_raw = statistics.median(total for _, total in setups)
    setup_probe = statistics.median(probe.walls)

    walls = [[] for _ in range(runner.w.problems)]  # walls[j]: every timed solve of problem j
    scaled = [[] for _ in range(runner.w.problems)]  # scaled[j]: (wall, cpu) at reference speed
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for j in range(runner.w.problems):
            wall, cpu, _, ok = runner.op(j)
            probe()
            if ok:
                walls[j].append(wall)
                scaled[j].append(probe.scale(wall, cpu))
        rounds += 1

    tracemalloc.start()
    _, _, _, ok = runner.op(0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print("setup repeats (import s, whole s): "
          f"{[tuple(round(x, 4) for x in rep) for rep in setups]}; median {setup_raw:.6f} s, "
          f"median probe run {setup_probe:.6f} s")
    op_walls = [w for per_problem in walls for w in per_problem]
    print(f"rounds: {rounds} of {runner.w.problems} operations, {len(op_walls)} samples")
    for j in range(runner.w.problems):
        print(f"problem {j} wall s: {[round(w, 4) for w in walls[j]]}")
    print(f"host probe: {len(probe.walls)} runs, wall s median {statistics.median(probe.walls):.6f}, "
          f"range {min(probe.walls):.6f}-{max(probe.walls):.6f} (reference {PROBE_REF_S})")
    if len(op_walls) >= 100:
        print(f"p90 of single operations: {statistics.quantiles(op_walls, n=10)[-1]:.6f} s")
    else:
        print("no tail percentile: fewer than 10 samples lie beyond p90")
    metrics = {}
    if all(walls):
        print(f"raw median op_s {statistics.fmean(statistics.median(w) for w in walls):.6f} s")
        for k, name in enumerate(("op_s", "op_cpu_s")):
            value = statistics.fmean(statistics.median(x[k] for x in per_problem)
                                     for per_problem in scaled)
            metrics[name] = (value, "s")
    if ok:
        metrics["peak_mem_mb"] = (peak / 1e6, "MB")
    metrics["setup_s"] = (setup_raw * PROBE_REF_S / setup_probe, "s")
    return runner, metrics


def run_traced(args, workloads_mod, workdir):
    """Per-layer metrics from traced operations, interleaved with untraced ones
    for the overhead; counters must repeat exactly for each problem."""
    from tracing import EXACT_METRICS, LAYER_METRICS, Tracer, layer_metrics

    runner = Runner(workloads_mod.CheckFailed)
    runner.w = workload = workloads_mod.WORKLOADS[args.workload](workdir, args.seed)
    runner.op(0)  # warm-up
    tracer = Tracer()
    rounds_plain, rounds_traced, rounds_layers = [], [], []
    first_counts: dict[int, dict] = {}
    spans_out = []
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        plain, traced, layers = [], [], []
        for j in range(workload.problems):
            order = (False, True) if rounds % 2 == 0 else (True, False)
            for with_trace in order:
                wall, _, facts, ok = runner.op(j, tracer if with_trace else None)
                if not with_trace:
                    if ok:
                        plain.append(wall)
                    continue
                spans, counters = tracer.take()
                if not ok:
                    continue
                traced.append(wall)
                values = layer_metrics(spans, counters)
                values.update(facts)
                layers.append(values)
                spans_out.append({"round": rounds, "problem": j, "spans": spans})
                exact = {m: values.get(m, 0.0) for m in EXACT_METRICS}
                ref = first_counts.setdefault(j, exact)
                drift = [f"{m} {ref[m]!r} then {v!r}" for m, v in exact.items() if v != ref[m]]
                if drift:  # same inputs, different work: the operation counts as failed
                    print(f"COUNTER DRIFT problem {j}: {', '.join(drift)}", flush=True)
                    runner.failed += 1
        rounds += 1
        if not (plain and traced):
            continue
        rounds_plain.append(statistics.fmean(plain))
        rounds_traced.append(statistics.fmean(traced))
        rounds_layers.append({m: statistics.fmean([v.get(m, 0.0) for v in layers])
                              for m in LAYER_METRICS})

    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                      "ops": spans_out}))
    metrics = {}
    if rounds_layers:
        overhead = min(rounds_traced) - min(rounds_plain)  # raw least round means
        for m, (unit, _, kind, _) in LAYER_METRICS.items():
            value = overhead if kind == "overhead" else \
                statistics.median(r[m] for r in rounds_layers)
            metrics[m] = (value, unit)
        print(f"tracing overhead: traced {min(rounds_traced):.6f} s - "
              f"untraced {min(rounds_plain):.6f} s = {overhead:.6f} s")
    print(f"rounds: {rounds}; spans written to {spans_path.relative_to(ROOT)}")
    return runner, metrics


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import layerflow
    import workloads as workloads_mod
    if Path(layerflow.__file__).resolve().parent != SRC / "layerflow":
        print(f"error: imported layerflow from {layerflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(_environment(workloads_mod.FFT_WORKERS)))
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            runner, metrics = run_traced(args, workloads_mod, workdir)
        else:
            runner, metrics = run_untraced(args, workloads_mod, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    fail_ratio = runner.failed / max(runner.attempted, 1)
    print(f"workload {args.workload} seed {args.seed}: attempted {runner.attempted}, "
          f"failed {runner.failed}, fail_ratio {fail_ratio:.6g}")
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            print(f"missing metric {name}", file=sys.stderr)
            continue
        value, unit = metrics[name]
        if unit != entry["unit"]:
            raise RuntimeError(f"{name}: unit {unit} but BENCHMARK.json says {entry['unit']}")
        print(f"  {name:<32} {value:>16.9g} {unit}")
        out[name] = {"value": value, "unit": unit}
    correct = runner.failed == 0 and len(out) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": out}))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run in a child process; returns the lines it printed
    above its result, the result and its environment record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return lines[:-1], json.loads(lines[-1]), env


def run_all(args) -> int:
    """Every workload in both modes, each in its own child process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {name} trace {trace}", flush=True)
            lines, result, _ = run_child(name, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "layerflow" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'layerflow'} or BENCHMARK.json missing; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
