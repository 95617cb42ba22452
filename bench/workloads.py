"""The benchmark's workloads: inputs made from a seed, one operation, and the
correctness check of each operation.

The program sees only the generated fields. Solve workloads drive
``layerflow.cli.main`` in-process on LFF1 files; the metric workload calls
``nse.solution_metric`` on two states solved during set-up. Both are looked
up on their modules at call time, so a tracer that patches those modules
sees the calls.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layerflow import cli, nse
from layerflow.corpus import divergence_free_velocity
from layerflow.forms import FormField, exterior_derivative
from layerflow.geometry import GridSpec
from layerflow.holder import HolderParams
from layerflow.io import read_field, write_field
from layerflow.nse import SolverConfig
from layerflow.potentials import PotentialConfig

MU = 0.1
FFT_WORKERS = 1
OUTPUT_FILES = ("u.lff", "p.lff", "g.lff", "residuals.csv", "energy.csv", "iterations.csv")
DIVERGENCE_TOL = 1e-10
CLOSEDNESS_TOL = 1e-8
METRIC_PARAMS = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
# The 3-D initial velocity of acceptance criterion 12 (corpus seed and shape).
CUBE_INITIAL = {"seed": 9105, "kmax": 2, "sigma2": 0.8}


class CheckFailed(Exception):
    """An operation's output failed its workload's correctness check."""


def corpus_seeds(seed: int, count: int) -> list[int]:
    """Independent corpus seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def azimuthal_vortex(grid: GridSpec) -> FormField:
    """The README's example initial velocity (y, -x) exp(-|x|^2/2)."""
    x, y = grid.mesh()
    env = np.exp(-grid.radius2() / 2.0)
    return FormField.from_components(grid, 1, (y * env, -x * env))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class SolveSpec:
    n: int
    N: int
    M: int
    mode: str
    tol: float
    problems: int  # generated problems, each solved once per round
    L: float = 6.0
    T: float = 0.5

    @property
    def grid(self) -> GridSpec:
        return GridSpec(n=self.n, N=self.N, L=self.L, M=self.M, T=self.T)


@dataclass
class SolveWorkload:
    """``layerflow solve F.lff U0.lff``: a fixed initial velocity and one seeded
    forcing per problem."""

    spec: SolveSpec
    workdir: Path
    seed: int
    reference: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec, grid = self.spec, self.spec.grid
        self.problems = spec.problems
        self.config = self.workdir / "run.cfg"
        self.config.write_text(
            f"grid.n = {spec.n}\ngrid.N = {spec.N}\ngrid.L = {spec.L}\n"
            f"grid.M = {spec.M}\ngrid.T = {spec.T}\npotential.mu = {MU}\n"
            f"solver.mode = {spec.mode}\nsolver.tol = {spec.tol!r}\n")
        initial = azimuthal_vortex(grid) if spec.n == 2 \
            else divergence_free_velocity(grid, **CUBE_INITIAL)
        write_field(self.workdir / "U0.lff", initial)
        for j, s in enumerate(corpus_seeds(self.seed, spec.problems)):
            pdir = self.workdir / f"p{j}"
            pdir.mkdir()
            write_field(pdir / "F.lff", divergence_free_velocity(
                grid, s, time_dependent=True, amplitude=0.5))

    def run(self, j: int):
        pdir = self.workdir / f"p{j}"
        return cli.main(["--config", str(self.config), "--out", str(pdir / "out"),
                         "--threads", str(FFT_WORKERS), "solve", str(pdir / "F.lff"),
                         str(self.workdir / "U0.lff")])

    def check(self, j: int, exit_code) -> dict[str, float]:
        """Raise CheckFailed unless the solve met its tolerances; return the
        facts its outputs record."""
        out = self.workdir / f"p{j}" / "out"
        if exit_code != 0:
            raise CheckFailed(f"exit code {exit_code}")
        with open(out / "iterations.csv", newline="") as fh:
            its = list(csv.DictReader(fh))
        if not float(its[-1]["residual"]) <= self.spec.tol:
            raise CheckFailed(f"final residual {its[-1]['residual']} above {self.spec.tol}")
        floor = 5.0 * self.spec.grid.dt ** 2
        with open(out / "residuals.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                sup = float(row["sup"])
                if row["check"] == "divergence" and not sup <= DIVERGENCE_TOL:
                    raise CheckFailed(f"divergence {sup:.3e} at slice {row['slice']}")
                if row["check"] == "momentum" and not sup <= floor:
                    raise CheckFailed(f"momentum {sup:.3e} above 5 dt^2 = {floor:.3e}")
        if self.spec.n == 3:
            g = read_field(out / "g.lff", self.spec.grid)
            closed = exterior_derivative(g).sup_norm() / g.sup_norm()
            if not closed <= CLOSEDNESS_TOL:
                raise CheckFailed(f"|dg|/|g| = {closed:.3e}")
        paths = [out / name for name in OUTPUT_FILES]
        digest = _digest(paths)
        if self.reference.setdefault(j, digest) != digest:
            raise CheckFailed(f"problem {j}: outputs differ from its first solve")
        attempted = len(its) - 1
        accepted = sum(1 for prev, cur in zip(its, its[1:]) if cur["damping"] == prev["damping"])
        return {"nse.iterations": float(its[-1]["iteration"]),
                "nse.step_accept_ratio": accepted / attempted if attempted else 1.0,
                "io.write_bytes": float(sum(p.stat().st_size for p in paths))}


class MetricWorkload:
    """``solution_metric`` between the solved vortex and a solve of the vortex
    perturbed by 1e-2 times a seeded velocity; problem 0 passes (a, b),
    problem 1 passes (b, a)."""

    problems = 2

    def __init__(self, workdir: Path, seed: int) -> None:
        grid = GridSpec(n=2, N=64, L=6.0, M=16, T=0.5)
        cfg = SolverConfig(mode="picard", tol=1e-8, potential=PotentialConfig(mu=MU))
        u0 = azimuthal_vortex(grid)
        pert = divergence_free_velocity(grid, corpus_seeds(seed, 1)[0])
        self.states = (nse.solve_nse(None, u0, cfg), nse.solve_nse(None, u0 + 1e-2 * pert, cfg))
        self.reference: str | None = None

    def run(self, j: int):
        a, b = self.states if j == 0 else self.states[::-1]
        return nse.solution_metric(a, b, METRIC_PARAMS, MU)

    def check(self, j: int, value) -> dict[str, float]:
        """The metric is symmetric and repeatable: every value, in either
        argument order, must be finite and bit-identical to the first."""
        if not math.isfinite(value):
            raise CheckFailed(f"metric {value!r}")
        if self.reference is None:
            self.reference = value.hex()
        if value.hex() != self.reference:
            raise CheckFailed(f"metric {value.hex()} differs from {self.reference}")
        return {}


DESK = dict(n=2, N=64, M=16, tol=1e-8)

WORKLOADS = {
    "desk_picard": lambda workdir, seed: SolveWorkload(
        SolveSpec(mode="picard", problems=6, **DESK), workdir, seed),
    "desk_newton": lambda workdir, seed: SolveWorkload(
        SolveSpec(mode="newton", problems=4, **DESK), workdir, seed),
    "cube_picard": lambda workdir, seed: SolveWorkload(
        SolveSpec(n=3, N=16, M=8, mode="picard", tol=1e-9, problems=4), workdir, seed),
    "holder_metric": MetricWorkload,
}
