import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from conftest import run_python
from layerflow import holder, spectral
from layerflow.corpus import divergence_free_velocity, random_field
from layerflow.forms import FormField, exterior_derivative, time_derivative
from layerflow.geometry import GridSpec, weight_grid
from layerflow.holder import (DEFAULT_RANDOM_PAIRS, HolderParams, _Maxima, _ball_pairs,
                              _multi_orders, _neighbor_pairs, _random_pairs, anisotropic_norm,
                              f_norm, holder_seminorm, l2_embedding_constant, pair_set,
                              spatial_norm, sphere_area, weighted_sup)
from layerflow.nse import FlowState, SolverConfig, momentum_operator, solution_metric, solve_nse
from layerflow.potentials import PotentialConfig


# -- reference estimators: every sample weighted at full size, then one max ----


def ref_flat(u):
    lead = (u.data.shape[0], u.grid.M + 1 if u.time_dependent else 1)
    return u.data.reshape(lead + (-1,))


def ref_weighted_sup(u, delta):
    w = weight_grid(u.grid, delta).ravel()
    return float(np.max(np.abs(ref_flat(u)) * w))


def ref_pair_set(grid, n_random=DEFAULT_RANDOM_PAIRS):
    """The admissible sample with every repeated pair kept."""
    nn = _neighbor_pairs(grid)
    rnd = _random_pairs(grid, n_random)
    ix = np.concatenate([nn[0], rnd[0]])
    iy = np.concatenate([nn[1], rnd[1]])
    coords = np.stack(np.unravel_index(np.arange(grid.N ** grid.n), grid.spatial_shape), axis=1)
    x = grid.axis()[coords[ix]]
    y = grid.axis()[coords[iy]]
    dist = np.sqrt(np.sum((x - y) ** 2, axis=1))
    rmax = np.maximum(np.sqrt(np.sum(x * x, axis=1)), np.sqrt(np.sum(y * y, axis=1)))
    keep = (dist <= rmax / 2.0 + 1e-15) & (dist > 0)
    return ix[keep], iy[keep], dist[keep], np.sqrt(1.0 + rmax[keep] ** 2)


def ref_holder_seminorm(u, lam, delta, n_random=DEFAULT_RANDOM_PAIRS):
    ix, iy, dist, wpair = ref_pair_set(u.grid, n_random)
    flat = ref_flat(u)
    diff = np.abs(flat[..., ix] - flat[..., iy])
    factor = wpair ** (delta + lam) / dist ** lam
    return float(np.max(diff * factor))


def ref_ball_pairs(grid):
    """Every pair of nodes in the closed unit ball, enumerated one by one."""
    inside = np.flatnonzero(grid.radius2().ravel() <= 1.0)
    pairs = np.array(list(itertools.combinations(inside, 2)), dtype=np.intp).reshape(-1, 2)
    ix, iy = pairs[:, 0], pairs[:, 1]
    coords = np.stack(np.unravel_index(np.arange(grid.N ** grid.n), grid.spatial_shape), axis=1)
    axis = grid.axis()
    dist = np.sqrt(np.sum((axis[coords[ix]] - axis[coords[iy]]) ** 2, axis=1))
    return ix, iy, dist, inside


def ref_ball_holder_norm(u, lam):
    ix, iy, dist, inside = ref_ball_pairs(u.grid)
    flat = ref_flat(u)
    sup = float(np.max(np.abs(flat[..., inside])))
    if lam > 0:
        diff = np.abs(flat[..., ix] - flat[..., iy])
        sup += float(np.max(diff / dist ** lam))
    return sup


def ref_time_seminorm(u, lam, delta):
    if not u.time_dependent or lam <= 0:
        return 0.0
    w = weight_grid(u.grid, delta).ravel()
    flat = ref_flat(u)
    best = 0.0
    gap = 1
    while gap <= u.grid.M:
        diff = np.abs(flat[:, gap:] - flat[:, :-gap]) * w
        best = max(best, float(np.max(diff)) / (gap * u.grid.dt) ** (lam / 2.0))
        gap *= 2
    return best


def ref_derivative(u, gamma, j=0):
    """d_t^j d^gamma u: the spatial symbol applied to one forward transform."""
    if any(gamma):
        ks = spectral.wavenumbers(u.grid)
        hat = spectral.fft_spatial(u.data, u.grid)
        for axis, order in enumerate(gamma):
            if order:
                hat = hat * (1j * ks[axis]) ** order
        u = FormField(u.grid, u.degree, spectral.ifft_spatial(hat, u.grid))
    for _ in range(j):
        u = time_derivative(u)
    return u


def ref_terms(breakdown, label, v, p, d_eff, n_random, time):
    breakdown[f"sup[{label}]"] = ref_weighted_sup(v, d_eff)
    if p.lam > 0:
        breakdown[f"seminorm[{label}]"] = ref_holder_seminorm(v, p.lam, d_eff, n_random)
        breakdown[f"origin[{label}]"] = ref_ball_holder_norm(v, p.lam)
        if time:
            breakdown[f"time[{label}]"] = ref_time_seminorm(v, p.lam, d_eff)


def ref_anisotropic(u, p, n_random=DEFAULT_RANDOM_PAIRS):
    n = u.grid.n
    breakdown = {}
    for bt in range(p.k + 1):
        for beta in _multi_orders(n, bt):
            for j in range(p.s + 1):
                for at in range(2 * (p.s - j) + 1):
                    for alpha in _multi_orders(n, at):
                        gamma = tuple(a + b for a, b in zip(alpha, beta))
                        label = f"a={''.join(map(str, alpha))},j={j},b={''.join(map(str, beta))}"
                        ref_terms(breakdown, label, ref_derivative(u, gamma, j), p,
                                  p.delta + at + bt, n_random, time=True)
    return breakdown


def ref_spatial(u, p, n_random=DEFAULT_RANDOM_PAIRS):
    breakdown = {}
    for total in range(p.s + 1):
        for alpha in _multi_orders(u.grid.n, total):
            ref_terms(breakdown, "a=" + "".join(map(str, alpha)), ref_derivative(u, alpha), p,
                      p.delta + total, n_random, time=False)
    return breakdown


def ref_f_norm(u, p, n_random=DEFAULT_RANDOM_PAIRS):
    first = ref_anisotropic(u, replace(p, k=p.k + 1, lam_prime=None), n_random)
    second = ref_anisotropic(u, replace(p, lam=p.lam_prime, lam_prime=None), n_random)
    return float(sum(first.values())) + float(sum(second.values()))


def test_holder_params_invariants():
    HolderParams(s=1, lam=0.5, delta=2.0, k=1, lam_prime=0.75)
    with pytest.raises(ValueError):
        HolderParams(lam=1.5)
    with pytest.raises(ValueError):
        HolderParams(lam=0.5, lam_prime=0.5)
    with pytest.raises(ValueError):
        HolderParams(delta=-1.0)
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            HolderParams(delta=delta)


@pytest.mark.parametrize("name, value", [("s", 1.5), ("s", True), ("k", 1.5), ("k", True)])
def test_holder_params_refuse_non_integer_counts(name, value):
    # s = 1.5 failed late inside range(), and k = True passed as 1
    with pytest.raises(ValueError, match=f"^{name}: must be an integer, got {value!r}$"):
        HolderParams(**{name: value})


def test_holder_params_messages_name_the_field():
    assert HolderParams().lam == 0.25  # the config's default, stated here alone
    for kw, message in (({"lam": 2.0}, "lam: must lie in [0, 1], got 2.0"),
                        ({"s": -1}, "s: must be >= 0, got -1"),
                        ({"k": -2}, "k: must be >= 0, got -2"),
                        ({"delta": -1.0}, "delta: must be nonnegative and finite, got -1.0"),
                        ({"lam_prime": 0.25}, "lam_prime: must lie in (0.25, 1], got 0.25")):
        with pytest.raises(ValueError) as info:
            HolderParams(**kw)
        assert str(info.value) == message


def test_weighted_sup(grid2):
    z = FormField.zero(grid2, 0)
    assert weighted_sup(z, 2.0) == 0.0
    u = FormField(grid2, 0, weight_grid(grid2, -2.0)[None])
    assert weighted_sup(u, 2.0) == pytest.approx(1.0)
    # sup (1+r^2) e^{-r^2} attained at r = 0 since the profile decreases
    g = FormField(grid2, 0, np.exp(-grid2.radius2())[None])
    assert weighted_sup(g, 2.0) == pytest.approx(1.0)


def test_holder_seminorm_basics(grid2):
    const = FormField(grid2, 0, np.full((1,) + grid2.spatial_shape, 3.0))
    assert holder_seminorm(const, 0.5, 1.0) == 0.0
    X = grid2.mesh()[0]
    u = FormField(grid2, 0, X[None])
    s = holder_seminorm(u, 1.0, 0.0)
    # nearest-neighbor pair at the largest admissible |x|: quotient 1, weight w(x,y)
    assert s >= math.sqrt(1.0 + (grid2.L - grid2.h) ** 2)
    assert holder_seminorm(2.0 * u, 1.0, 0.0) == pytest.approx(2.0 * s, rel=1e-15)
    with pytest.raises(ValueError):
        holder_seminorm(u, 0.0, 1.0)


def test_holder_seminorm_exhaustive_oracle(grid2_coarse):
    """Dense pair enumeration on a 32^2 grid bounds the sampled seminorm."""
    grid = grid2_coarse
    u = FormField(grid, 0, np.exp(-grid.radius2())[None])
    lam, delta = 0.5, 1.0
    sampled = holder_seminorm(u, lam, delta)
    pts = np.stack(grid.mesh(), axis=-1).reshape(-1, 2)
    vals = u.data[0].ravel()
    r = np.sqrt(np.sum(pts ** 2, axis=1))
    best = 0.0
    for i in range(len(pts)):
        d = pts - pts[i]
        dist = np.sqrt(np.sum(d * d, axis=1))
        ok = (dist > 0) & (dist <= np.maximum(r[i], r) / 2.0)
        if ok.any():
            wp = np.sqrt(1.0 + np.maximum(r[i], r[ok]) ** 2)
            best = max(best, np.max(wp ** (delta + lam) * np.abs(vals[ok] - vals[i])
                                    / dist[ok] ** lam))
    assert sampled <= best * (1.0 + 1e-12)
    assert sampled >= 0.9 * best  # the deterministic sample finds the bulk of the sup


def test_embedding_inequality_shared_pairs(grid2):
    for seed in range(3):
        u = random_field(grid2, seed % 2, 3 + seed)
        for lam, lam_p, dl, dl_p in ((1.0, 0.5, 2.0, 1.0), (0.75, 0.25, 1.5, 1.5),
                                     (0.5, 0.1, 1.0, 0.0)):
            hi = holder_seminorm(u, lam, dl)
            lo = holder_seminorm(u, lam_p, dl_p)
            assert lo <= 2.0 ** (lam_p - lam) * hi * (1.0 + 1e-12)


def test_product_inequality_sup_part(grid2):
    u = random_field(grid2, 0, 4)
    v = random_field(grid2, 0, 5)
    prod = FormField(grid2, 0, u.data * v.data)
    assert weighted_sup(prod, 3.0) <= weighted_sup(u, 2.0) * weighted_sup(v, 1.0) * (1 + 1e-12)


def test_spatial_norm_report(grid2_coarse):
    z = FormField.zero(grid2_coarse, 0)
    rep = spatial_norm(z, HolderParams(s=1, lam=0.5, delta=1.0))
    assert rep.total == 0.0
    assert all(v == 0.0 for v in rep.breakdown.values())
    u = FormField(grid2_coarse, 0, np.exp(-grid2_coarse.radius2())[None])
    p_hi = HolderParams(s=0, lam=0.5, delta=2.0)
    p_lo = HolderParams(s=0, lam=0.5, delta=1.0)
    hi = spatial_norm(u, p_hi)
    lo = spatial_norm(u, p_lo)
    assert lo.total <= hi.total  # monotone in delta since w >= 1
    assert hi.total == pytest.approx(sum(hi.breakdown.values()))
    assert hi.pairs_sampled > 0


def test_lambda_zero_norm_builds_no_pair_set(grid2, monkeypatch):
    # with lambda = 0 no seminorm term runs, so the report counts no pairs and
    # the pair set (95,246 pairs on this grid, 0.2 s) is never sampled
    def refuse(*args, **kwargs):
        raise AssertionError("pair_set built for a norm with lambda = 0")

    monkeypatch.setattr(holder, "pair_set", refuse)
    p = HolderParams(s=1, lam=0.0, delta=1.5)
    spat = spatial_norm(random_field(grid2, 0, 7), p)
    aniso = anisotropic_norm(random_field(grid2, 1, 8, time_dependent=True), p)
    for rep in (spat, aniso):
        assert rep.pairs_sampled == 0
        assert rep.breakdown and all(k.startswith("sup[") for k in rep.breakdown)


def test_spatial_norm_rejects_time_dependent(grid2):
    u = random_field(grid2, 0, 6, time_dependent=True)
    with pytest.raises(ValueError):
        spatial_norm(u, HolderParams())


def test_anisotropic_norm(grid2):
    z = FormField.zero(grid2, 1, time_dependent=True)
    p = HolderParams(s=0, lam=0.5, delta=1.5)
    assert anisotropic_norm(z, p).total == 0.0
    static = random_field(grid2, 1, 7)
    rep = anisotropic_norm(static, p)
    assert all(v == 0.0 for k, v in rep.breakdown.items() if k.startswith("time"))
    spat = spatial_norm(static, p)
    # static field: assembly reduces to the spatial one (same alpha set at s=0)
    assert rep.total == pytest.approx(spat.total)
    td = random_field(grid2, 1, 8, time_dependent=True)
    rep_td = anisotropic_norm(td, p)
    assert any(v > 0.0 for k, v in rep_td.breakdown.items() if k.startswith("time"))
    assert anisotropic_norm(3.0 * td, p).total == pytest.approx(3.0 * rep_td.total, rel=1e-12)


def test_f_norm(grid2):
    p = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
    z = FormField.zero(grid2, 1, time_dependent=True)
    assert f_norm(z, p) == 0.0
    u = random_field(grid2, 1, 9, time_dependent=True)
    val = f_norm(u, p)
    part1 = anisotropic_norm(u, replace(p, k=1, lam_prime=None)).total
    part2 = anisotropic_norm(u, replace(p, lam=0.5, lam_prime=None)).total
    assert val == part1 + part2
    assert val >= part1 and val >= part2
    assert f_norm(2.0 * u, p) == pytest.approx(2.0 * val, rel=1e-12)
    with pytest.raises(ValueError):
        f_norm(u, HolderParams(s=0, lam=0.25, delta=1.5))


def test_norm_triangle_inequality(grid2):
    p = HolderParams(s=0, lam=0.5, delta=1.5)
    a = random_field(grid2, 1, 10, time_dependent=True)
    b = random_field(grid2, 1, 11, time_dependent=True)
    na = anisotropic_norm(a, p).total
    nb = anisotropic_norm(b, p).total
    nab = anisotropic_norm(a + b, p).total
    assert nab <= na + nb + 1e-12


def test_l2_embedding_constant_closed_forms():
    # closed forms: 2 pi * int r (1+r^2)^-2 dr = pi; 4 pi * int r^2 (1+r^2)^-2 dr = pi^2
    assert l2_embedding_constant(2, 2.0) == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    assert l2_embedding_constant(3, 2.0) == pytest.approx(math.pi, abs=1e-10)
    # the Gamma-function form against adaptive quadrature in spherical coordinates
    for n, delta in ((2, 1.1), (2, 3.5), (3, 1.6), (3, 4.0)):
        val, _ = scipy.integrate.quad(
            lambda r: sphere_area(n) * r ** (n - 1) * (1.0 + r * r) ** (-delta),
            0.0, np.inf, limit=200)
        assert l2_embedding_constant(n, delta) == pytest.approx(math.sqrt(val), rel=1e-10)
    assert l2_embedding_constant(2, 1.1) < l2_embedding_constant(2, 1.01)
    with pytest.raises(ValueError):
        l2_embedding_constant(2, 1.0)
    # nan was refused with a false "integral diverges" reason, and inf gave nan
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^delta: must be finite, got {delta}$"):
            l2_embedding_constant(2, delta)


def test_l2_embedding_inequality_on_corpus(grid2):
    c = l2_embedding_constant(2, 2.0)
    for seed in range(4):
        u = random_field(grid2, 0, 20 + seed, time_dependent=(seed % 2 == 0))
        bound = c * weighted_sup(u, 2.0)
        assert float(np.max(u.l2_slices())) <= bound * (1.0 + 1e-12)


# -- the estimators against the reference formulas, bit for bit ----------------


@pytest.mark.parametrize("n_random", [20_000, DEFAULT_RANDOM_PAIRS])
def test_pair_set_keeps_each_pair_once(grid2, n_random):
    ix, iy = pair_set(grid2, n_random)[:2]
    points = grid2.N ** grid2.n
    keys = np.minimum(ix, iy) * points + np.maximum(ix, iy)
    ref_ix, ref_iy = ref_pair_set(grid2, n_random)[:2]
    ref_keys = np.minimum(ref_ix, ref_iy) * points + np.maximum(ref_ix, ref_iy)
    assert np.unique(keys).size == keys.size
    assert np.array_equal(np.sort(keys), np.unique(ref_keys))
    assert keys.size < ref_keys.size


def test_estimators_bit_identical_to_full_size(grid2):
    fields = [random_field(grid2, q, 30 + q, time_dependent=True) for q in (1, 2)]
    fields.append(random_field(grid2, 1, 33))
    for u in fields:
        m = _Maxima(u)
        for lam, delta in ((0.25, 1.5), (0.5, 0.0), (1.0, 2.5)):
            assert weighted_sup(u, delta) == ref_weighted_sup(u, delta)
            assert holder_seminorm(u, lam, delta) == ref_holder_seminorm(u, lam, delta)
            assert m.ball_holder_norm(lam) == ref_ball_holder_norm(u, lam)
            assert m.time_seminorm(lam, delta) == ref_time_seminorm(u, lam, delta)
        assert m.ball_holder_norm(0.0) == ref_ball_holder_norm(u, 0.0)


def test_ball_pairs_are_every_interior_pair(grid2):
    # the near-origin term is exhaustive: all 89 * 88 / 2 pairs of the 89
    # nodes in the unit ball, each unordered pair once
    ix, iy, dist, inside = _ball_pairs(grid2)
    ref_ix, ref_iy, ref_dist, ref_inside = ref_ball_pairs(grid2)
    assert inside.size == 89 and ix.size == 3916
    assert np.array_equal(inside, ref_inside)
    assert np.array_equal(ix, ref_ix) and np.array_equal(iy, ref_iy)
    assert np.array_equal(dist, ref_dist)


def test_unit_ball_is_closed():
    # h = 1: the nodes (+-1, 0) and (0, +-1) lie on the unit sphere and belong
    # to the closed ball with the origin
    grid = GridSpec(n=2, N=8, L=4.0, M=4, T=0.5)
    assert _ball_pairs(grid)[3].size == 5
    u = FormField(grid, 0, grid.mesh()[0][None])  # u = x_1
    # sup |u| = 1 at (1, 0); the best quotient is |1 - (-1)| / 2^(1/2)
    assert _Maxima(u).ball_holder_norm(0.5) == ref_ball_holder_norm(u, 0.5)
    assert _Maxima(u).ball_holder_norm(0.5) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("s,k", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_anisotropic_breakdown_bit_identical(grid2_coarse, s, k):
    p = HolderParams(s=s, lam=0.5, delta=1.5, k=k)
    for q in (1, 2):
        u = random_field(grid2_coarse, q, 40 + q, time_dependent=True)
        rep = anisotropic_norm(u, p, n_random=20_000)
        ref = ref_anisotropic(u, p, n_random=20_000)
        assert list(rep.breakdown) == list(ref)
        assert rep.breakdown == ref
        assert rep.total == float(sum(ref.values()))


def test_spatial_norm_bit_identical(grid2_coarse):
    u = random_field(grid2_coarse, 1, 45)
    p = HolderParams(s=1, lam=0.5, delta=1.0)
    rep = spatial_norm(u, p, n_random=20_000)
    assert rep.breakdown == ref_spatial(u, p, n_random=20_000)
    assert list(rep.breakdown) == list(ref_spatial(u, p, n_random=20_000))


def test_f_norm_bit_identical(grid2_coarse, monkeypatch):
    # at (s, k) = (1, 1) the two norms share most derivative fields, so the
    # order in which the fields are formed differs most from the label order
    reports = []

    def spy(*args):
        out = norms(*args)
        reports.extend(out)
        return out

    norms = holder._norms
    monkeypatch.setattr(holder, "_norms", spy)
    p = HolderParams(s=1, lam=0.25, delta=1.5, k=1, lam_prime=0.5)
    u = random_field(grid2_coarse, 1, 46, time_dependent=True)
    assert f_norm(u, p, n_random=5000).hex() == ref_f_norm(u, p, n_random=5000).hex()
    first = ref_anisotropic(u, replace(p, k=2, lam_prime=None), n_random=5000)
    second = ref_anisotropic(u, replace(p, lam=0.5, lam_prime=None), n_random=5000)
    assert [list(rep.breakdown) for rep in reports] == [list(first), list(second)]


def ref_solution_metric(a, b, params, mu, n_random):
    p_lo = replace(params, delta=max(params.delta - 1.0, 0.0))
    p_hi = replace(params, delta=params.delta + 1.0)
    term_state = ref_f_norm(a.u - b.u, params, n_random) + ref_f_norm(a.p - b.p, p_lo, n_random)
    term_vort = ref_f_norm(a.g - b.g, p_hi, n_random)
    mom_a, ic_a = momentum_operator(a, mu)
    mom_b, ic_b = momentum_operator(b, mu)
    spatial = ref_spatial(ic_a - ic_b, replace(params, lam_prime=None), n_random)
    term_map = ref_f_norm(mom_a - mom_b, params, n_random) + float(sum(spatial.values()))
    return term_state + term_vort + term_map


def test_solution_metric_bit_identical(grid2_coarse):
    def state(seed):
        u = divergence_free_velocity(grid2_coarse, seed, time_dependent=True)
        p = random_field(grid2_coarse, 0, seed + 1, time_dependent=True)
        return FlowState(u=u, p=p, g=exterior_derivative(u))

    a, b = state(50), state(52)
    params = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
    for x, y in ((a, b), (b, a)):
        assert solution_metric(x, y, params, 0.1, n_random=5000) \
            == ref_solution_metric(x, y, params, 0.1, 5000)


def test_n_random_zero_samples_neighbour_pairs_only(grid2_coarse):
    # no random pairs: every estimator runs on the neighbour pairs alone,
    # a smaller sample and so a lower bound; a count that is negative or not
    # an integer is refused by name (1.5 once ended in a TypeError from a
    # slice, True was read as 1, from the cache, and -5 lacked the prefix)
    u = divergence_free_velocity(grid2_coarse, 50, time_dependent=True)
    p = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
    state = FlowState(u=u, p=random_field(grid2_coarse, 0, 51, time_dependent=True),
                      g=exterior_derivative(u))
    zero = FlowState(u=0.0 * state.u, p=0.0 * state.p, g=0.0 * state.g)
    ix, iy = pair_set(grid2_coarse, 0)[:2]
    nn = _neighbor_pairs(grid2_coarse)
    assert 0 < ix.size <= nn[0].size
    assert set(zip(ix, iy)) <= set(zip(*nn)) | set(zip(nn[1], nn[0]))
    s0 = holder_seminorm(u, 0.5, 1.5, n_random=0)
    assert 0.0 < s0 <= holder_seminorm(u, 0.5, 1.5)
    assert s0 == ref_holder_seminorm(u, 0.5, 1.5, n_random=0)
    assert f_norm(u, p, n_random=0) == ref_f_norm(u, p, n_random=0)
    assert solution_metric(state, zero, p, 0.1, n_random=0) \
        == ref_solution_metric(state, zero, p, 0.1, 0)
    static, p_one = u.slice_at(0), replace(p, lam_prime=None)
    assert spatial_norm(static, p_one, n_random=0).breakdown \
        == ref_spatial(static, p_one, n_random=0)
    assert anisotropic_norm(u, p_one, n_random=0).breakdown \
        == ref_anisotropic(u, p_one, n_random=0)
    for call in (lambda n: pair_set(grid2_coarse, n),
                 lambda n: holder_seminorm(u, 0.5, 1.5, n_random=n),
                 lambda n: spatial_norm(static, p_one, n_random=n),
                 lambda n: anisotropic_norm(u, p_one, n_random=n),
                 lambda n: f_norm(u, p, n_random=n),
                 lambda n: solution_metric(state, zero, p, 0.1, n_random=n)):
        for n, message in ((-5, "must be >= 0, got -5"), (1.5, "must be an integer, got 1.5"),
                           (True, "must be an integer, got True")):
            with pytest.raises(ValueError) as info:
                call(n)
            assert str(info.value) == "n_random: " + message


@pytest.mark.parametrize("call, message", [
    (lambda u: weighted_sup(u, math.nan), "delta: must be nonnegative and finite, got nan"),
    (lambda u: weighted_sup(u, -1.0), "delta: must be nonnegative and finite, got -1.0"),
    (lambda u: holder_seminorm(u, 0.5, math.nan),
     "delta: must be nonnegative and finite, got nan"),
    (lambda u: holder_seminorm(u, 0.5, math.inf),
     "delta: must be nonnegative and finite, got inf"),
    (lambda u: holder_seminorm(u, 2.0, 1.0), "lam: must lie in (0, 1], got 2.0"),
    (lambda u: holder_seminorm(u, math.nan, 1.0), "lam: must lie in (0, 1], got nan"),
    (lambda u: holder_seminorm(u, 0.0, 1.0), "lam: must lie in (0, 1], got 0.0")],
    ids=["sup-nan", "sup-negative", "seminorm-delta-nan", "seminorm-delta-inf", "lam-2",
         "lam-nan", "lam-0"])
def test_estimators_refuse_the_indices_holder_params_refuses(grid2_coarse, call, message):
    # weighted_sup and holder_seminorm returned nan for delta = nan, and the
    # seminorm 10.5 at lambda = 2; HolderParams refuses each with this message
    u = divergence_free_velocity(grid2_coarse, 50)
    with pytest.raises(ValueError) as info:
        call(u)
    assert str(info.value) == message


def test_n_random_is_keyword_only():
    # a seed passed by position, where the estimators once took one, must
    # fail rather than be read as the sample size
    for fn in (holder_seminorm, spatial_norm, anisotropic_norm, f_norm, solution_metric):
        assert inspect.signature(fn).parameters["n_random"].kind is inspect.Parameter.KEYWORD_ONLY


def test_f_norm_transform_count(grid2, transform_count):
    # transform calls: one forward of the field, one inverse per first
    # derivative; never loosen
    u = random_field(grid2, 1, 9, time_dependent=True)
    f_norm(u, HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5), n_random=5000)
    assert transform_count.calls <= 3


# tracemalloc peak of one norm of a time-dependent 1-form at (s, k) = (1, 1)
# after a warm-up call, in scalar fields over space-time, read in a fresh
# interpreter
NORM_PEAK = """
import sys, tracemalloc
from layerflow import holder
from layerflow.corpus import random_field
from layerflow.geometry import GridSpec

N, M = 64, 16
grid = GridSpec(n=2, N=N, L=6.0, M=M, T=0.5)
u = random_field(grid, 1, 9, time_dependent=True)
p = holder.HolderParams(s=1, lam=0.25, delta=1.5, k=1, lam_prime=0.5)
norm = getattr(holder, sys.argv[1])
norm(u, p, n_random=5000)
tracemalloc.start()
norm(u, p, n_random=5000)
print(tracemalloc.get_traced_memory()[1] / ((M + 1) * N ** 2 * 8))
"""


@pytest.mark.memory
@pytest.mark.parametrize("norm, fields", [("f_norm", 6.498), ("anisotropic_norm", 6.446)])
def test_norm_peak_memory(norm, fields):
    # 48.898 and 31.929 fields while a norm kept every derivative field it had
    # formed until it returned; each bound is the reading of a norm that
    # streams them, one at a time, rounded up at the third decimal. Never
    # loosen
    out = run_python("-c", NORM_PEAK, norm)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= fields


# -- the pruned pair maxima: non-finite fields, small pair sets, a count gate --


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def test_time_seminorm_propagates_nan():
    # the gap values were combined with max(best, x), which keeps best when x
    # is NaN: a zero field with one NaN read time 0.0 and sup nan
    grid = GridSpec(n=2, N=16, L=6.0, M=4, T=0.5)
    data = np.zeros((1, grid.M + 1) + grid.spatial_shape)
    data[0, 2, 5, 7] = np.nan
    u = FormField(grid, 0, data)
    breakdown = anisotropic_norm(u, HolderParams(s=0, lam=0.5, delta=1.5)).breakdown
    assert math.isnan(breakdown["sup[a=00,j=0,b=00]"])
    assert math.isnan(breakdown["time[a=00,j=0,b=00]"])
    # a NaN in the last slice meets only the gaps that reach it, after a
    # finite first gap value
    v = random_field(grid, 1, 60, time_dependent=True)
    v.data[1, grid.M, 3, 3] = np.nan
    assert math.isnan(_Maxima(v).time_seminorm(0.5, 1.5))


def nonfinite_fields(grid, n_random):
    """Fields with one non-finite entry placed against the pair sets."""
    ix, iy = pair_set(grid, n_random)[:2]
    bx, by = _ball_pairs(grid)[:2]
    origin = np.ravel_multi_index((grid.N // 2,) * grid.n, grid.spatial_shape)
    assert grid.radius2().ravel()[origin] == 0.0  # the origin is a node
    assert origin not in ix and origin not in iy  # in no admissible pair
    base = random_field(grid, 1, 61, time_dependent=True)

    def put(value, *nodes):
        data = base.data.copy().reshape(base.data.shape[:2] + (-1,))
        data[1, 3, list(nodes)] = value
        return FormField(grid, 1, data.reshape(base.data.shape))

    return {"nan_in_pair": put(np.nan, ix[ix.size // 2]),
            "nan_at_origin": put(np.nan, origin),
            "inf_at_node": put(np.inf, iy[ix.size // 3]),
            "inf_at_both_ends": put(np.inf, ix[ix.size // 4], iy[ix.size // 4]),
            "inf_at_both_ends_in_ball": put(np.inf, bx[bx.size // 2], by[bx.size // 2]),
            "zero": FormField.zero(grid, 1, time_dependent=True)}


@pytest.mark.parametrize("warm", [1, holder._WARM_PAIRS])
def test_pruned_maxima_match_full_size_on_non_finite_fields(grid2_coarse, monkeypatch, warm):
    # a prune that dropped pairs of equal or NaN bound would lose the NaN of
    # inf - inf, or of a NaN node, that the full maximum keeps; one warm pair
    # leaves most of the infinite bounds to the prune
    monkeypatch.setattr(holder, "_WARM_PAIRS", warm)
    with np.errstate(invalid="ignore"):
        for name, u in nonfinite_fields(grid2_coarse, 20_000).items():
            for lam, delta in ((0.25, 1.5), (1.0, 0.0)):
                got = holder_seminorm(u, lam, delta, n_random=20_000)
                assert same_float(got, ref_holder_seminorm(u, lam, delta, 20_000)), name
                assert same_float(_Maxima(u).ball_holder_norm(lam),
                                  ref_ball_holder_norm(u, lam)), name


def test_pruned_maxima_over_pair_sets_smaller_than_the_warm_start():
    grid = GridSpec(n=2, N=8, L=4.0, M=4, T=0.5)
    assert pair_set(grid, 0)[0].size < holder._WARM_PAIRS
    assert _ball_pairs(grid)[0].size < holder._WARM_PAIRS
    with np.errstate(invalid="ignore"):
        fields = [random_field(grid, 1, 62, time_dependent=True)]
        fields += nonfinite_fields(grid, 0).values()
        for u in fields:
            for lam, delta in ((0.25, 1.5), (1.0, 0.0)):
                assert same_float(holder_seminorm(u, lam, delta, n_random=0),
                                  ref_holder_seminorm(u, lam, delta, 0))
                assert same_float(_Maxima(u).ball_holder_norm(lam),
                                  ref_ball_holder_norm(u, lam))


def test_solution_metric_gathers_few_pairs(grid2, monkeypatch):
    # pairs whose differences one solution_metric gathers (13 fields, each
    # with 27,055 sample and 3,916 unit-ball pairs): 402,623 when every pair
    # was gathered, 23,393 once only the warm start and the pairs whose point
    # bound reaches its maximum are. Never loosen
    cfg = SolverConfig(mode="picard", tol=1e-8, potential=PotentialConfig(mu=0.1))
    x, y = grid2.mesh()
    env = np.exp(-grid2.radius2() / 2.0)
    u0 = FormField.from_components(grid2, 1, (y * env, -x * env))
    a = solve_nse(None, u0, cfg)
    b = solve_nse(None, u0 + 1e-2 * divergence_free_velocity(grid2, 63), cfg)
    gathered = []
    real = _Maxima._pair_max

    def counted(self, ix, iy):
        gathered.append(ix.size)
        return real(self, ix, iy)

    monkeypatch.setattr(_Maxima, "_pair_max", counted)
    params = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
    assert math.isfinite(solution_metric(a, b, params, 0.1, n_random=20_000))
    assert sum(gathered) <= 25_000


# -- the pruned time seminorm: non-finite fields, small grids, a count gate ----


def ref_time_or_nan(u, lam, delta):
    """ref_time_seminorm, which combines its gap values with max(best, x) and
    so drops a NaN one, with that NaN kept, as the estimator keeps it."""
    flat = ref_flat(u)
    gaps = [2 ** i for i in range(u.grid.M.bit_length())]
    if any(np.isnan(flat[:, g:] - flat[:, :-g]).any() for g in gaps):
        return math.nan
    return ref_time_seminorm(u, lam, delta)


def nonfinite_series(grid):
    """Fields with non-finite entries placed in the time series of nodes."""
    base = random_field(grid, 1, 64, time_dependent=True)
    node, other = grid.N ** grid.n // 3, grid.N ** grid.n // 5

    def put(*entries):
        data = base.data.copy().reshape(base.data.shape[:2] + (-1,))
        for value, slices, at in entries:
            data[1, slices, at] = value
        return FormField(grid, 1, data.reshape(base.data.shape))

    return {"nan_at_one_slice": put((np.nan, 2, node)),
            "inf_at_one_slice": put((np.inf, 2, node)),
            "inf_at_every_slice": put((np.inf, slice(None), node)),
            "minus_and_plus_inf": put((-np.inf, 1, node), (np.inf, 3, node)),
            # two nodes of infinite bound: inf - inf at the second only
            "inf_beside_inf_twice": put((np.inf, 1, other), (np.inf, [1, 3], node)),
            "zero": FormField.zero(grid, 1, time_dependent=True)}


@pytest.mark.parametrize("warm", [1, holder._WARM_POINTS, 128])
@pytest.mark.parametrize("N", [8, 32])
def test_pruned_time_seminorm_matches_full_size_on_non_finite_fields(monkeypatch, warm, N):
    # a prune that dropped points of equal or NaN bound would lose the NaN of
    # inf - inf, or of a NaN entry, that the full maximum keeps; the N = 8
    # grid's 64 points are fewer than a warm start of 128
    monkeypatch.setattr(holder, "_WARM_POINTS", warm)
    grid = GridSpec(n=2, N=N, L=6.0, M=8, T=0.5)
    with np.errstate(invalid="ignore"):
        for name, u in nonfinite_series(grid).items():
            for lam, delta in ((0.25, 1.5), (1.0, 0.0)):
                assert same_float(_Maxima(u).time_seminorm(lam, delta),
                                  ref_time_or_nan(u, lam, delta)), name


def test_solution_metric_gathers_few_point_series(grid2, monkeypatch):
    # time series that the time seminorm of one solution_metric gathers: none
    # while every gap formed a full-size difference over all 4,096 points of
    # each of 12 fields; 420 once only the warm start and the points whose
    # range bound reaches its maximum are. Never loosen
    cfg = SolverConfig(mode="picard", tol=1e-8, potential=PotentialConfig(mu=0.1))
    x, y = grid2.mesh()
    env = np.exp(-grid2.radius2() / 2.0)
    u0 = FormField.from_components(grid2, 1, (y * env, -x * env))
    a = solve_nse(None, u0, cfg)
    b = solve_nse(None, u0 + 1e-2 * divergence_free_velocity(grid2, 63), cfg)
    gathered = []
    real = _Maxima._gap_max

    def counted(self, pts):
        gathered.append(pts.size)
        return real(self, pts)

    monkeypatch.setattr(_Maxima, "_gap_max", counted)
    params = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
    assert math.isfinite(solution_metric(a, b, params, 0.1, n_random=20_000))
    assert 0 < sum(gathered) <= 450
