import math

import numpy as np
import pytest

from conftest import face_sup
from layerflow.corpus import divergence_free_velocity, random_field
from layerflow.geometry import (INFINITY, CylinderPoint, GridSpec, compactify,
                                cyl_metric, pair_weight, weight, weight_grid)


def test_weight_values():
    assert weight((0.0, 0.0)) == 1.0
    assert weight((1.0, 1.0, 1.0)) == 2.0
    # direct evaluation of the definition: sqrt(1 + 9 + 16)
    assert weight((3.0, 4.0)) == pytest.approx(math.sqrt(26.0), rel=0, abs=1e-14)
    assert weight((3.0, 4.0)) == pytest.approx(5.0990195135927845)


def test_weight_lower_bound_and_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.normal(size=3) * rng.uniform(0, 10)
        y = rng.normal(size=3) * rng.uniform(0, 10)
        assert weight(x) >= 1.0
        lo, hi = sorted((x, y), key=np.linalg.norm)
        assert weight(lo) <= weight(hi) + 1e-15


def test_pair_weight_values_and_symmetry():
    assert pair_weight((0.0, 0.0), (0.0, 0.0)) == 1.0
    assert pair_weight((3.0, 4.0), (0.0, 0.0)) == pytest.approx(math.sqrt(26.0))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.normal(size=(2, 2)) * 5
        assert pair_weight(x, y) == pair_weight(y, x)
        assert pair_weight(x, y) >= weight(x) - 1e-15
        # comparison with sqrt(1+|x|^2+|y|^2) within a factor sqrt(2)
        joint = math.sqrt(1.0 + np.dot(x, x) + np.dot(y, y))
        assert pair_weight(x, y) <= joint + 1e-12
        assert joint <= math.sqrt(2.0) * pair_weight(x, y) + 1e-12


def test_compactify_points():
    p = compactify((0.0, 0.0), 0.3)
    assert p.z0 == pytest.approx(-1.0)
    assert np.allclose(p.z, 0.0)
    assert p.zt == 0.3

    pinf = compactify(INFINITY, 0.2, n=2)
    assert pinf.z0 == 1.0 and pinf.z == (0.0, 0.0) and pinf.zt == 0.2

    # w^2 = 2 at |x| = 1
    q = compactify((1.0, 0.0), 0.0)
    assert q.z0 == pytest.approx(0.0)
    assert q.z[0] == pytest.approx(1.0)
    assert q.z[1] == pytest.approx(0.0)


def test_compactify_on_cylinder_and_injective_on_grid():
    grid = GridSpec(n=2, N=16, L=3.0, M=4, T=1.0)
    seen = set()
    for x0 in grid.axis():
        for x1 in grid.axis():
            p = compactify((x0, x1), 0.0)
            assert p.z0 ** 2 + sum(z * z for z in p.z) == pytest.approx(1.0, abs=1e-12)
            key = (round(p.z0, 12), tuple(round(z, 12) for z in p.z))
            assert key not in seen
            seen.add(key)


def test_cylinder_point_invariant_enforced():
    with pytest.raises(ValueError):
        CylinderPoint(0.5, (0.2, 0.1), 0.0)


def test_cyl_metric_basic():
    assert cyl_metric(((1.0, 2.0), 0.4), ((1.0, 2.0), 0.4)) == 0.0
    # |(-1,0,0) - (1,0,0)| = 2
    assert cyl_metric(((0.0, 0.0), 0.0), (INFINITY, 0.0)) == pytest.approx(2.0)
    assert cyl_metric((INFINITY, 0.0), (INFINITY, 0.5)) == pytest.approx(0.5)


def test_cyl_metric_axioms():
    rng = np.random.default_rng(2)
    pts = [(rng.normal(size=2) * rng.uniform(0, 20), rng.uniform(0, 1)) for _ in range(30)]
    pts.append((INFINITY, 0.5))
    for _ in range(1000):
        a, b, c = (pts[i] for i in rng.integers(0, len(pts), size=3))
        dab = cyl_metric(a, b)
        assert dab >= 0.0
        assert dab == pytest.approx(cyl_metric(b, a), abs=1e-15)
        assert dab <= cyl_metric(a, c) + cyl_metric(c, b) + 1e-12


def test_grid_invariants():
    with pytest.raises(ValueError):
        GridSpec(n=2, N=6, L=1.0, M=2, T=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=2, N=48, L=1.0, M=2, T=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=4, N=16, L=1.0, M=2, T=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=2, N=16, L=1.0, M=0, T=1.0)
    for L, T in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(n=2, N=16, L=L, M=2, T=T)
    g = GridSpec(n=2, N=16, L=2.0, M=4, T=1.0)
    assert g.h == pytest.approx(0.25)
    assert g.dt == pytest.approx(0.25)
    assert g.axis()[0] == -2.0
    assert 0.0 in g.axis()


def test_grid_messages_name_the_field():
    # GridSpec is the one owner of the grid rules; read_field passes these
    # messages on, so each starts with the field it refuses
    for kw, message in (({"N": 48}, "N: must be a power of two >= 8, got 48"),
                        ({"n": 4}, "n: must be 2 or 3, got 4"),
                        ({"M": 0}, "M: must be >= 1, got 0"),
                        ({"L": -1.0}, "L: must be positive and finite, got -1.0"),
                        ({"T": math.inf}, "T: must be positive and finite, got inf")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSpec(**{"n": 2, "N": 16, "L": 1.0, "M": 2, "T": 1.0, **kw})


@pytest.mark.parametrize("name, value", [("N", 64.0), ("M", True), ("n", 2.0), ("N", "64"),
                                         ("M", np.float64(4.0)), ("n", np.bool_(True))])
def test_grid_refuses_non_integer_counts(name, value):
    # a float N failed with a TypeError from '&', M = True passed as 1 and a
    # float n failed only deep inside corpus.random_field
    kw = {"n": 2, "N": 64, "L": 6.0, "M": 4, "T": 0.5, name: value}
    with pytest.raises(ValueError, match=f"^{name}: must be an integer, got "):
        GridSpec(**kw)


def test_grid_accepts_numpy_integers():
    grid = GridSpec(n=np.int64(2), N=np.int32(16), L=6.0, M=np.uint8(4), T=0.5)
    assert grid == GridSpec(n=2, N=16, L=6.0, M=4, T=0.5)
    assert all(type(v) is int for v in (grid.n, grid.N, grid.M))


def test_cached_arrays_are_read_only():
    # the caches hand one array to every caller: an in-place update by one
    # caller must raise instead of changing every later solve
    from layerflow import forms, holder, potentials, spectral

    grid = GridSpec(n=2, N=16, L=6.0, M=4, T=0.5)
    symbols = [forms._d_symbol(grid, 1), forms._codiff_symbol(grid, 1),
               forms._codiff_symbol(grid, 2), potentials._grad_newton_symbol(grid, 2)]
    cached = [*spectral.wavenumbers(grid), spectral.ksq(grid), spectral.inv_ksq(grid),
              *grid.mesh(), grid.radius2(),
              *holder._neighbor_pairs(grid), *holder.pair_set(grid, 100),
              *holder._ball_pairs(grid), *spectral._factors(grid),
              holder._pair_weight(grid, 100, 0.25, 1.5), holder._ball_divisor(grid, 0.5),
              *(mult for table in symbols for terms in table for _, mult in terms),
              *potentials._duhamel_symbols(grid, 0.1)]
    for arr in cached:
        with pytest.raises(ValueError):
            arr += 1


def test_mesh_and_radius2_are_one_cached_table_per_grid():
    # equal grids share one table, so a second GridSpec of the same values
    # forms no second copy
    grid = GridSpec(n=2, N=16, L=6.0, M=4, T=0.5)
    mesh, r2 = grid.mesh(), grid.radius2()
    for same in (grid, GridSpec(n=2, N=16, L=6.0, M=4, T=0.5)):
        assert all(a is b for a, b in zip(same.mesh(), mesh, strict=True))
        assert same.radius2() is r2
    assert not any(arr.flags.writeable for arr in (*mesh, r2))


def test_weight_grid_is_one_cached_read_only_table():
    # every norm term asked for the table again and formed it afresh
    grid = GridSpec(n=2, N=16, L=6.0, M=4, T=0.5)
    w = weight_grid(grid, 1.5)
    assert weight_grid(grid, 1.5) is w
    assert not w.flags.writeable
    assert np.array_equal(w.view(np.int64), ((1.0 + grid.radius2()) ** 0.75).view(np.int64))


def test_corpus_edge_values(grid2):
    # the box faces x_i = -L (periodic, so also +L): random_field vanishes
    # there to 1e-12, while the Leray projection of divergence_free_velocity
    # is non-local and leaves 2e-3 to 2e-2 (seeds 0-5) on the faces
    for seed in range(4):
        for time_dependent in (False, True):
            assert face_sup(random_field(grid2, 1, seed, time_dependent)) < 1e-12
            assert face_sup(divergence_free_velocity(grid2, seed, time_dependent)) > 1e-3
