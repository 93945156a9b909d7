import math

import numpy as np
import pytest

from waveinv import (
    Side,
    area_weights,
    build_grid,
    refine,
    region_mask,
    time_weights,
)
from waveinv.grid import perimeter_weights


def test_cell_width_unit_square():
    g = build_grid(10, 10)
    assert g.h == pytest.approx(0.1, abs=0)


def test_cfl_bound_and_exact_final_time():
    g = build_grid(100, 100, T=1.2, cfl_safety=0.5, eps_min=1.0)
    assert g.dt <= 0.5 * 0.01 / math.sqrt(2.0) + 1e-15
    assert g.nt * g.dt == pytest.approx(1.2, abs=1e-13)
    assert abs(g.nt * g.dt - g.T) <= g.dt * 1e-12


def test_eps_min_slows_the_clock():
    fast = build_grid(50, 50, eps_min=1.0)
    slow = build_grid(50, 50, eps_min=4.0)
    assert slow.dt > fast.dt


@pytest.mark.parametrize("nx,ny", [(4, 4), (7, 100), (100, 7)])
def test_minimum_resolution_rejected(nx, ny):
    with pytest.raises(ValueError):
        build_grid(nx, ny)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        build_grid(20, 20, T=-1.0)
    with pytest.raises(ValueError):
        build_grid(20, 20, cfl_safety=1.5)
    with pytest.raises(ValueError):
        build_grid(20, 10, extent=(1.0, 1.0))  # non-square cells
    # non-finite values: an infinite eps_min made nt = 0 and divided by it
    for bad in ({"eps_min": np.inf}, {"extent": (np.inf, np.inf)}, {"origin": (np.nan, 0.0)}):
        with pytest.raises(ValueError):
            build_grid(20, 20, **bad)


def test_region_mask_degenerate_and_perimeter():
    g = build_grid(10, 10)
    assert region_mask(g, 0).frame.sum() == 0
    m = region_mask(g, 1)
    assert m.frame.sum() == 4 * 11 - 4
    for side_nodes in (m.frame[0, :], m.frame[-1, :], m.frame[:, 0], m.frame[:, -1]):
        assert side_nodes.all()
    inner = np.argwhere(m.inner)
    assert len(inner) > 0


def test_region_mask_too_wide():
    g = build_grid(10, 10)
    with pytest.raises(ValueError):
        region_mask(g, 6)


def test_region_mask_idempotent():
    g = build_grid(12, 12)
    a = region_mask(g, 2)
    b = region_mask(g, 2)
    assert np.array_equal(a.frame, b.frame)


def test_refine_doubles_and_composes():
    g = build_grid(50, 50)
    assert g.h == pytest.approx(0.02)
    f = refine(g)
    assert (f.nx, f.ny) == (100, 100)
    assert f.h == pytest.approx(0.01)
    ff = refine(f)
    assert ff.h == pytest.approx(g.h / 4)
    assert (ff.nx, ff.ny) == (200, 200)
    for grid in (f, ff):
        assert abs(grid.nt * grid.dt - grid.T) <= grid.dt * 1e-12


def test_refinement_is_nested():
    g = build_grid(16, 16)
    f = refine(g)
    assert np.abs(f.xs()[::2] - g.xs()).max() < 1e-14
    assert np.abs(f.ys()[::2] - g.ys()).max() < 1e-14


def test_quadrature_weights_reproduce_measures():
    g = build_grid(13, 13, T=1.2)
    assert area_weights(g).sum() == pytest.approx(1.0, abs=1e-13)
    for side in Side:
        assert perimeter_weights(g, (side,)).sum() == pytest.approx(1.0, abs=1e-13)
    assert time_weights(g).sum() == pytest.approx(1.2, abs=1e-13)


def test_area_weight_pattern():
    g = build_grid(8, 8)
    w = area_weights(g)
    h2 = g.h * g.h
    assert w[3, 4] == pytest.approx(h2)
    assert w[0, 4] == pytest.approx(h2 / 2)
    assert w[0, 0] == pytest.approx(h2 / 4)
