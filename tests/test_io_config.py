import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    BoundaryTrace,
    Role,
    build_grid,
    constant_coefficient,
    gaussian_coefficient,
)
from waveinv.config import ConfigError, load_config, make_coefficient, make_grid, write_manifest
from waveinv.io import (
    read_field_csv,
    read_trace_csv,
    write_field_csv,
    write_field_vtk,
    write_trace_csv,
)


@pytest.fixture
def grid():
    return build_grid(10, 10, T=0.4)


def test_trace_csv_roundtrip(grid, tmp_path):
    rng = np.random.default_rng(0)
    data = {
        s: rng.standard_normal((grid.nt + 1, grid.side_node_count(s)))
        for s in ALL_SIDES
    }
    tr = BoundaryTrace(grid=grid, sides=ALL_SIDES, data=data)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    back = read_trace_csv(path, grid)
    assert back.sides == tr.sides
    for s in ALL_SIDES:
        assert np.array_equal(back.data[s], tr.data[s])


def test_trace_csv_grid_mismatch_detected(grid, tmp_path):
    data = {s: np.zeros((grid.nt + 1, grid.side_node_count(s))) for s in ALL_SIDES}
    tr = BoundaryTrace(grid=grid, sides=ALL_SIDES, data=data)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    # a different nt, and the same nt on a different time axis
    for other in (build_grid(10, 10, T=0.8), build_grid(10, 10, T=0.41)):
        with pytest.raises(ValueError):
            read_trace_csv(path, other)


@pytest.mark.parametrize("where", ["negative", "past_end"])
def test_trace_csv_index_off_side_detected(grid, tmp_path, where):
    data = {s: np.zeros((grid.nt + 1, grid.side_node_count(s))) for s in ALL_SIDES}
    path = tmp_path / "trace.csv"
    write_trace_csv(BoundaryTrace(grid=grid, sides=ALL_SIDES, data=data), path)
    # relabel the last node of one side, so every side still has its full count
    count = grid.side_node_count(ALL_SIDES[0])
    last = f"{int(ALL_SIDES[0])},{count - 1},"
    new = f"{int(ALL_SIDES[0])},{-1 if where == 'negative' else count},"
    lines = path.read_text().splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if last in line)
    lines[k] = lines[k].replace(last, new)
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="index"):
        read_trace_csv(path, grid)


@pytest.mark.parametrize("fault", ["duplicate_row", "nan", "inf"])
def test_trace_csv_bad_row_detected(grid, tmp_path, fault):
    data = {s: np.zeros((grid.nt + 1, grid.side_node_count(s))) for s in ALL_SIDES}
    path = tmp_path / "trace.csv"
    write_trace_csv(BoundaryTrace(grid=grid, sides=ALL_SIDES, data=data), path)
    lines = path.read_text().splitlines(keepends=True)
    key = lines[5].rsplit(",", 1)[0]
    if fault == "duplicate_row":  # the same (t, side, index) again, with another value
        lines.append(f"{key},0.5\r\n")
    else:
        lines[5] = f"{key},{fault}\r\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="once" if fault == "duplicate_row" else "non-finite"):
        read_trace_csv(path, grid)


def test_trace_csv_empty_body_detected(grid, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,side,index,value\r\n")
    with pytest.raises(ValueError, match="no rows"):
        read_trace_csv(path, grid)


def test_field_csv_roundtrip(grid, tmp_path):
    f = gaussian_coefficient(grid, 1.0, 3.0, (0.5, 0.7), 0.002, Role.EPSILON)
    path = tmp_path / "eps.csv"
    write_field_csv(f, grid, path)
    back = read_field_csv(path, grid, Role.EPSILON)
    assert np.array_equal(back.values, f.values)


def test_vtk_header_and_payload(grid, tmp_path):
    f = constant_coefficient(grid, 2.5, Role.EPSILON)
    path = tmp_path / "eps.vtk"
    write_field_vtk(f, grid, path, name="eps")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_POINTS" in lines
    assert f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1" in lines
    payload = lines[lines.index("LOOKUP_TABLE default") + 1 :]
    assert len(payload) == grid.n_nodes
    assert all(float(v) == 2.5 for v in payload)


MINIMAL = """
[grid]
nx = 12
"""


def test_config_defaults_materialize(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(MINIMAL)
    cfg = load_config(p)
    assert cfg.get("grid", "nx") == 12
    assert cfg.get("grid", "ny") == 12  # defaults to nx
    assert cfg.get("grid", "t_final") == 1.2
    assert cfg.get("cga", "gamma_eps0") == 0.01
    assert cfg.get("noise", "seed") == 42
    grid = make_grid(cfg)
    assert grid.nx == 12


def test_missing_required_key_names_it(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[grid]\nny = 12\n")
    with pytest.raises(ConfigError, match="grid.nx"):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[grid]\nnx = 12\nnz = 9\n")
    with pytest.raises(ConfigError, match="grid.nz"):
        load_config(p)


def test_bad_value_names_key(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[grid]\nnx = twelve\n")
    with pytest.raises(ConfigError, match="grid.nx"):
        load_config(p)


def test_manifest_roundtrip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(MINIMAL)
    cfg = load_config(p)
    man = tmp_path / "manifest.ini"
    write_manifest(cfg, man)
    cfg2 = load_config(man)
    assert cfg2.values == cfg.values


def test_coefficient_builders(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(
        "[grid]\nnx = 10\n"
        "[truth.eps]\nkind = gaussian\nbase = 1.0\namp = 3.0\ncenter = 0.5, 0.7\nwidth = 0.002\n"
        "[initial.eps]\nkind = perturbed_truth\nscale = 20.0\n"
        "[initial.sigma]\nkind = constant\nvalue = 1.5\n"
    )
    cfg = load_config(p)
    grid = make_grid(cfg)
    truth = make_coefficient(cfg, "truth.eps", grid, Role.EPSILON)
    assert truth.values[5, 7] == pytest.approx(4.0, abs=1e-12)
    init = make_coefficient(cfg, "initial.eps", grid, Role.EPSILON)
    # the boundary-flat bump vanishes on the boundary and peaks inside
    assert init.values[0, 0] == truth.values[0, 0]
    assert init.values[5, 5] > truth.values[5, 5]
    const = make_coefficient(cfg, "initial.sigma", grid, Role.SIGMA)
    assert np.all(const.values == 1.5)


def test_file_builder_roundtrip(tmp_path):
    grid = build_grid(10, 10, T=0.4)
    f = gaussian_coefficient(grid, 1.0, 2.0, (0.3, 0.4), 0.01, Role.EPSILON)
    write_field_csv(f, grid, tmp_path / "field.csv")
    p = tmp_path / "run.ini"
    p.write_text(
        "[grid]\nnx = 10\nt_final = 0.4\n"
        "[initial.eps]\nkind = file\npath = field.csv\n"
    )
    cfg = load_config(p)
    back = make_coefficient(cfg, "initial.eps", make_grid(cfg), Role.EPSILON)
    assert np.array_equal(back.values, f.values)


@pytest.mark.parametrize("section", ["truth.eps", "truth.sigma"])
def test_truth_cannot_perturb_itself(tmp_path, section):
    p = tmp_path / "run.ini"
    p.write_text(f"[grid]\nnx = 10\n[{section}]\nkind = perturbed_truth\n")
    cfg = load_config(p)
    role = Role.EPSILON if section == "truth.eps" else Role.SIGMA
    with pytest.raises(ConfigError, match=f"{section}.kind"):
        make_coefficient(cfg, section, make_grid(cfg), role)
