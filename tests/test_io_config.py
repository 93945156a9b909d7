import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from waveinv import (
    ALL_SIDES,
    BoundaryTrace,
    CoefficientField,
    Role,
    Side,
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
from conftest import zero_trace


@pytest.fixture
def grid():
    return build_grid(10, 10, T=0.4)


def test_trace_csv_roundtrip(grid, tmp_path):
    rng = np.random.default_rng(0)
    values = np.hstack([
        rng.standard_normal((grid.nt + 1, grid.side_node_count(s)))
        for s in ALL_SIDES
    ])
    tr = BoundaryTrace(grid=grid, sides=ALL_SIDES, values=values)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    back = read_trace_csv(path, grid)
    assert back.sides == tr.sides
    for s in ALL_SIDES:
        assert np.array_equal(back.data[s], tr.data[s])


def test_trace_csv_grid_mismatch_detected(grid, tmp_path):
    tr = zero_trace(grid)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    # a different nt, and the same nt on a different time axis
    for other in (build_grid(10, 10, T=0.8), build_grid(10, 10, T=0.41)):
        with pytest.raises(ValueError):
            read_trace_csv(path, other)


@pytest.mark.parametrize("where", ["negative", "past_end"])
def test_trace_csv_index_off_side_detected(grid, tmp_path, where):
    path = tmp_path / "trace.csv"
    write_trace_csv(zero_trace(grid), path)
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
    path = tmp_path / "trace.csv"
    write_trace_csv(zero_trace(grid), path)
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


def test_field_csv_from_finer_grid_detected(tmp_path):
    # every other row of the 24x24 file lands on a 12x12 node; the rest do not
    coarse, fine = build_grid(12, 12, T=0.4), build_grid(24, 24, T=0.4)
    path = tmp_path / "eps.csv"
    write_field_csv(gaussian_coefficient(fine, 1.0, 3.0, (0.5, 0.7), 0.002, Role.EPSILON),
                    fine, path)
    with pytest.raises(ValueError, match="not a node"):
        read_field_csv(path, coarse, Role.EPSILON)


def test_field_csv_repeated_node_detected(grid, tmp_path):
    path = tmp_path / "eps.csv"
    write_field_csv(constant_coefficient(grid, 2.0, Role.EPSILON), grid, path)
    lines = path.read_bytes().split(b"\r\n")
    # node (0, 1) once more with another value, after its own row
    x, y, _ = lines[2].split(b",")
    path.write_bytes(b"\r\n".join([*lines[:3], x + b"," + y + b",9", *lines[3:]]))
    with pytest.raises(ValueError, match="exactly once"):
        read_field_csv(path, grid, Role.EPSILON)


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


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_percent_template_digits_equal_format(v):
    # the bulk writers fill "%.17g" templates (bytes for the CSVs, str for VTK);
    # the rest of io.py formats with format()
    assert b"%.17g" % v == format(v, ".17g").encode()
    assert "%.17g" % v == format(v, ".17g")


# Per-value reference writers: the file formats as a spec, one value at a time.
def cell(v):
    return format(float(v), ".17g")


def reference_trace_csv(trace):
    rows = ["t,side,index,value\r\n"]
    for n, t in enumerate(trace.grid.times()):
        for side in trace.sides:
            for k, v in enumerate(trace.data[side][n]):
                rows.append(f"{cell(t)},{int(side)},{k},{cell(v)}\r\n")
    return "".join(rows).encode()


def reference_field_csv(values, grid):
    rows = ["x,y,value\r\n"]
    for i, x in enumerate(grid.xs()):
        for j, y in enumerate(grid.ys()):
            rows.append(f"{cell(x)},{cell(y)},{cell(values[i, j])}\r\n")
    return "".join(rows).encode()


def reference_field_vtk(values, grid, name):
    x0, y0 = grid.origin
    lines = [
        "# vtk DataFile Version 3.0", name, "ASCII", "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1", f"ORIGIN {cell(x0)} {cell(y0)} 0",
        f"SPACING {cell(grid.h)} {cell(grid.h)} 1", f"POINT_DATA {grid.n_nodes}",
        f"SCALARS {name} double 1", "LOOKUP_TABLE default",
    ]
    lines += [cell(values[i, j]) for j in range(grid.ny + 1) for i in range(grid.nx + 1)]
    return ("\n".join(lines) + "\n").encode()


EDGE_VALUES = (-0.0, 0.0, 1e-310, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, 12345.0)


@pytest.fixture
def oblong():
    """Fewer x than y nodes and an off-zero origin, so a swapped axis shows."""
    return build_grid(9, 13, T=0.25, origin=(-0.25, 0.5), extent=(0.9, 1.3))


def with_edge_values(shape, seed):
    values = np.random.default_rng(seed).standard_normal(shape)
    values.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    values.flat[-len(EDGE_VALUES):] = EDGE_VALUES[::-1]
    return values


@pytest.mark.parametrize("sides", [(Side.LEFT,), (Side.BOTTOM, Side.TOP), ALL_SIDES],
                         ids=["left", "bottom-top", "all"])
def test_trace_csv_bytes_match_reference(oblong, tmp_path, sides):
    width = sum(oblong.side_node_count(s) for s in sides)
    tr = BoundaryTrace(grid=oblong, sides=sides,
                       values=with_edge_values((oblong.nt + 1, width), len(sides)))
    write_trace_csv(tr, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace_csv(tr)


def test_field_csv_bytes_match_reference(oblong, tmp_path):
    values = with_edge_values(oblong.node_shape, 5)
    write_field_csv(values, oblong, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == reference_field_csv(values, oblong)
    f = CoefficientField(grid=oblong, values=values, role=Role.SIGMA)
    write_field_csv(f, oblong, tmp_path / "coef.csv")
    assert (tmp_path / "coef.csv").read_bytes() == reference_field_csv(values, oblong)


def test_vtk_bytes_match_reference(oblong, tmp_path):
    values = with_edge_values(oblong.node_shape, 6)
    # the interior of a padded array, a strided view like the dumped levels
    padded = np.pad(values, 2)[2:-2, 2:-2]
    write_field_vtk(padded, oblong, tmp_path / "E_0.vtk", name="E")
    assert (tmp_path / "E_0.vtk").read_bytes() == reference_field_vtk(values, oblong, "E")


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
