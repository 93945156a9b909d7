import configparser
import csv
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import waveinv.cli
from waveinv import BoundaryTrace, Role, build_grid, constant_coefficient
from waveinv.cli import main
from waveinv.config import load_config, make_grid
from waveinv.forward import Leapfrog, _block, forward_operator, forward_trace
from waveinv.gradient import gradient_sweep
from waveinv.io import read_field_csv, write_field_csv, write_field_vtk, write_trace_csv
from conftest import stack_trace, stored_adjoint, stored_state

BASE = """
[grid]
nx = 12
t_final = 0.8

[truth.eps]
kind = gaussian

[truth.sigma]
kind = gaussian

[initial.eps]
kind = constant
value = 1.0

[initial.sigma]
kind = constant
value = 1.0

[observation]
file = obs.csv

[noise]
model = relative_gaussian
level = 0.1
seed = 42

[cga]
max_iters = 3

[acga]
n_max = 1

[output]
dir = out
"""


def write_cfg(tmp_path, text=BASE, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_forward_writes_trace(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "fwd"
    assert main(["forward", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = read_csv_rows(out / "trace.csv")
    n_levels = len({r["t"] for r in rows})
    assert n_levels > 1 and (out / "manifest.ini").exists()


def test_forward_zero_amplitude_gives_zero_trace(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "\n[source]\namplitude = 0.0\n")
    out = tmp_path / "fwd0"
    assert main(["forward", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert all(float(r["value"]) == 0.0 for r in read_csv_rows(out / "trace.csv"))


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nny = 12\n")
    assert main(["forward", "--config", str(cfg), "--quiet"]) == 2
    assert "grid.nx" in capsys.readouterr().err


def test_synthesize_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "obs.csv").read_text() == (out2 / "obs.csv").read_text()


def test_synthesize_zero_level_matches_forward_trace(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("level = 0.1", "level = 0.0"))
    fwd, syn = tmp_path / "f", tmp_path / "s"
    assert main(["forward", "--config", str(cfg), "--out", str(fwd), "--quiet"]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", str(syn), "--quiet"]) == 0
    trace = (fwd / "trace.csv").read_text()
    obs = (syn / "obs.csv").read_text()
    assert trace == obs


def test_synthesize_relative_noise_std(tmp_path):
    cfg = write_cfg(tmp_path)
    fwd, syn = tmp_path / "f", tmp_path / "s"
    main(["forward", "--config", str(cfg), "--out", str(fwd), "--quiet"])
    main(["synthesize", "--config", str(cfg), "--out", str(syn), "--quiet"])
    clean = np.array([float(r["value"]) for r in read_csv_rows(fwd / "trace.csv")])
    noisy = np.array([float(r["value"]) for r in read_csv_rows(syn / "obs.csv")])
    target = 0.1 * np.abs(clean).max()
    assert np.std(noisy - clean) == pytest.approx(target, rel=0.1)


def run_synth_then(tmp_path, command, extra_cfg="", max_iters=None):
    text = BASE + extra_cfg
    if max_iters is not None:
        text = text.replace("max_iters = 3", f"max_iters = {max_iters}")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    code = main([command, "--config", str(out / "manifest.ini"), "--out", str(out), "--quiet"])
    return code, out


def test_invert_produces_outputs_and_log(tmp_path):
    code, out = run_synth_then(tmp_path, "invert")
    assert code == 0
    for name in ("eps_final.vtk", "eps_final.csv", "sigma_final.vtk",
                 "sigma_final.csv", "convergence.csv"):
        assert (out / name).exists()
    rows = read_csv_rows(out / "convergence.csv")
    assert len(rows) == 3
    assert float(rows[-1]["F"]) < float(rows[0]["F"])


def test_tables_end_every_line_with_crlf(tmp_path):
    code, out = run_synth_then(tmp_path, "invert-adaptive", max_iters=1)
    assert code == 0
    for path in (out / "levels.csv", out / "level_0" / "convergence.csv"):
        lines = path.read_bytes().split(b"\n")
        assert len(lines) > 2 and lines[-1] == b""
        assert all(line.endswith(b"\r") for line in lines[:-1])


@pytest.mark.parametrize("fault", ["duplicate_row", "nan_value"])
def test_invert_bad_observation_row_exits_2(tmp_path, capsys, fault):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "obs.csv").read_text().splitlines(keepends=True)
    if fault == "duplicate_row":  # the same (t, side, index) again, with another value
        lines.append(lines[-1].rsplit(",", 1)[0] + ",0.5\r\n")
    else:
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan\r\n"
    (out / "obs.csv").write_text("".join(lines))
    capsys.readouterr()
    assert main(["invert", "--config", str(out / "manifest.ini"), "--out", str(out / "inv"),
                 "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "inv" / "convergence.csv").exists()


def test_invert_zero_cap_returns_initial_guess(tmp_path):
    code, out = run_synth_then(tmp_path, "invert", max_iters=0)
    assert code == 0
    values = [float(r["value"]) for r in read_csv_rows(out / "eps_final.csv")]
    assert all(v == 1.0 for v in values)
    assert read_csv_rows(out / "convergence.csv") == []


def test_invert_zero_simulated_trace_logs_nan_data_errors(tmp_path):
    # observations from the real source, inverted with a silent one: the
    # relative data errors are undefined, the coefficient errors are not
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    silent, n = re.subn(r"^amplitude = .*$", "amplitude = 0.0",
                        (out / "manifest.ini").read_text(), flags=re.M)
    assert n == 1
    (out / "silent.ini").write_text(silent)
    assert main(["invert", "--config", str(out / "silent.ini"), "--out", str(out / "inv"),
                 "--quiet"]) == 0
    rows = read_csv_rows(out / "inv" / "convergence.csv")
    assert len(rows) == 1
    assert np.isnan(float(rows[0]["e_E_l2"])) and np.isnan(float(rows[0]["e_E_sup"]))
    assert np.isfinite(float(rows[0]["e_eps_l2"]))


def test_invert_zero_truth_coefficient_logs_nan_errors(tmp_path):
    # a declared truth of zero has no relative error; the other one does
    text = BASE.replace("[truth.sigma]\nkind = gaussian",
                        "[truth.sigma]\nkind = constant\nvalue = 0.0")
    text = text.replace("max_iters = 3", "max_iters = 2")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["invert", "--config", str(out / "manifest.ini"), "--out", str(out),
                 "--quiet"]) == 0
    rows = read_csv_rows(out / "convergence.csv")
    assert len(rows) == 2
    for row in rows:
        assert np.isnan(float(row["e_sigma_l2"])) and np.isnan(float(row["e_sigma_sup"]))
        assert np.isfinite(float(row["e_eps_l2"]))


def test_invert_grid_mismatch_exits_2(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"])
    manifest = (out / "manifest.ini").read_text()
    # another nx, and another t_final with the same number of time levels
    for old, new in (("nx = 12", "nx = 16"), ("t_final = 0.8\n", "t_final = 0.81\n")):
        assert old in manifest
        (out / "bad.ini").write_text(manifest.replace(old, new))
        assert main(["invert", "--config", str(out / "bad.ini"), "--quiet"]) == 2


def test_invert_finer_initial_field_exits_2(tmp_path, capsys):
    # a 24x24 field file is not a field on the 12x12 grid, not even a subsample
    fine = build_grid(24, 24, T=0.8)
    path = tmp_path / "fine.csv"
    write_field_csv(constant_coefficient(fine, 1.0, Role.EPSILON), fine, path)
    initial = "[initial.eps]\nkind = constant\nvalue = 1.0"
    assert initial in BASE
    cfg = write_cfg(tmp_path, BASE.replace(initial, f"[initial.eps]\nkind = file\npath = {path}"))
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["invert", "--config", str(out / "manifest.ini"), "--quiet"]) == 2
    assert "initial.eps" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("omega", "0"), ("t_on", "soon"), ("max_iters", "-1"), ("n_max", "-1"), ("beta_eps", "1.5"),
    ("t_on", "0"), ("t_on", "-1"), ("side", "3"), ("frame_width", "-1"), ("frame_width", "6"),
    ("alpha_max", "-1"), ("alpha_max", "0"), ("beta_max", "-1"), ("beta_max", "nan"),
    ("t_on", "nan"), ("omega", "nan"), ("amplitude", "nan"), ("gamma_eps0", "nan"),
    ("omega", "inf"), ("amplitude", "inf"), ("gamma_eps0", "inf"), ("eps_background", "inf"),
    ("theta1_eps", "-1"),
])
def test_rejected_value_exits_2_before_solving(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    bad, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", (out / "manifest.ini").read_text(),
                     flags=re.M)
    assert n == 1
    (out / "bad.ini").write_text(bad)
    capsys.readouterr()
    out2 = tmp_path / "adapt"
    assert main(["invert-adaptive", "--config", str(out / "bad.ini"),
                 "--out", str(out2), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out2 / "level_0").exists()


@pytest.mark.parametrize("section, keys, command", [
    ("initial.eps", "kind = constant\nvalue = inf", "invert"),
    ("truth.eps", "kind = gaussian\nbase = inf", "synthesize"),
    ("truth.eps", "kind = gaussian\namp = -inf", "synthesize"),
    ("truth.eps", "kind = gaussian\nwidth = inf", "synthesize"),
    ("truth.eps", "kind = gaussian\ncenter = 0.5, inf", "synthesize"),
    ("initial.sigma", "kind = perturbed_truth\nscale = inf", "invert"),
    ("truth.eps", "kind = gaussian\nwidth = 0", "synthesize"),
], ids=["constant", "gaussian_base", "gaussian_amp", "gaussian_width", "gaussian_center",
        "perturbed_truth", "gaussian_zero_width"])
def test_invalid_coefficient_input_exits_2(tmp_path, capsys, section, keys, command):
    # an infinite coefficient used to reach the solver and exit 3 as a blow-up,
    # and a zero gaussian width ended in a ValueError traceback
    declared = re.search(rf"^\[{re.escape(section)}\]\nkind = \w+\n(value = .*\n)?", BASE, re.M)
    cfg = write_cfg(tmp_path, BASE.replace(declared.group(0), f"[{section}]\n{keys}\n"))
    out = tmp_path / "run"
    code = main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"])
    if command == "invert":
        assert code == 0
        code = main(["invert", "--config", str(out / "manifest.ini"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and section in err
    assert not (out / "convergence.csv").exists()


def test_invert_adaptive_single_level_matches_invert(tmp_path):
    code, out = run_synth_then(tmp_path, "invert", extra_cfg="")
    assert code == 0
    cfg2 = (out / "manifest.ini").read_text().replace("n_max = 1", "n_max = 0")
    (out / "flat.ini").write_text(cfg2)
    out2 = tmp_path / "adapt"
    assert main(["invert-adaptive", "--config", str(out / "flat.ini"),
                 "--out", str(out2), "--quiet"]) == 0
    assert (out2 / "levels.csv").exists()
    assert (out / "eps_final.csv").read_text() == (out2 / "level_0" / "eps_final.csv").read_text()
    assert len(read_csv_rows(out2 / "levels.csv")) == 1


def test_invert_adaptive_two_levels(tmp_path):
    code, out = run_synth_then(tmp_path, "invert-adaptive", max_iters=2)
    assert code == 0
    levels = read_csv_rows(out / "levels.csv")
    assert len(levels) == 2
    assert int(levels[1]["nno"]) == (25 * 25)
    assert (out / "level_1" / "eps_final.csv").exists()


def test_invert_adaptive_writes_the_documented_headers(tmp_path):
    # test2 at 16x16, one iteration on each of two levels; the header lines
    # are the ones the README documents, byte for byte
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read(Path(waveinv.cli.__file__).with_name("presets") / "test2.ini")
    for section, key, value in (("grid", "nx", "16"), ("grid", "ny", "16"),
                                ("acga", "n_max", "1"), ("cga", "max_iters", "1")):
        cfg.set(section, key, value)
    with open(tmp_path / "run.ini", "w") as fh:
        cfg.write(fh)
    run, adapt = tmp_path / "run", tmp_path / "adapt"
    assert main(["synthesize", "--config", str(tmp_path / "run.ini"), "--out", str(run),
                 "--quiet"]) == 0
    assert main(["invert-adaptive", "--config", str(run / "manifest.ini"), "--out", str(adapt),
                 "--quiet"]) == 0
    with open(adapt / "levels.csv", "rb") as fh:
        assert fh.readline() == (
            b"level,nno,g_eps_norm_per_node,g_sigma_norm_per_node,max_eps,max_sigma,M_k\r\n")
    with open(adapt / "level_0" / "convergence.csv", "rb") as fh:
        assert fh.readline() == (
            b"m,F,e_eps_l2,e_eps_sup,e_sigma_l2,e_sigma_sup,e_E_l2,e_E_sup,"
            b"g_eps_norm,g_sigma_norm,lambda_norm,gamma_eps,gamma_sigma,alpha_eps,alpha_sigma\r\n")


GRADCHECK = """
[grid]
nx = 16
frame_width = 2

[truth.eps]
kind = gaussian

[truth.sigma]
kind = gaussian

[eval.eps]
kind = constant
value = 2.0

[eval.sigma]
kind = constant
value = 2.0

[noise]
level = 0.0

[gradcheck]
n_nodes = 4
seed = 7
"""


def test_grad_check_passes(tmp_path):
    cfg = write_cfg(tmp_path, GRADCHECK)
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = read_csv_rows(out / "grad_check.csv")
    assert len(rows) == 8  # 4 nodes x both coefficients
    assert {r["which"] for r in rows} == {"eps", "sigma"}


def test_grad_check_detects_flipped_sign(tmp_path, monkeypatch):
    def flipped(*args, **kwargs):
        g_eps, g_sigma, lambda_norm = gradient_sweep(*args, **kwargs)
        return g_eps.with_values(-g_eps.values), g_sigma.with_values(-g_sigma.values), lambda_norm

    monkeypatch.setattr(waveinv.cli, "gradient_sweep", flipped)
    cfg = write_cfg(tmp_path, GRADCHECK)
    out = tmp_path / "gc_bad"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1


@pytest.mark.parametrize("old, new", [
    ("seed = 7", "seed = 7\nnodes = 1;2"),
    ("seed = 7", "seed = 7\nnodes = 40,40"),
    ("n_nodes = 4", "n_nodes = 1000"),
], ids=["not_a_pair", "off_grid", "more_than_inner"])
def test_grad_check_bad_nodes_exit_2(tmp_path, capsys, old, new):
    cfg = write_cfg(tmp_path, GRADCHECK.replace(old, new))
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "gradcheck" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, output", [
    ("synthesize", BASE, "obs.csv"),
    ("grad-check", GRADCHECK, "grad_check.csv"),
], ids=["synthesize", "grad-check"])
def test_negative_noise_level_exits_2(tmp_path, capsys, command, text, output):
    cfg = write_cfg(tmp_path, re.sub(r"^level = .*$", "level = -1", text, flags=re.M))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / output).exists()


def fail_any_solve(monkeypatch):
    def advance(*args, **kwargs):
        raise AssertionError("a solve ran")
    monkeypatch.setattr(Leapfrog, "advance", advance)


@pytest.mark.parametrize("command, text, old, new, flags", [
    ("synthesize", BASE, "seed = 42", "seed = -1", []),
    ("grad-check", GRADCHECK, "[noise]\n", "[noise]\nseed = -1\n", []),
    ("grad-check", GRADCHECK, "seed = 7", "seed = -3", []),
    ("synthesize", BASE, "seed = 42", "seed = 42", ["--seed", "-2"]),
    ("grad-check", GRADCHECK, "seed = 7", "seed = 7", ["--seed", "-2"]),
], ids=["noise-synthesize", "noise-grad-check", "gradcheck", "flag-synthesize",
        "flag-grad-check"])
def test_negative_seed_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, text, old, new, flags):
    # numpy's generators reject a negative seed; synthesize met it only in
    # add_noise, after the forward solve, and exited 1 with a traceback
    assert text.count(old) == 1
    fail_any_solve(monkeypatch)
    cfg = write_cfg(tmp_path, text.replace(old, new))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet", *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and ".seed" in err and "Traceback" not in err
    assert not (out / "obs.csv").exists() and not (out / "grad_check.csv").exists()


@pytest.mark.parametrize("tol", ["-1", "-inf"])
def test_negative_grad_check_tolerance_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, tol):
    # no probe can pass a negative tolerance, so the check printed FAIL, exit 1
    fail_any_solve(monkeypatch)
    cfg = write_cfg(tmp_path, GRADCHECK + f"tol = {tol}\n")
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "gradcheck.tol" in capsys.readouterr().err
    assert not (out / "grad_check.csv").exists()


@pytest.mark.parametrize("h_fd", ["0", "-1", "-inf"])
def test_non_positive_grad_check_step_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, h_fd):
    # the oracle rejected it only after the observation, forward and adjoint solves
    fail_any_solve(monkeypatch)
    cfg = write_cfg(tmp_path, GRADCHECK + f"h_fd = {h_fd}\n")
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "gradcheck.h_fd" in capsys.readouterr().err
    assert not (out / "grad_check.csv").exists()


@pytest.mark.parametrize("level", ["nan", "inf"])
def test_non_finite_noise_level_exits_2(tmp_path, capsys, level):
    cfg = write_cfg(tmp_path, re.sub(r"^level = .*$", f"level = {level}", BASE, flags=re.M))
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "obs.csv").exists()


def test_infinite_final_time_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("t_final = 0.8", "t_final = inf"))
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "obs.csv").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b, c = tmp_path / "sa", tmp_path / "sb", tmp_path / "sc"
    main(["synthesize", "--config", str(cfg), "--out", str(a), "--quiet"])
    main(["synthesize", "--config", str(cfg), "--out", str(b), "--seed", "7", "--quiet"])
    main(["synthesize", "--config", str(cfg), "--out", str(c), "--seed", "7", "--quiet"])
    assert (a / "obs.csv").read_text() != (b / "obs.csv").read_text()
    assert (b / "obs.csv").read_text() == (c / "obs.csv").read_text()


def test_manifest_reproduces_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "m1"
    main(["synthesize", "--config", str(cfg), "--out", str(out), "--quiet"])
    out2 = tmp_path / "m2"
    assert main(["synthesize", "--config", str(out / "manifest.ini"),
                 "--out", str(out2), "--quiet"]) == 0
    assert (out / "obs.csv").read_text() == (out2 / "obs.csv").read_text()


def test_snapshot_dumps(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("dir = out", "dir = out\ndump_every = 20"))
    out = tmp_path / "dumps"
    assert main(["forward", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    dumps = sorted(out.glob("E_*.vtk"))
    assert dumps and dumps[0].name == "E_0.vtk"

    # the dumps and the trace written from the level stream match the stored stack
    grid, _, _, eps, sigma, src, bc, sides = waveinv.cli._forward_setup(
        load_config(out / "manifest.ini")
    )
    E = stored_state(grid, eps, sigma, src, bc)
    ref = tmp_path / "ref"
    ref.mkdir()
    levels = range(0, grid.nt + 1, 20)
    assert sorted(p.name for p in dumps) == sorted(f"E_{n}.vtk" for n in levels)
    for n in levels:
        write_field_vtk(E[n], grid, ref / f"E_{n}.vtk", name="E")
        assert (out / f"E_{n}.vtk").read_bytes() == (ref / f"E_{n}.vtk").read_bytes()
    write_trace_csv(stack_trace(grid, E, sides), ref / "trace.csv")
    assert (out / "trace.csv").read_bytes() == (ref / "trace.csv").read_bytes()


def test_adjoint_dumps_from_invert(tmp_path):
    code, out = run_synth_then(tmp_path, "invert", max_iters=1)
    cfg2 = (out / "manifest.ini").read_text().replace("dump_every = 0", "dump_every = 25")
    (out / "dump.ini").write_text(cfg2)
    out2 = tmp_path / "ldumps"
    assert main(["invert", "--config", str(out / "dump.ini"), "--out", str(out2), "--quiet"]) == 0
    assert sorted(out2.glob("L_*.vtk"))

    # the dumps written from the backward sweep match the stored multiplier
    # of the final iterate, read back exactly from its 17-digit field files
    problem, _ = waveinv.cli._inversion_problem(load_config(out2 / "manifest.ini"))
    grid = problem.grid
    eps = read_field_csv(out2 / "eps_final.csv", grid, Role.EPSILON)
    sigma = read_field_csv(out2 / "sigma_final.csv", grid, Role.SIGMA)
    sim = forward_trace(grid, eps, sigma, problem.src, problem.bc, problem.obs.sides)
    op = forward_operator(grid, eps, sigma, problem.src, problem.bc)
    lam = stored_adjoint(op, sim - problem.obs)
    levels = range(0, grid.nt + 1, 25)
    assert sorted(p.name for p in out2.glob("L_*.vtk")) == sorted(f"L_{n}.vtk" for n in levels)
    ref = tmp_path / "ref"
    ref.mkdir()
    for n in levels:
        write_field_vtk(lam[n], grid, ref / f"L_{n}.vtk", name="L")
        assert (out2 / f"L_{n}.vtk").read_bytes() == (ref / f"L_{n}.vtk").read_bytes()


def vtk_values(path):
    lines = path.read_text().splitlines()
    return np.array([float(v) for v in lines[lines.index("LOOKUP_TABLE default") + 1:]])


def test_forward_never_dumps_a_non_finite_level(tmp_path, monkeypatch, capsys):
    # level 14 is dumped, and it is neither level of a block's checkpoint
    # pair, so the time loop yields it unchecked
    cfg = write_cfg(tmp_path, BASE.replace("dir = out", "dir = out\ndump_every = 7"))
    step = 14
    nt = make_grid(load_config(cfg)).nt
    assert step % _block(nt) > 1 and step < nt
    real = waveinv.cli.forward_levels

    def blown_up(grid, eps, sigma, src, bc):
        forcing = np.zeros((grid.nt + 1, *grid.node_shape))
        forcing[step - 1, 6, 6] = np.inf  # the update from level step-1 writes level step
        return real(grid, eps, sigma, replace(src, volume_forcing=forcing), bc)

    monkeypatch.setattr(waveinv.cli, "forward_levels", blown_up)
    out = tmp_path / "fwd"
    # the levels up to the next check are stepped unchecked, through inf - inf,
    # and the error line is all that reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert main(["forward", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"numerical failure: non-finite field values at step {step}\n"
    dumps = sorted(out.glob("E_*.vtk"))
    assert [p.name for p in dumps] == ["E_0.vtk", "E_7.vtk"]
    assert all(np.isfinite(vtk_values(p)).all() for p in dumps)


def test_invert_never_dumps_a_non_finite_multiplier(tmp_path, monkeypatch, capsys):
    # adjoint step 14 writes L_{nt-14}, a dump the time loop yields unchecked
    code, out = run_synth_then(tmp_path, "invert", max_iters=1)
    assert code == 0
    cfg2 = (out / "manifest.ini").read_text().replace("dump_every = 0", "dump_every = 7")
    (out / "dump.ini").write_text(cfg2)
    step = 14
    nt = make_grid(load_config(out / "dump.ini")).nt
    assert (nt - step) % 7 == 0 and step % _block(nt) > 1
    real = waveinv.cli.adjoint_levels

    def blown_up(op, residual):
        # the adjoint's data at its step s is -residual(T - s), and the
        # update from level s writes level s+1
        grid = op.grid
        values = residual.values.copy()
        values[grid.nt - step + 1, 2] = np.inf  # node 2 of the first side
        return real(op, BoundaryTrace(grid=grid, sides=residual.sides, values=values))

    monkeypatch.setattr(waveinv.cli, "adjoint_levels", blown_up)
    capsys.readouterr()
    out2 = tmp_path / "ldumps"
    assert main(["invert", "--config", str(out / "dump.ini"), "--out", str(out2), "--quiet"]) == 3
    assert f"non-finite field values at step {step}\n" in capsys.readouterr().err
    dumps = sorted(out2.glob("L_*.vtk"))
    assert sorted(p.name for p in dumps) == sorted(f"L_{n}.vtk" for n in range(nt, nt - step, -7))
    assert all(np.isfinite(vtk_values(p)).all() for p in dumps)


def test_cfl_violation_exits_3(tmp_path, capsys):
    # grid clock assumes a slow medium (eps >= 9) but the truth is fast (eps = 1)
    text = BASE.replace(
        "[truth.eps]\nkind = gaussian", "[truth.eps]\nkind = constant\nvalue = 1.0"
    ) + "\n[admissible]\neps_background = 9.0\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["forward", "--config", str(cfg), "--quiet"]) == 3
    assert "CFL" in capsys.readouterr().err


def test_invert_is_deterministic(tmp_path):
    code, out = run_synth_then(tmp_path, "invert")
    assert code == 0
    out2 = tmp_path / "again"
    assert main(["invert", "--config", str(out / "manifest.ini"),
                 "--out", str(out2), "--quiet"]) == 0
    assert (out / "convergence.csv").read_text() == (out2 / "convergence.csv").read_text()
    assert (out / "eps_final.csv").read_text() == (out2 / "eps_final.csv").read_text()
