"""Output checks, run by run.py after the worker has exited.

A command fails when it exits non-zero or its outputs fail these checks:

* synthesize: obs.csv, read back, equals the library's own
  ``add_noise(extract_trace(solve_forward(...)))`` for that noise seed to
  within 17-digit round-off, in the documented row order;
* invert / invert-adaptive: convergence.csv (and levels.csv) carry the
  documented header and the expected row count, the last row has lower F
  and e_eps_l2 than row 0, and every repetition of the command gives the
  same last row.

Each check also returns the workload's answer metrics (final_F, e_eps_l2,
e_sigma_l2).  synthesize runs no inversion, so there they are row 0 of the
convergence.csv that the program's own ``invert``, run untimed with
``cga.max_iters = 1`` on the first command's manifest and obs.csv, writes:
the functional and the coefficient errors at the preset's initial guess.
"""

from __future__ import annotations

import configparser
import csv
from pathlib import Path

import numpy as np

# The documented output headers (README "Command line").
CONVERGENCE_HEADER = (
    "m,F,e_eps_l2,e_eps_sup,e_sigma_l2,e_sigma_sup,e_E_l2,e_E_sup,"
    "g_eps_norm,g_sigma_norm,lambda_norm,gamma_eps,gamma_sigma,alpha_eps,alpha_sigma"
).split(",")
LEVELS_HEADER = "level,nno,g_eps_norm_per_node,g_sigma_norm_per_node,max_eps,max_sigma,M_k".split(",")
TRACE_HEADER = ["t", "side", "index", "value"]
# 17 significant digits round to within 5e-16 relative
ROUNDOFF = 5e-16


class CheckFailed(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _read_csv(path: Path, header: list[str]) -> list[dict[str, float]]:
    _require(path.exists(), f"{path} missing")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and rows[0] == header, f"{path}: header {rows[:1]}")
    _require(all(len(r) == len(header) for r in rows[1:]), f"{path}: short or long row")
    return [dict(zip(header, map(float, r))) for r in rows[1:]]


def _answer(row: dict[str, float]) -> dict[str, float]:
    return {"final_F": row["F"], "e_eps_l2": row["e_eps_l2"], "e_sigma_l2": row["e_sigma_l2"]}


def _check_convergence(path: Path, expected_rows: int) -> dict[str, float]:
    rows = _read_csv(path, CONVERGENCE_HEADER)
    _require(len(rows) == expected_rows, f"{path}: {len(rows)} rows, expected {expected_rows}")
    first, last = rows[0], rows[-1]
    _require(last["F"] < first["F"], f"{path}: F did not decrease")
    _require(last["e_eps_l2"] < first["e_eps_l2"], f"{path}: e_eps_l2 did not decrease")
    return last


class InversionCheck:
    def __init__(self, ini: Path, adaptive: bool):
        from waveinv.config import load_config

        cfg = load_config(ini)
        self.adaptive = adaptive
        self.iters = cfg.get("cga", "max_iters")
        self.n_levels = cfg.get("acga", "n_max") + 1
        self.reference: dict[str, float] | None = None

    def __call__(self, out: Path, ini: Path) -> dict[str, float]:
        if self.adaptive:
            levels = _read_csv(out / "levels.csv", LEVELS_HEADER)
            _require(len(levels) == self.n_levels,
                     f"levels.csv: {len(levels)} rows, expected {self.n_levels}")
            for k in range(self.n_levels):
                last = _check_convergence(out / f"level_{k}" / "convergence.csv", self.iters)
        else:
            last = _check_convergence(out / "convergence.csv", self.iters)
        if self.reference is None:
            self.reference = last
        _require(last == self.reference, "last row differs between repetitions")
        return _answer(last)


class SynthesizeCheck:
    """Recomputes the clean trace once and the noise per seed."""

    def __init__(self, ini: Path):
        from waveinv import config as cfgmod
        from waveinv.fields import Role, extract_trace
        from waveinv.forward import solve_forward

        cfg = cfgmod.load_config(ini)
        grid = cfgmod.make_grid(cfg)
        self.grid = grid
        self.sides = cfgmod.observation_sides(cfg)
        eps = cfgmod.make_coefficient(cfg, "truth.eps", grid, Role.EPSILON)
        sigma = cfgmod.make_coefficient(cfg, "truth.sigma", grid, Role.SIGMA)
        field = solve_forward(grid, eps, sigma, cfgmod.make_source(cfg), cfgmod.make_bc(cfg))
        self.clean = extract_trace(field, self.sides)
        self.layout = self._layout()
        self.answer: dict[str, float] | None = None

    def _layout(self) -> np.ndarray:
        """t, side, index columns in the documented order: time level, then
        side number, then node index."""
        times = self.grid.times()
        per_level = [(int(s), k) for s in self.sides for k in range(self.clean.data[s].shape[1])]
        side_idx = np.array(per_level, dtype=float)
        n_per = len(per_level)
        return np.column_stack([
            np.repeat(times, n_per),
            np.tile(side_idx[:, 0], len(times)),
            np.tile(side_idx[:, 1], len(times)),
        ])

    def __call__(self, out: Path, ini: Path) -> dict[str, float]:
        from waveinv.config import load_config, noise_model
        from waveinv.fields import add_noise

        cfg = load_config(ini)
        noisy = add_noise(self.clean, noise_model(cfg), cfg.get("noise", "level"),
                          cfg.get("noise", "seed"))
        path = out / "obs.csv"
        _require(path.exists(), f"{path} missing")
        with open(path) as fh:
            _require(fh.readline().strip().split(",") == TRACE_HEADER, f"{path}: header")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        expected = np.concatenate([noisy.data[s] for s in self.sides], axis=1).ravel()
        _require(table.shape == (expected.size, 4), f"{path}: shape {table.shape}")
        _require(np.array_equal(table[:, :3], self.layout), f"{path}: row order or times")
        err = np.abs(table[:, 3] - expected)
        _require(bool(np.all(err <= ROUNDOFF * np.abs(expected))), f"{path}: values differ")
        if self.answer is None:
            self.answer = _answer(_initial_row(out))
        return self.answer


def _initial_row(out: Path) -> dict[str, float]:
    """Row 0 of convergence.csv from the program's own ``invert`` on a
    synthesize output, run for one iteration from the manifest it wrote:
    the functional and the coefficient errors at the initial guess."""
    from waveinv.cli import main

    parser = configparser.ConfigParser(interpolation=None)
    parser.read(out / "manifest.ini")
    parser.set("cga", "max_iters", "1")
    parser.set("observation", "file", str((out / "obs.csv").resolve()))
    dest = out / "initial"
    dest.mkdir(exist_ok=True)
    with open(dest / "invert.ini", "w") as fh:
        parser.write(fh)
    code = main(["invert", "--config", str(dest / "invert.ini"), "--out", str(dest), "--quiet"])
    _require(code == 0, f"invert for one iteration exited with {code}")
    rows = _read_csv(dest / "convergence.csv", CONVERGENCE_HEADER)
    _require(len(rows) == 1 and rows[0]["m"] == 0, f"{dest / 'convergence.csv'}: not one row m = 0")
    return rows[0]


def make_check(command: str, ini: Path):
    """The check for a CLI command's outputs, called as check(out_dir, ini)."""
    if command == "synthesize":
        return SynthesizeCheck(ini)
    return InversionCheck(ini, adaptive=command == "invert-adaptive")
