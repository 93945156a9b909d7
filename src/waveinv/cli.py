"""Command-line entry points.

    waveinv forward         --config run.ini [--out DIR] [--quiet]
    waveinv synthesize      --config run.ini [--out DIR] [--seed N] [--quiet]
    waveinv invert          --config run.ini [--out DIR] [--quiet]
    waveinv invert-adaptive --config run.ini [--out DIR] [--quiet]
    waveinv grad-check      --config run.ini [--out DIR] [--seed N] [--quiet]

Exit codes: 0 success, 1 check failure, 2 config/input error, 3 numerical
failure.  Every command writes a manifest.ini with all defaults
materialized next to its outputs; re-running from the manifest reproduces
them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .adjoint import adjoint_levels
from .config import ConfigError, RunConfig, load_config, write_manifest
from .fields import Role, add_noise, extract_trace, project
from .forward import StabilityError, forward_levels, forward_trace, solve_forward, trace_of_levels
from .gradient import fd_gradient_oracle, gradient_sweep
from .grid import region_mask
from .io import (
    read_trace_csv,
    write_convergence_csv,
    write_field_csv,
    write_field_vtk,
    write_gradcheck_csv,
    write_levels_csv,
    write_trace_csv,
)
from .optimizer import InverseProblem, run_acga, run_cga

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else cfg.resolve_path(cfg.get("output", "dir"))
    out.mkdir(parents=True, exist_ok=True)
    cfg.set("output", "dir", str(out.resolve()))
    return out


def _forward_setup(cfg: RunConfig):
    grid = cfgmod.make_grid(cfg)
    adm = cfgmod.make_admissible(cfg)
    try:
        mask = region_mask(grid, cfg.get("grid", "frame_width"))
    except ValueError as exc:
        raise ConfigError(f"key grid.frame_width: {exc}") from exc
    eps = cfgmod.make_coefficient(cfg, "truth.eps", grid, Role.EPSILON)
    sigma = cfgmod.make_coefficient(cfg, "truth.sigma", grid, Role.SIGMA)
    src = cfgmod.make_source(cfg)
    bc = cfgmod.make_bc(cfg)
    sides = cfgmod.observation_sides(cfg)
    return grid, adm, mask, eps, sigma, src, bc, sides


def _observed(cfg: RunConfig, grid, eps, sigma, src, bc, sides):
    """The boundary trace on sides with the configured noise added; the
    noise settings are checked before the forward solve."""
    model, level = cfgmod.noise_model(cfg), cfg.get("noise", "level")
    if not 0.0 <= level < np.inf:
        raise ConfigError(f"key noise.level: must be finite and >= 0, got {level!r}")
    seed = cfgmod.rng_seed(cfg, "noise")
    trace = forward_trace(grid, eps, sigma, src, bc, sides)
    return add_noise(trace, model, level, seed)


def _dumped(cfg: RunConfig, grid, numbered, out: Path, prefix: str = "E"):
    """Pass the PaddedLevels of (n, level) pairs through, writing those with n
    a multiple of dump_every to <prefix>_<n>.vtk on the way.  A time loop
    checks only some levels before it yields them, so each level is checked
    here before it is written; a non-finite one is not written, and the
    rest of the stream runs until the loop's own check names the first
    non-finite step."""
    every = cfg.get("output", "dump_every")
    for n, level in numbered:
        if every > 0 and n % every == 0:
            if not np.isfinite(level.nodes).all():
                for _ in numbered:
                    pass
                raise StabilityError(f"non-finite field values in {prefix}_{n}")
            write_field_vtk(level.nodes, grid, out / f"{prefix}_{n}.vtk", name=prefix)
        yield level


def cmd_forward(cfg: RunConfig, out: Path, quiet: bool) -> int:
    grid, _, _, eps, sigma, src, bc, sides = _forward_setup(cfg)
    levels = _dumped(cfg, grid, enumerate(forward_levels(grid, eps, sigma, src, bc)), out)
    write_trace_csv(trace_of_levels(grid, levels, sides), out / "trace.csv")
    write_manifest(cfg, out / "manifest.ini")
    _say(quiet, f"wrote {out / 'trace.csv'} ({grid.nt + 1} time levels)")
    return EXIT_OK


def cmd_synthesize(cfg: RunConfig, out: Path, quiet: bool) -> int:
    grid, _, _, eps, sigma, src, bc, sides = _forward_setup(cfg)
    write_trace_csv(_observed(cfg, grid, eps, sigma, src, bc, sides), out / "obs.csv")
    # pin the observation path so inversions can run straight off the manifest
    cfg.set("observation", "file", str((out / "obs.csv").resolve()))
    write_manifest(cfg, out / "manifest.ini")
    _say(
        quiet,
        f"wrote {out / 'obs.csv'} (model={cfg.get('noise', 'model')}, "
        f"level={cfg.get('noise', 'level')}, seed={cfg.get('noise', 'seed')})",
    )
    return EXIT_OK


def _inversion_problem(cfg: RunConfig) -> tuple[InverseProblem, object]:
    grid, adm, mask, eps_t, sigma_t, src, bc, sides = _forward_setup(cfg)
    obs_path = cfg.get("observation", "file")
    if not obs_path:
        raise ConfigError("key observation.file: required for inversion commands")
    try:
        obs = read_trace_csv(cfg.resolve_path(obs_path), grid)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"observation.file: {exc}") from exc
    if obs.sides != sides:
        raise ConfigError(
            f"observation.file sides {tuple(int(s) for s in obs.sides)} do not match "
            f"observation.sides {tuple(int(s) for s in sides)}"
        )
    eps_init = cfgmod.make_coefficient(cfg, "initial.eps", grid, Role.EPSILON)
    sigma_init = cfgmod.make_coefficient(cfg, "initial.sigma", grid, Role.SIGMA)
    have_truth = "truth.eps" in cfg.declared and "truth.sigma" in cfg.declared
    reg = cfgmod.make_regularization(cfg, eps_init, sigma_init)
    problem = cfgmod.make_inverse_problem(
        cfg, grid=grid, mask=mask, adm=adm, src=src, bc=bc, obs=obs, reg=reg,
        eps_init=eps_init, sigma_init=sigma_init,
        eps_true=eps_t if have_truth else None,
        sigma_true=sigma_t if have_truth else None,
    )
    return problem, cfgmod.make_tolerances(cfg)


def _write_reconstruction(result, out: Path) -> None:
    grid = result.eps.grid
    write_field_vtk(result.eps, grid, out / "eps_final.vtk", name="eps")
    write_field_csv(result.eps, grid, out / "eps_final.csv")
    write_field_vtk(result.sigma, grid, out / "sigma_final.vtk", name="sigma")
    write_field_csv(result.sigma, grid, out / "sigma_final.csv")
    write_convergence_csv(result.log, out / "convergence.csv")


def cmd_invert(cfg: RunConfig, out: Path, quiet: bool) -> int:
    problem, tols = _inversion_problem(cfg)
    result = run_cga(problem, tols)
    _write_reconstruction(result, out)
    if cfg.get("output", "dump_every") > 0:
        # adjoint levels of the final iterate, L_<step>.vtk, from the backward sweep
        grid = problem.grid
        E = solve_forward(grid, result.eps, result.sigma, problem.src, problem.bc)
        lam_backward = adjoint_levels(E.op, E.take_trace(problem.obs.sides) - problem.obs)
        for _ in _dumped(cfg, grid, zip(range(grid.nt, -1, -1), lam_backward), out, "L"):
            pass
    write_manifest(cfg, out / "manifest.ini")
    _say(
        quiet,
        f"{len(result.log)} iterations (stop: {result.stop_reason}), "
        f"final F = {result.final_F:.6e}",
    )
    return EXIT_OK


def cmd_invert_adaptive(cfg: RunConfig, out: Path, quiet: bool) -> int:
    problem, tols = _inversion_problem(cfg)
    controls = cfgmod.make_acga_controls(cfg)

    def truth_builder(grid):
        return (
            cfgmod.make_coefficient(cfg, "truth.eps", grid, Role.EPSILON),
            cfgmod.make_coefficient(cfg, "truth.sigma", grid, Role.SIGMA),
        )

    def prior_builder(grid):
        return (
            cfgmod.make_coefficient(cfg, "initial.eps", grid, Role.EPSILON),
            cfgmod.make_coefficient(cfg, "initial.sigma", grid, Role.SIGMA),
        )

    have_truth = problem.eps_true is not None
    result = run_acga(
        problem, tols, controls,
        truth_builder if have_truth else None,
        prior_builder,
    )
    for k, level_result in enumerate(result.level_results):
        level_dir = out / f"level_{k}"
        level_dir.mkdir(exist_ok=True)
        _write_reconstruction(level_result, level_dir)
    write_levels_csv(result.levels, out / "levels.csv")
    write_manifest(cfg, out / "manifest.ini")
    _say(quiet, f"{len(result.level_results)} levels (stop: {result.stop_reason})")
    return EXIT_OK


def cmd_grad_check(cfg: RunConfig, out: Path, quiet: bool) -> int:
    tol = cfg.get("gradcheck", "tol")
    if not tol >= 0.0:
        raise ConfigError(f"key gradcheck.tol: must be >= 0, got {tol!r}")
    h_fd = cfg.get("gradcheck", "h_fd")
    if not h_fd > 0.0:
        raise ConfigError(f"key gradcheck.h_fd: must be > 0, got {h_fd!r}")
    grid, adm, mask, eps_t, sigma_t, src, bc, sides = _forward_setup(cfg)
    nodes = cfgmod.gradcheck_nodes(cfg, mask)
    obs = _observed(cfg, grid, eps_t, sigma_t, src, bc, sides)
    eps_e = project(cfgmod.make_coefficient(cfg, "eval.eps", grid, Role.EPSILON), adm, mask)
    sigma_e = project(cfgmod.make_coefficient(cfg, "eval.sigma", grid, Role.SIGMA), adm, mask)
    reg = cfgmod.make_regularization(cfg, eps_e, sigma_e)
    gamma_eps = gamma_sigma = 0.0  # oracle comparison runs on the pure data term

    E = solve_forward(grid, eps_e, sigma_e, src, bc)
    lam_backward = adjoint_levels(E.op, extract_trace(E, sides) - obs)
    g_eps, g_sigma, _ = gradient_sweep(E, lam_backward, reg, gamma_eps, gamma_sigma, mask)

    try:
        samples = fd_gradient_oracle(
            eps_e, sigma_e, obs, reg, gamma_eps, gamma_sigma, nodes,
            h_fd, src, bc, mask, adm,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    max_fd = {
        role: max((abs(s.value) for s in samples if s.role is role), default=0.0)
        for role in (Role.EPSILON, Role.SIGMA)
    }
    rows = []
    all_pass = True
    for s in samples:
        adj = (g_eps if s.role is Role.EPSILON else g_sigma).values[s.node]
        if mask.frame[s.node]:
            rel = 0.0
        else:
            rel = abs(adj - s.value) / max(abs(s.value), 1e-12)
        rows.append((s, float(adj), rel))
        qualifies = abs(s.value) >= 1e-3 * max_fd[s.role]
        if qualifies and rel > tol:
            all_pass = False
    write_gradcheck_csv(rows, grid, out / "grad_check.csv")
    write_manifest(cfg, out / "manifest.ini")
    worst = max(r[2] for r in rows) if rows else 0.0
    _say(quiet, f"{len(rows)} probes, worst rel err {worst:.3e}, tol {tol:g}: "
                f"{'PASS' if all_pass else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


COMMANDS = {
    "forward": cmd_forward,
    "synthesize": cmd_synthesize,
    "invert": cmd_invert,
    "invert-adaptive": cmd_invert_adaptive,
    "grad-check": cmd_grad_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveinv",
        description="Permittivity/conductivity reconstruction from boundary wave data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration (INI)")
        p.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, default=None, help="override noise/sampling seeds")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.set("noise", "seed", args.seed)
            cfg.set("gradcheck", "seed", args.seed)
        out = _outdir(cfg, args.out)
        # a time loop's own check reports a blow-up; numpy's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](cfg, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
