"""INI run configuration: parsing, validation, object builders and the
effective-config manifest.

Sections and keys are declared in SCHEMA; every value read passes through
it, unknown keys are rejected, and the manifest writer materializes all
defaults so a run can be reproduced from the manifest alone.
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path

import numpy as np

from .fields import (
    AdmissibleSet,
    CoefficientField,
    NoiseModel,
    Role,
    bump_perturbed,
    constant_coefficient,
    gaussian_coefficient,
)
from .forward import BcConfig, BcKind, SourceSpec
from .grid import ALL_SIDES, Grid2D, RegionMask, Side, build_grid
from .objective import RegularizationParams
from .optimizer import AcgaControls, InverseProblem, StoppingTolerances


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_REQUIRED = object()


def _coefficient_section(kind: str, scale: float | None = None, **defaults) -> dict[str, tuple]:
    """Keys of one [truth.*], [initial.*] or [eval.*] section.  Only the
    sections that may perturb a truth field carry a scale key."""
    values = {"value": 1.0, "base": 1.0, "amp": 0.0, "center": "0.5, 0.5", "width": 0.01}
    values.update(defaults)
    if scale is not None:
        values["scale"] = scale
    values["path"] = ""
    return {"kind": (str, kind)} | {key: (type(v), v) for key, v in values.items()}


SCHEMA: dict[str, dict[str, tuple]] = {
    "grid": {
        "nx": (int, _REQUIRED),
        "ny": (int, None),  # defaults to nx
        "t_final": (float, 1.2),
        "cfl_safety": (float, 0.5),
        "frame_width": (int, 0),
    },
    "admissible": {
        "eps_background": (float, 1.0),
        "eps_max": (float, 10.0),
        "sigma_background": (float, 1.0),
        "sigma_min": (float, 1.0),
        "sigma_max": (float, 10.0),
    },
    "truth.eps": _coefficient_section("gaussian", amp=3.0, center="0.5, 0.7", width=0.002),
    "truth.sigma": _coefficient_section("gaussian", amp=1.5, center="0.5, 0.7", width=0.002),
    "initial.eps": _coefficient_section("constant", scale=20.0),
    "initial.sigma": _coefficient_section("constant", scale=20.0),
    "eval.eps": _coefficient_section("constant", scale=20.0, value=2.0),
    "eval.sigma": _coefficient_section("constant", scale=20.0, value=2.0),
    "source": {
        "omega": (float, 20.0),
        "amplitude": (float, 1.0),
        "side": (int, 1),
        "t_on": (str, "auto"),
    },
    "bc": {
        "side1": (str, "source_then_absorbing"),
        "side2": (str, "neumann_zero"),
        "side3": (str, "absorbing"),
        "side4": (str, "neumann_zero"),
    },
    "observation": {
        "sides": (str, "1, 2, 3, 4"),
        "file": (str, ""),
    },
    "noise": {
        "model": (str, "relative_gaussian"),
        "level": (float, 0.1),
        "seed": (int, 42),
    },
    "cga": {
        "max_iters": (int, 100),
        "gamma_eps0": (float, 0.01),
        "gamma_sigma0": (float, 0.01),
        "p": (float, 0.5),
        "alpha_max": (float, 1.0),
        "beta_max": (float, 10.0),
        "eta1_eps": (float, 1e-8),
        "eta1_sigma": (float, 1e-8),
        "eta2_eps": (float, 1e-8),
        "eta2_sigma": (float, 1e-8),
    },
    "acga": {
        "n_max": (int, 1),
        "beta_eps": (float, 0.8),
        "beta_sigma": (float, 0.8),
        "mode": (str, "deviation"),
        "theta1_eps": (float, 1e-8),
        "theta1_sigma": (float, 1e-8),
        "theta2_eps": (float, 1e-8),
        "theta2_sigma": (float, 1e-8),
    },
    "gradcheck": {
        "n_nodes": (int, 8),
        "nodes": (str, ""),
        "h_fd": (float, 1e-3),
        "seed": (int, 7),
        "tol": (float, 5e-2),
    },
    "output": {
        "dir": (str, "out"),
        "dump_every": (int, 0),
    },
}


@dataclasses.dataclass
class RunConfig:
    """Typed view over a parsed INI file with schema-checked access.

    declared records which sections the file spelled out, letting commands
    distinguish configured sections from pure defaults (e.g. whether exact
    coefficients are available for error reporting).
    """

    values: dict[str, dict[str, object]]
    base_dir: Path
    declared: frozenset[str] = frozenset()

    def get(self, section: str, key: str):
        return self.values[section][key]

    def resolve_path(self, p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else self.base_dir / path

    def set(self, section: str, key: str, value) -> None:
        self.values[section][key] = value


def _convert(section: str, key: str, raw, typ) -> object:
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key {section}.{key}: cannot parse {raw!r} as {typ.__name__}") from exc
    if value != value:  # NaN passes every range check
        raise ConfigError(f"key {section}.{key}: must be a number, got {raw!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (typ, default) in keys.items():
            if parser.has_option(section, key):
                values[section][key] = _convert(section, key, parser.get(section, key), typ)
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                values[section][key] = default
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    if values["grid"]["ny"] is None:
        values["grid"]["ny"] = values["grid"]["nx"]
    return RunConfig(values, path.resolve().parent, frozenset(parser.sections()))


def write_manifest(cfg: RunConfig, path: str | Path) -> None:
    """Write the fully materialized configuration (defaults included)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in SCHEMA:
        parser.add_section(section)
        for key in SCHEMA[section]:
            value = cfg.values[section][key]
            parser.set(section, key, repr(value) if isinstance(value, float) else str(value))
    with open(path, "w") as fh:
        parser.write(fh)


def _parse_pair(section: str, key: str, raw: str, typ=float) -> tuple:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"key {section}.{key}: expected two comma-separated values, got {raw!r}")
    return tuple(_convert(section, key, p.strip(), typ) for p in parts)


def make_grid(cfg: RunConfig) -> Grid2D:
    adm = cfg.get("admissible", "eps_background")
    try:
        return build_grid(
            nx=cfg.get("grid", "nx"),
            ny=cfg.get("grid", "ny"),
            T=cfg.get("grid", "t_final"),
            cfl_safety=cfg.get("grid", "cfl_safety"),
            eps_min=adm,
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _build(cls, cfg: RunConfig, section: str, **extra):
    """Construct dataclass cls from the keys of section that share a field
    name, plus extra; a ValueError from cls becomes a ConfigError naming the
    section."""
    values = cfg.values[section]
    kwargs = {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}
    try:
        return cls(**(kwargs | extra))
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def make_admissible(cfg: RunConfig) -> AdmissibleSet:
    return _build(AdmissibleSet, cfg, "admissible")


def make_coefficient(
    cfg: RunConfig, section: str, grid: Grid2D, role: Role
) -> CoefficientField:
    """Build a coefficient field from a [truth.*], [initial.*] or [eval.*]
    section; kind perturbed_truth adds the boundary-flat polynomial bump to
    the corresponding truth field.  A builder's ValueError (a non-finite
    value, a width <= 0) becomes a ConfigError naming the section."""
    kind = cfg.get(section, "kind")
    try:
        if kind == "constant":
            return constant_coefficient(grid, cfg.get(section, "value"), role)
        if kind == "gaussian":
            center = _parse_pair(section, "center", cfg.get(section, "center"))
            return gaussian_coefficient(
                grid,
                base=cfg.get(section, "base"),
                amp=cfg.get(section, "amp"),
                center=center,
                width=cfg.get(section, "width"),
                role=role,
            )
        if kind == "perturbed_truth":
            if section.startswith("truth."):
                raise ConfigError(f"key {section}.kind: perturbed_truth needs a truth to perturb")
            truth_section = "truth.eps" if role is Role.EPSILON else "truth.sigma"
            truth = make_coefficient(cfg, truth_section, grid, role)
            return bump_perturbed(truth, cfg.get(section, "scale"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    if kind == "file":
        from .io import read_field_csv

        p = cfg.get(section, "path")
        if not p:
            raise ConfigError(f"key {section}.path: required for kind = file")
        try:
            return read_field_csv(cfg.resolve_path(p), grid, role)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    raise ConfigError(f"key {section}.kind: unknown builder {kind!r}")


def make_source(cfg: RunConfig) -> SourceSpec:
    """The source of [source]; source.side must name the side that [bc]
    sets to source_then_absorbing, which is where the pulse acts."""
    side = _convert("source", "side", cfg.get("source", "side"), Side)
    switched = [s for s, k in make_bc(cfg).sides.items() if k is BcKind.SOURCE_THEN_ABSORBING]
    if switched and side not in switched:
        raise ConfigError(f"key source.side: the source acts on side {int(switched[0])}, "
                          f"which bc sets to source_then_absorbing, not on side {int(side)}")
    t_on = cfg.get("source", "t_on")
    return _build(
        SourceSpec, cfg, "source",
        t_on=None if t_on.strip().lower() == "auto" else _convert("source", "t_on", t_on, float),
    )


def make_bc(cfg: RunConfig) -> BcConfig:
    sides = {side: cfg.get("bc", f"side{int(side)}") for side in ALL_SIDES}
    return _build(BcConfig, cfg, "bc", sides=sides)  # BcConfig parses the kinds


def observation_sides(cfg: RunConfig) -> tuple[Side, ...]:
    raw = cfg.get("observation", "sides")
    try:
        sides = tuple(sorted({Side(int(p.strip())) for p in raw.split(",") if p.strip()}))
    except ValueError as exc:
        raise ConfigError(f"key observation.sides: cannot parse {raw!r}") from exc
    if not sides:
        raise ConfigError("key observation.sides: at least one side required")
    return sides


def noise_model(cfg: RunConfig) -> NoiseModel:
    return _convert("noise", "model", cfg.get("noise", "model"), NoiseModel)


def rng_seed(cfg: RunConfig, section: str) -> int:
    """The seed key of a section; numpy's generators take none below 0."""
    seed = cfg.get(section, "seed")
    if seed < 0:
        raise ConfigError(f"key {section}.seed: must be >= 0, got {seed}")
    return seed


def gradcheck_nodes(cfg: RunConfig, mask: RegionMask) -> list[tuple[int, int]]:
    """Probe nodes of the gradient check: the grid nodes listed in
    gradcheck.nodes as "i,j; i,j", or else gradcheck.n_nodes distinct INNER
    nodes drawn with gradcheck.seed (checked in either case)."""
    seed = rng_seed(cfg, "gradcheck")
    raw = cfg.get("gradcheck", "nodes").strip()
    grid = mask.grid
    if raw:
        nodes = [_parse_pair("gradcheck", "nodes", chunk, int) for chunk in raw.split(";")]
        for i, j in nodes:
            if not (0 <= i <= grid.nx and 0 <= j <= grid.ny):
                raise ConfigError(f"key gradcheck.nodes: ({i}, {j}) is not a node of the "
                                  f"{grid.nx}x{grid.ny} grid")
        return nodes
    inner = np.argwhere(mask.inner)
    n_nodes = cfg.get("gradcheck", "n_nodes")
    if not 0 <= n_nodes <= len(inner):
        raise ConfigError(f"key gradcheck.n_nodes: must lie in [0, {len(inner)}], "
                          f"the number of inner nodes")
    picks = np.random.default_rng(seed).choice(
        len(inner), size=n_nodes, replace=False
    )
    return [tuple(int(v) for v in inner[k]) for k in picks]


def make_tolerances(cfg: RunConfig) -> StoppingTolerances:
    return _build(StoppingTolerances, cfg, "cga", m_max=cfg.get("cga", "max_iters"))


def make_acga_controls(cfg: RunConfig) -> AcgaControls:
    return _build(AcgaControls, cfg, "acga")


def make_inverse_problem(cfg: RunConfig, **parts) -> InverseProblem:
    return _build(InverseProblem, cfg, "cga", **parts)


def make_regularization(
    cfg: RunConfig, eps_prior: CoefficientField, sigma_prior: CoefficientField
) -> RegularizationParams:
    return _build(RegularizationParams, cfg, "cga", eps_prior=eps_prior, sigma_prior=sigma_prior)
