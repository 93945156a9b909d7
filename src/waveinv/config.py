"""INI run configuration: parsing, validation, object builders and the
effective-config manifest.

Sections and keys are declared in SCHEMA; every value read passes through
it, unknown keys are rejected, and the manifest writer materializes all
defaults so a run can be reproduced from the manifest alone.
"""

from __future__ import annotations

import configparser
from pathlib import Path

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
from .grid import ALL_SIDES, Grid2D, Side, build_grid
from .objective import RegularizationParams
from .optimizer import AcgaControls, StoppingTolerances


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_REQUIRED = object()

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
    "truth.eps": {
        "kind": (str, "gaussian"),
        "value": (float, 1.0),
        "base": (float, 1.0),
        "amp": (float, 3.0),
        "center": (str, "0.5, 0.7"),
        "width": (float, 0.002),
        "path": (str, ""),
    },
    "truth.sigma": {
        "kind": (str, "gaussian"),
        "value": (float, 1.0),
        "base": (float, 1.0),
        "amp": (float, 1.5),
        "center": (str, "0.5, 0.7"),
        "width": (float, 0.002),
        "path": (str, ""),
    },
    "initial.eps": {
        "kind": (str, "constant"),
        "value": (float, 1.0),
        "base": (float, 1.0),
        "amp": (float, 0.0),
        "center": (str, "0.5, 0.5"),
        "width": (float, 0.01),
        "scale": (float, 20.0),
        "path": (str, ""),
    },
    "initial.sigma": {
        "kind": (str, "constant"),
        "value": (float, 1.0),
        "base": (float, 1.0),
        "amp": (float, 0.0),
        "center": (str, "0.5, 0.5"),
        "width": (float, 0.01),
        "scale": (float, 20.0),
        "path": (str, ""),
    },
    "eval.eps": {
        "kind": (str, "constant"),
        "value": (float, 2.0),
        "base": (float, 1.0),
        "amp": (float, 0.0),
        "center": (str, "0.5, 0.5"),
        "width": (float, 0.01),
        "scale": (float, 20.0),
        "path": (str, ""),
    },
    "eval.sigma": {
        "kind": (str, "constant"),
        "value": (float, 2.0),
        "base": (float, 1.0),
        "amp": (float, 0.0),
        "center": (str, "0.5, 0.5"),
        "width": (float, 0.01),
        "scale": (float, 20.0),
        "path": (str, ""),
    },
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


class RunConfig:
    """Typed view over a parsed INI file with schema-checked access.

    declared records which sections the file spelled out, letting commands
    distinguish configured sections from pure defaults (e.g. whether exact
    coefficients are available for error reporting).
    """

    def __init__(
        self,
        values: dict[str, dict[str, object]],
        base_dir: Path,
        declared: frozenset[str] = frozenset(),
    ):
        self.values = values
        self.base_dir = base_dir
        self.declared = declared

    def get(self, section: str, key: str):
        return self.values[section][key]

    def resolve_path(self, p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else self.base_dir / path

    def set(self, section: str, key: str, value) -> None:
        self.values[section][key] = value


def _convert(section: str, key: str, raw: str, typ) -> object:
    try:
        if typ is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key {section}.{key}: cannot parse {raw!r} as {typ.__name__}") from exc


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


def _parse_pair(section: str, key: str, raw: str) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"key {section}.{key}: expected two comma-separated values")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"key {section}.{key}: cannot parse {raw!r}") from exc


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


def make_admissible(cfg: RunConfig) -> AdmissibleSet:
    try:
        return AdmissibleSet(
            eps_background=cfg.get("admissible", "eps_background"),
            eps_max=cfg.get("admissible", "eps_max"),
            sigma_background=cfg.get("admissible", "sigma_background"),
            sigma_min=cfg.get("admissible", "sigma_min"),
            sigma_max=cfg.get("admissible", "sigma_max"),
        )
    except ValueError as exc:
        raise ConfigError(f"admissible: {exc}") from exc


def make_coefficient(
    cfg: RunConfig, section: str, grid: Grid2D, role: Role
) -> CoefficientField:
    """Build a coefficient field from a [truth.*], [initial.*] or [eval.*]
    section; kind perturbed_truth adds the boundary-flat polynomial bump to
    the corresponding truth field."""
    kind = cfg.get(section, "kind")
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
        truth_section = "truth.eps" if role is Role.EPSILON else "truth.sigma"
        truth = make_coefficient(cfg, truth_section, grid, role)
        return bump_perturbed(truth, cfg.get(section, "scale"))
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
    t_on_raw = cfg.get("source", "t_on")
    t_on = None if t_on_raw.strip().lower() == "auto" else float(t_on_raw)
    try:
        side = Side(cfg.get("source", "side"))
    except ValueError as exc:
        raise ConfigError(f"key source.side: must be 1..4") from exc
    return SourceSpec(
        omega=cfg.get("source", "omega"),
        amplitude=cfg.get("source", "amplitude"),
        side=side,
        t_on=t_on,
    )


def make_bc(cfg: RunConfig) -> BcConfig:
    sides = {}
    for side in ALL_SIDES:
        raw = cfg.get("bc", f"side{int(side)}")
        try:
            sides[side] = BcKind(raw)
        except ValueError as exc:
            raise ConfigError(f"key bc.side{int(side)}: unknown condition {raw!r}") from exc
    try:
        return BcConfig(sides=sides)
    except ValueError as exc:
        raise ConfigError(f"bc: {exc}") from exc


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
    raw = cfg.get("noise", "model")
    try:
        return NoiseModel(raw)
    except ValueError as exc:
        raise ConfigError(f"key noise.model: unknown model {raw!r}") from exc


def make_tolerances(cfg: RunConfig) -> StoppingTolerances:
    return StoppingTolerances(
        eta1_eps=cfg.get("cga", "eta1_eps"),
        eta1_sigma=cfg.get("cga", "eta1_sigma"),
        eta2_eps=cfg.get("cga", "eta2_eps"),
        eta2_sigma=cfg.get("cga", "eta2_sigma"),
        m_max=cfg.get("cga", "max_iters"),
    )


def make_acga_controls(cfg: RunConfig) -> AcgaControls:
    mode = cfg.get("acga", "mode")
    if mode not in ("absolute", "deviation"):
        raise ConfigError(f"key acga.mode: must be absolute or deviation, got {mode!r}")
    return AcgaControls(
        n_max=cfg.get("acga", "n_max"),
        beta_eps=cfg.get("acga", "beta_eps"),
        beta_sigma=cfg.get("acga", "beta_sigma"),
        mode=mode,
        theta1_eps=cfg.get("acga", "theta1_eps"),
        theta1_sigma=cfg.get("acga", "theta1_sigma"),
        theta2_eps=cfg.get("acga", "theta2_eps"),
        theta2_sigma=cfg.get("acga", "theta2_sigma"),
    )


def make_regularization(
    cfg: RunConfig, eps_prior: CoefficientField, sigma_prior: CoefficientField
) -> RegularizationParams:
    try:
        return RegularizationParams(
            gamma_eps0=cfg.get("cga", "gamma_eps0"),
            gamma_sigma0=cfg.get("cga", "gamma_sigma0"),
            p=cfg.get("cga", "p"),
            eps_prior=eps_prior,
            sigma_prior=sigma_prior,
        )
    except ValueError as exc:
        raise ConfigError(f"cga: {exc}") from exc
