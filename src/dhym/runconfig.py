"""Run configuration: flat key = value text with bracketed sections.

Field specifications are small term lists:

  scalar fields    "0.5 + 0.2 cos x1 + 0.1 sin 2 y2" | "file <path>" | "zero"
  form fields      "id" | "iso <scalar spec>" | "const-diag d1 [d2]"
                   | "file <path>"

Axes are named x1, y1, x2, y2.  Unknown sections or keys are rejected.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fieldio import read_field
from .torus import (
    HermitianFormField,
    ScalarField,
    TorusGrid,
    constant_form_field,
    identity_metric,
    isotropic_form_field,
)

_SECTIONS = {
    "grid": {"n", "N"},
    "fields": {"omega", "chi0", "u0", "u_star"},
    "target": {"kind", "value", "path"},
    "problem": {"eps0"},
    "solver": {
        "method",
        "tol",
        "krylov",
        "krylov_tol",
        "krylov_iters",
        "max_iters",
        "seed",
    },
    "check": {
        "suite",
        "samples",
        "seed",
        "n",
        "N",
        "sigma",
        "eps0",
        "delta",
        "radius",
    },
    "output": {"dir"},
}


@dataclass
class RunConfig:
    """Parsed configuration with raw section dictionaries."""

    sections: dict[str, dict[str, str]] = field(default_factory=dict)

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> str:
        val = self.get(section, key)
        if val is None:
            raise ConfigError(f"missing [{section}] {key}")
        return val

    def get_float(self, section: str, key: str, default=None) -> float | None:
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
        if not np.isfinite(value):
            raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
        return value

    def get_int(self, section: str, key: str, default=None) -> int | None:
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case: [grid] n and N are distinct
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax in {path}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        body = {key: value.strip() for key, value in parser.items(name)}
        for key in body:
            if key not in _SECTIONS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
        sections[name] = body
    return RunConfig(sections=sections)


def parse_grid(cfg: RunConfig) -> TorusGrid:
    n = cfg.get_int("grid", "n")
    big_n = cfg.get_int("grid", "N")
    if n is None or big_n is None:
        raise ConfigError("config needs [grid] n and N")
    try:
        return TorusGrid(n=n, N=big_n)
    except Exception as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def parse_scalar_spec(spec: str, grid: TorusGrid) -> ScalarField:
    """Build a scalar field from a term-list specification."""
    spec = spec.strip()
    if spec == "zero" or spec == "0":
        return ScalarField(grid, np.zeros(grid.shape))
    if spec.startswith("file "):
        f = read_field(spec[5:].strip())
        if not isinstance(f, ScalarField) or f.grid != grid:
            raise ConfigError(f"{spec!r}: not a scalar field on the config grid")
        return f
    values = np.zeros(grid.shape)
    for term in spec.split("+"):
        tokens = term.split()
        if not tokens:
            raise ConfigError(f"empty term in field spec {spec!r}")
        try:
            amp = float(tokens[0])
        except ValueError as exc:
            raise ConfigError(f"bad amplitude in term {term!r}") from exc
        if len(tokens) == 1:
            values = values + amp
            continue
        fn = tokens[1]
        if fn not in ("cos", "sin"):
            raise ConfigError(f"bad term {term!r}: expected cos/sin")
        if len(tokens) == 3:
            freq, axis = 1, tokens[2]
        elif len(tokens) == 4:
            try:
                freq = int(tokens[2])
            except ValueError as exc:
                raise ConfigError(f"bad frequency in term {term!r}") from exc
            axis = tokens[3]
        else:
            raise ConfigError(f"bad term {term!r}")
        if axis not in grid.axis_names:
            raise ConfigError(f"axis {axis!r} not valid for n={grid.n}")
        coord = grid.axis_coordinate(axis)
        values = values + amp * (np.cos if fn == "cos" else np.sin)(freq * coord)
    return ScalarField(grid, values)


def parse_form_spec(spec: str, grid: TorusGrid) -> HermitianFormField:
    """Build a Hermitian-form field from a specification string."""
    spec = spec.strip()
    if spec == "id":
        return identity_metric(grid)
    if spec.startswith("iso "):
        return isotropic_form_field(grid, parse_scalar_spec(spec[4:], grid))
    if spec.startswith("const-diag "):
        try:
            diag = [float(v) for v in spec.split()[1:]]
        except ValueError as exc:
            raise ConfigError(f"bad const-diag spec {spec!r}") from exc
        if len(diag) != grid.n:
            raise ConfigError(
                f"const-diag needs {grid.n} entries for n={grid.n}, got {len(diag)}"
            )
        return constant_form_field(grid, np.diag(diag))
    if spec.startswith("file "):
        f = read_field(spec[5:].strip())
        if not isinstance(f, HermitianFormField) or f.grid != grid:
            raise ConfigError(f"{spec!r}: not a form field on the config grid")
        return f
    raise ConfigError(f"unknown form field spec {spec!r}")
