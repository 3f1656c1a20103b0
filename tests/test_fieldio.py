"""Binary field files and run configuration parsing."""

import re
import struct
import warnings

import numpy as np
import pytest

from dhym.errors import ConfigError
from dhym.fieldio import read_field, write_field
from dhym.runconfig import load_config, parse_form_spec, parse_grid, parse_scalar_spec
from dhym.torus import (
    HermitianFormField,
    ScalarField,
    TorusGrid,
    constant_form_field,
    i_ddbar,
)


def test_scalar_round_trip_bit_exact(tmp_path, rng):
    g = TorusGrid(2, 8)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "f.dhym"
    write_field(path, f)
    first = path.read_bytes()
    back = read_field(path)
    assert isinstance(back, ScalarField)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    write_field(path, back)
    assert path.read_bytes() == first


def test_form_round_trip_bit_exact(tmp_path, rng):
    g = TorusGrid(1, 16)
    f = i_ddbar(ScalarField(g, rng.standard_normal(g.shape)))
    path = tmp_path / "h.dhym"
    write_field(path, f)
    first = path.read_bytes()
    back = read_field(path)
    assert isinstance(back, HermitianFormField)
    assert np.array_equal(back.values, f.values)
    write_field(path, back)
    assert path.read_bytes() == first


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.dhym"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ConfigError, match="magic"):
        read_field(path)


def test_read_rejects_unsupported_grid(tmp_path):
    path = tmp_path / "n12.dhym"
    header = struct.pack("<4sIBBI", b"DHYM", 1, 0, 1, 12)
    path.write_bytes(header + bytes(12 * 12 * 8))
    with pytest.raises(ConfigError, match=r"n12\.dhym: .*N=12"):
        read_field(path)


def test_read_rejects_truncated_payload(tmp_path, rng):
    g = TorusGrid(1, 8)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "t.dhym"
    write_field(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ConfigError, match="payload"):
        read_field(path)


def _write_form_payload(path, g, vals):
    """A hermitian-form file holding vals as they are (header <4sIBBI)."""
    header = struct.pack("<4sIBBI", b"DHYM", 1, 1, g.n, g.N)
    path.write_bytes(header + np.ascontiguousarray(vals, dtype="<c16").tobytes())


def test_read_validates_form_payload(tmp_path, rng):
    g = TorusGrid(2, 8)
    path = tmp_path / "chi.dhym"
    exact = i_ddbar(ScalarField(g, rng.standard_normal(g.shape)))
    write_field(path, exact)
    write_field(tmp_path / "again.dhym", read_field(path))
    assert (tmp_path / "again.dhym").read_bytes() == path.read_bytes()

    # payloads a form field cannot hold, written byte by byte
    vals = constant_form_field(g, 0.4 * np.eye(2)).values.copy()
    vals[1, 2, 3, 4, 0, 1] = 0.3  # entry (1, 0) stays 0
    _write_form_payload(path, g, vals)
    with pytest.raises(ConfigError, match=r"chi\.dhym: .*not Hermitian"):
        read_field(path)

    vals[1, 2, 3, 4, 0, 1] = 0.0
    vals[5, 0, 0, 1, 1, 1] = np.nan
    _write_form_payload(path, g, vals)
    with pytest.raises(ConfigError, match=r"chi\.dhym: .*non-finite"):
        read_field(path)

    # round-off asymmetry is accepted and symmetrized away
    vals[5, 0, 0, 1, 1, 1] = 0.4
    vals[..., 0, 1] = 0.1
    vals[..., 1, 0] = 0.1 * (1.0 + 4e-16)
    _write_form_payload(path, g, vals)
    back = read_field(path).values
    assert np.array_equal(back, np.conj(np.swapaxes(back, -1, -2)))
    assert np.max(np.abs(back - vals)) <= 1e-16


# --- config parsing -----------------------------------------------------------


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_config_round_trip(tmp_path):
    cfg = load_config(
        _write(
            tmp_path,
            "[grid]\nn = 1\nN = 16\n\n[problem]\neps0 = 0.5\n",
        )
    )
    grid = parse_grid(cfg)
    assert grid.n == 1 and grid.N == 16
    assert cfg.get_float("problem", "eps0") == 0.5


def test_config_rejects_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(_write(tmp_path, "[grid]\nn = 1\nN = 16\n[bogus]\nx = 1\n"))


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(_write(tmp_path, "[grid]\nn = 1\nN = 16\nwat = 2\n"))


def test_config_rejects_bad_number(tmp_path):
    cfg = load_config(_write(tmp_path, "[problem]\neps0 = banana\n"))
    with pytest.raises(ConfigError, match="not a number"):
        cfg.get_float("problem", "eps0")


def test_scalar_spec_terms():
    g = TorusGrid(1, 16)
    x = g.axis_coordinate("x1")
    y = g.axis_coordinate("y1")
    f = parse_scalar_spec("0.5 + 0.2 cos x1 + 0.1 sin 2 y1", g)
    expect = 0.5 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * y)
    assert np.max(np.abs(f.values - expect)) <= 1e-15
    assert np.max(np.abs(parse_scalar_spec("zero", g).values)) == 0.0


def test_scalar_spec_exponent_signs():
    # a "+" in an exponent belongs to the amplitude, not between terms
    g = TorusGrid(2, 8)
    got = parse_scalar_spec("1e+0 cos 1 x1 + 2.5E-1 sin y2", g)
    assert np.array_equal(got.values, parse_scalar_spec("1 cos 1 x1 + 0.25 sin y2", g).values)
    assert np.array_equal(parse_scalar_spec("3e+0", g).values, np.full(g.shape, 3.0))
    with pytest.raises(ConfigError, match="bad amplitude"):
        parse_scalar_spec("3e+ + 1", g)


# every scalar spec of the solve pins, the acceptance configs and the solve
# workloads (manufactured-n2's u_star at seeds 7 and 11), plus constants
SPECS = [
    "0.2",
    "0.3",
    "-0.0",
    "0.5 + 0.2 cos x1",
    "0.3 cos x1",
    "0.3 cos x1 + 0.1 sin 2 y1",
    "0.05 sin x1 + 0.02 cos y1",
    "0.1 cos x1 + 0.05 sin y2",
    "0.07986036655177618 cos 1 y1 + -0.06018572799440039 sin 1 y1 + "
    "0.00803441381798837 cos 1 y2 + -0.04935026032962053 sin 1 y2",
    "-0.09999897063626384 cos 1 x1 + 0.00045373085374987067 sin 1 x1 + "
    "-0.040172377202380864 cos 1 x2 + -0.02976877743390935 sin 1 x2",
]


def _full_grid_spec(spec, g):
    """The spec summed term by term on the full grid, as a reference."""
    values = np.zeros(g.shape)
    for term in spec.split(" + "):
        amp, *rest = term.split()
        if not rest:
            values = values + float(amp)
            continue
        fn, *freq, axis = rest
        coord = g.axis_coordinate(axis)
        values = values + float(amp) * getattr(np, fn)(int(freq[0] if freq else 1) * coord)
    return values


@pytest.mark.parametrize(
    "spec,n",
    # a spec on an axis of z2 only at n=2
    [(spec, n) for spec in SPECS for n in (1, 2) if n == 2 or not re.search(r"[xy]2", spec)],
    ids=lambda v: v if isinstance(v, int) else f"spec{SPECS.index(v)}",
)
@pytest.mark.parametrize("big_n", [8, 16, 32, 64])
def test_scalar_spec_matches_full_grid_evaluation(spec, n, big_n):
    g = TorusGrid(n, big_n)
    want = _full_grid_spec(spec, g)
    got = parse_scalar_spec(spec, g).values
    assert got.shape == g.shape and got.flags.writeable
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too


@pytest.mark.parametrize("spec", ["1e308 cos x1 + 1e308 cos y1", "1e308 + 1e308", "inf"])
def test_scalar_spec_refuses_overflow_without_warning(spec):
    g = TorusGrid(2, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        with pytest.raises(ConfigError, match="non-finite") as info:
            parse_scalar_spec(spec, g)
    assert repr(spec) in str(info.value)


@pytest.mark.parametrize("big_n", [8, 16])
def test_scalar_spec_refuses_frequencies_above_half_the_grid(big_n):
    g = TorusGrid(1, big_n)
    half = big_n // 2
    for freq in (half, -half):
        got = parse_scalar_spec(f"0.1 cos {freq} x1", g).values
        assert np.array_equal(got, _full_grid_spec(f"0.1 cos {freq} x1", g))
    for freq in (half + 1, -half - 1, 99999999999999999999999):
        term = f"0.1 sin {freq} y1"
        with pytest.raises(ConfigError, match=f"{term!r}.*N={big_n}"):
            parse_scalar_spec(f"0.5 + {term}", g)


def test_scalar_spec_rejects_bad_axis():
    g = TorusGrid(1, 16)
    with pytest.raises(ConfigError):
        parse_scalar_spec("0.2 cos x2", g)
    with pytest.raises(ConfigError):
        parse_scalar_spec("0.2 tan x1", g)


def test_form_spec_variants():
    g = TorusGrid(2, 8)
    assert np.max(np.abs(parse_form_spec("id", g).values - np.eye(2))) == 0.0
    iso = parse_form_spec("iso 0.5 + 0.1 cos x1", g)
    x = g.axis_coordinate("x1")
    assert np.max(np.abs(iso.values[..., 0, 0].real - (0.5 + 0.1 * np.cos(x)))) <= 1e-15
    assert np.max(np.abs(iso.values[..., 0, 1])) == 0.0
    diag = parse_form_spec("const-diag 1.5 0.5", g)
    assert np.max(np.abs(diag.values - np.diag([1.5, 0.5]))) == 0.0
    with pytest.raises(ConfigError):
        parse_form_spec("const-diag 1.0", g)
    with pytest.raises(ConfigError):
        parse_form_spec("nonsense", g)


def test_field_file_spec_round_trip(tmp_path, rng):
    g = TorusGrid(1, 8)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "u.dhym"
    write_field(path, f)
    back = parse_scalar_spec(f"file {path}", g)
    assert np.array_equal(back.values, f.values)
