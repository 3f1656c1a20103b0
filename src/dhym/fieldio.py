"""Binary field files.

Layout (little-endian): magic "DHYM" (4 bytes), version u32 = 1, kind u8
(0 = scalar, 1 = hermitian-form), n u8, N u32, then the payload.  Scalar
payload: N^(2n) float64 row-major over (x1, y1, x2, y2).  Hermitian-form
payload: per grid point n^2 complex128 values (interleaved re, im) row-major
in the matrix indices (i, j).  A form field is converted to and from its
real planes here, at I/O only.  Writing then reading a field is bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .torus import HermitianFormField, ScalarField, TorusGrid

MAGIC = b"DHYM"
VERSION = 1
KIND_SCALAR = 0
KIND_HERMITIAN = 1
ASYMMETRY_RTOL = 1e-12

_HEADER = struct.Struct("<4sIBBI")


def write_field(path, f: ScalarField | HermitianFormField) -> None:
    grid = f.grid
    if isinstance(f, ScalarField):
        kind = KIND_SCALAR
        payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    else:
        kind = KIND_HERMITIAN
        payload = np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, kind, grid.n, grid.N))
        fh.write(payload)


def read_field(path) -> ScalarField | HermitianFormField:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigError(f"{path}: truncated header")
        magic, version, kind, n, big_n = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        try:
            grid = TorusGrid(n=n, N=big_n)
        except DimensionMismatch as exc:
            raise ConfigError(f"{path}: unsupported grid: {exc}") from exc
        raw = fh.read()
    if kind == KIND_SCALAR:
        want = grid.num_points * 8
        if len(raw) != want:
            raise ConfigError(f"{path}: payload {len(raw)} bytes, expected {want}")
        vals = np.frombuffer(raw, dtype="<f8").reshape(grid.shape)
        return ScalarField(grid, vals.copy())
    if kind == KIND_HERMITIAN:
        want = grid.num_points * n * n * 16
        if len(raw) != want:
            raise ConfigError(f"{path}: payload {len(raw)} bytes, expected {want}")
        vals = np.frombuffer(raw, dtype="<c16").reshape(grid.shape + (n, n))
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{path}: form payload has non-finite entries")
        asym = float(np.max(np.abs(vals - np.conj(np.swapaxes(vals, -1, -2)))))
        if asym > ASYMMETRY_RTOL * float(np.max(np.abs(vals))):
            raise ConfigError(f"{path}: form payload is not Hermitian (asymmetry {asym:.3e})")
        # an exact payload keeps its bits: symmetrizing can flip signed zeros
        return HermitianFormField(grid, vals, _symmetrized=asym == 0.0)
    raise ConfigError(f"{path}: unknown field kind {kind}")
