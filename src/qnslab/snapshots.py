"""Field snapshot container: a self-describing text header, then the values
as raw float64.

Layout (version 2):

    # qnslab-field v2
    dim: <d>
    n: <n1> ... <nd>
    length: <L1> ... <Ld>
    name: <field name>
    time: <float>
    kind: <scalar | vector>
    components: <1 for scalar, d for vector>
    data: <f8
    <components x node_count little-endian IEEE-754 float64 values as raw
     bytes, row-major, vector components concatenated; nothing after them>

The header is UTF-8 text, so `head -9` shows it; the payload holds every
value bit for bit.

Version 1 (`# qnslab-field v1`) has the same header lines, a bare `data:`
marker and then one value per line as text with 17 significant digits.
read_field still reads it, so existing and hand-written text snapshots keep
working; write_field writes only version 2.
"""

from __future__ import annotations

import io
import warnings

import numpy as np

from .fields import Grid, ScalarField, VectorField, as_real

_MAGIC = "# qnslab-field v2"
_MARKER = "data: <f8"
_MAGIC_V1 = "# qnslab-field v1"
_MARKER_V1 = "data:"
_F8 = np.dtype("<f8")


def write_field(path, field, name, time=0.0):
    """Writes field as a version-2 snapshot.

    Raises ValueError, before the file is opened, for a time or name that
    read_field would not return unchanged: a time that is not a finite real
    number, or a name that is not UTF-8 text, holds a line break or starts or
    ends with whitespace.
    """
    if isinstance(field, ScalarField):
        kind, comps = "scalar", 1
    elif isinstance(field, VectorField):
        kind, comps = "vector", field.grid.dim
    else:
        raise TypeError("write_field expects a ScalarField or VectorField")
    time = float(as_real("time", time))
    _check_name(name)
    grid = field.grid
    header = "".join(line + "\n" for line in (
        _MAGIC,
        f"dim: {grid.dim}",
        "n: " + " ".join(str(m) for m in grid.n),
        "length: " + " ".join(repr(L) for L in grid.length),
        f"name: {name}",
        f"time: {time!r}",
        f"kind: {kind}",
        f"components: {comps}",
        _MARKER)).encode()
    values = np.ascontiguousarray(field.values, dtype=_F8)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values)


def _check_name(name):
    """A ValueError unless name is UTF-8 text of one line that neither
    starts nor ends with whitespace: a name read_field returns unchanged."""
    if isinstance(name, str) and "\n" not in name and name == name.strip():
        try:
            name.encode()
            return
        except UnicodeEncodeError:
            pass
    raise ValueError(f"snapshot name must be UTF-8 text of one line without "
                     f"leading or trailing whitespace, got {name!r}")


def read_field(path):
    """Returns (field, name, time); field is Scalar- or VectorField.

    Reads version 2 and version-1 text snapshots, told apart by the magic
    line. Raises ValueError for a file that is not a complete snapshot: a
    bad magic line, header or data marker, unparsable values, or a payload
    whose length differs from what the header declares.
    """
    with open(path, "rb") as fh:
        if fh.readline(64).strip() == _MAGIC.encode():
            grid, kind, name, time, data = _read_raw(fh, path)
        else:
            fh.seek(0)
            grid, kind, name, time, data = _read_text(io.TextIOWrapper(fh),
                                                      path)
    cls = ScalarField if kind == "scalar" else VectorField
    return cls(grid, data), name, time


def _read_raw(fh, path):
    """(grid, kind, name, time, values) of a version-2 snapshot, read from
    its first header line on."""
    try:
        lines = [fh.readline().decode() for _ in range(8)]
    except UnicodeDecodeError as exc:
        raise ValueError(f"corrupt snapshot header ({exc}): {path}") from exc
    grid, kind, comps, name, time = _header(lines, _MARKER, path)
    payload = fh.read()
    expected = comps * grid.node_count
    if len(payload) != _F8.itemsize * expected:
        raise ValueError(f"truncated or corrupt snapshot: {len(payload)} "
                         f"payload bytes where the header declares "
                         f"{expected} float64 values: {path}")
    return grid, kind, name, time, np.frombuffer(payload, dtype=_F8)


def _read_text(fh, path):
    """(grid, kind, name, time, values) of a version-1 text snapshot."""
    if fh.readline().strip() != _MAGIC_V1:
        raise ValueError(f"not a qnslab field snapshot: {path}")
    grid, kind, comps, name, time = _header(
        [fh.readline() for _ in range(8)], _MARKER_V1, path)
    try:
        with warnings.catch_warnings():
            # an empty payload is reported below, by its length
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"corrupt snapshot data ({exc}): {path}") from exc
    expected = comps * grid.node_count
    if data.shape != (expected,):
        raise ValueError(f"truncated or corrupt snapshot: {data.size} values "
                         f"where the header declares {expected}: {path}")
    return grid, kind, name, time, data


def _header(lines, marker, path):
    """(grid, kind, components, name, time) of the seven header lines and
    the data marker line that follow the magic line; every ValueError it
    raises names path."""
    header = {}
    for line in lines[:7]:
        key, _, rest = line.partition(":")
        header[key.strip()] = rest.strip()
    if lines[7].strip() != marker:
        raise ValueError(f"corrupt snapshot (missing data marker): {path}")
    try:
        dim = int(header["dim"])
        n = tuple(int(m) for m in header["n"].split())
        length = tuple(float(L) for L in header["length"].split())
        comps = int(header["components"])
        kind = header["kind"]
        name = header["name"]
        time = as_real("time", float(header["time"]))
        if len(n) != dim:
            raise ValueError("n/dim mismatch")
        grid = Grid(n, length)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"corrupt snapshot header ({exc}): {path}") from exc
    if (kind, comps) not in (("scalar", 1), ("vector", dim)):
        raise ValueError(f"corrupt header: kind {kind!r} with {comps} "
                         f"components: {path}")
    return grid, kind, comps, name, time
