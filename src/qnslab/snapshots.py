"""Field snapshot container: self-describing text format, stable layout.

Layout (version 1):

    # qnslab-field v1
    dim: <d>
    n: <n1> ... <nd>
    length: <L1> ... <Ld>
    name: <field name>
    time: <float>
    kind: <scalar | vector>
    components: <1 for scalar, d for vector>
    data:
    <one value per line, row-major; vector components concatenated>

Values are written with 17 significant digits so round-trips are exact.
"""

from __future__ import annotations

import warnings

import numpy as np

from .fields import Grid, ScalarField, VectorField, as_real

_MAGIC = "# qnslab-field v1"
_CHUNK = 4096


def write_field(path, field, name, time=0.0):
    if isinstance(field, ScalarField):
        kind, comps = "scalar", 1
    elif isinstance(field, VectorField):
        kind, comps = "vector", field.grid.dim
    else:
        raise TypeError("write_field expects a ScalarField or VectorField")
    grid = field.grid
    flat = field.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"dim: {grid.dim}\n")
        fh.write("n: " + " ".join(str(m) for m in grid.n) + "\n")
        fh.write("length: " + " ".join(repr(L) for L in grid.length) + "\n")
        fh.write(f"name: {name}\n")
        fh.write(f"time: {time!r}\n")
        fh.write(f"kind: {kind}\n")
        fh.write(f"components: {comps}\n")
        fh.write("data:\n")
        # same bytes as np.savetxt(fmt="%.17g"), formatted in bounded chunks
        for start in range(0, flat.size, _CHUNK):
            chunk = tuple(flat[start:start + _CHUNK].tolist())
            fh.write(("%.17g\n" * len(chunk)) % chunk)


def read_field(path):
    """Returns (field, name, time); field is Scalar- or VectorField.

    Raises ValueError for a file that is not a complete snapshot: a bad
    magic line, header or data marker, unparsable values, or a payload
    whose length differs from what the header declares.
    """
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != _MAGIC:
            raise ValueError(f"not a qnslab field snapshot: {path}")
        header = {}
        for _ in range(7):
            key, _, rest = fh.readline().partition(":")
            header[key.strip()] = rest.strip()
        marker = fh.readline().strip()
        if marker != "data:":
            raise ValueError(f"corrupt snapshot (missing data marker): {path}")
        try:
            with warnings.catch_warnings():
                # an empty payload is reported below, by its length
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"corrupt snapshot data ({exc}): {path}") from exc
    try:
        dim = int(header["dim"])
        n = tuple(int(m) for m in header["n"].split())
        length = tuple(float(L) for L in header["length"].split())
        comps = int(header["components"])
        kind = header["kind"]
        name = header["name"]
        time = as_real("time", float(header["time"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"corrupt snapshot header ({exc}): {path}") from exc
    if len(n) != dim:
        raise ValueError("corrupt header: n/dim mismatch")
    if (kind, comps) not in (("scalar", 1), ("vector", dim)):
        raise ValueError(f"corrupt header: kind {kind!r} with {comps} "
                         f"components: {path}")
    grid = Grid(n, length)
    expected = comps * grid.node_count
    if data.shape != (expected,):
        raise ValueError(f"truncated or corrupt snapshot: {data.size} values "
                         f"where the header declares {expected}: {path}")
    if kind == "scalar":
        field = ScalarField(grid, data.reshape(grid.shape))
    else:
        field = VectorField(grid, data.reshape((comps,) + grid.shape))
    return field, name, time
