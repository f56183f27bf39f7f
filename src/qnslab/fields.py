"""Periodic grids, field containers, and spectral/finite-difference calculus.

Everything downstream (composite operators, functionals, right-hand sides)
is built on the primitives here: Fourier-collocation derivatives on a uniform
periodic lattice, rectangle-rule quadrature (exact for resolved trigonometric
polynomials), 2/3-rule dealiasing, and a seeded smooth-positive field
generator used by the verification suites.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import threading

import numpy as np

TWO_PI = 2.0 * np.pi

# Inside a workspace scope, 1D stacks of at least this many bytes are drawn
# from the calling thread's workspace and reused; smaller ones are plain
# np.empty arrays (see lend).
# glibc hands freed heap tops above about 128 KiB back to the system, so a
# large stack allocated afresh on every call faults its pages in again.
POOL_MIN_BYTES = 1 << 17

class Grid:
    """Uniform periodic lattice on [0, L1) x ... x [0, Ld), d in {1,2,3}.

    Node counts must be even and >= 8 per axis so the 2/3 dealiasing rule and
    Nyquist handling are well defined.
    """

    __slots__ = ("dim", "n", "length", "spacing", "shape", "volume", "kmax",
                 "_ik", "_lap", "_hess", "_sym", "_mask", "_coords", "_rows",
                 "_axes")

    def __init__(self, n, length=None):
        if np.isscalar(n):
            n = (n,)
        n = tuple(as_int("node counts", m) for m in n)
        dim = len(n)
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
        for m in n:
            if m < 8 or m % 2 != 0:
                raise ValueError(f"node counts must be even and >= 8, got {m}")
        if length is None:
            length = (TWO_PI,) * dim
        elif np.isscalar(length):
            length = (float(length),) * dim
        else:
            length = tuple(float(L) for L in length)
        if len(length) != dim:
            raise ValueError("length must have one entry per axis")
        for L in length:
            if L <= 0:
                raise ValueError("domain extents must be positive")
        self.dim = dim
        self.n = n
        self.length = length
        self.spacing = tuple(L / m for L, m in zip(length, n))
        self.shape = n
        self.volume = float(np.prod(length))

        # Spectral multipliers in rfft layout (last axis halved). Wavenumbers
        # have the Nyquist mode zeroed, so d/dx of a real field is real and
        # div(grad f) == laplacian f holds to roundoff by construction.
        idx = mode_indices(self)
        ks = [TWO_PI / L * np.where(2 * np.abs(i) == m, 0, i)
              for i, m, L in zip(idx, n, length)]
        self._ik = tuple(1j * k for k in ks)
        self._lap = -sum(k * k for k in ks)
        # ik_i * ik_j = -k_i k_j for the upper triangle i <= j, real
        self._hess = tuple(_freeze((self._ik[i] * self._ik[j]).real)
                           for i, j in _upper_pairs(dim))
        # the index of each upper-triangle row and of the entries (i, j) and
        # (j, i) it fills, for _symmetric
        self._sym = tuple(
            (_comp(self, p), tuple(_comp(self, *e) for e in {(i, j), (j, i)}))
            for p, (i, j) in enumerate(_upper_pairs(dim)))
        self.kmax = max(np.max(np.abs(ik)) for ik in self._ik)
        mask = True
        for i, m in zip(idx, n):
            mask = mask & (np.abs(i) <= m // 3)
        self._mask = mask

        self._coords = tuple(
            np.arange(m) * h for m, h in zip(n, self.spacing))
        # (row shape, bytes per row, dtype) of a nodal and of a spectral
        # stack
        spec = n[:-1] + (n[-1] // 2 + 1,)
        self._rows = ((n, 8 * int(np.prod(n)), float),
                      (spec, 16 * int(np.prod(spec)), complex))
        self._axes = tuple(range(-dim, 0))    # the grid axes of a stack

    @property
    def node_count(self):
        return math.prod(self.n)

    def coords(self):
        """Per-axis 1D coordinate arrays."""
        return self._coords

    def meshgrid(self):
        """Full nodal coordinate arrays, shape == grid.shape each."""
        return np.meshgrid(*self._coords, indexing="ij")

    def dealias_limit(self):
        """Largest mode index kept by the 2/3 rule (per axis minimum)."""
        return min(m // 3 for m in self.n)

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.n == other.n
                and self.length == other.length)

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length})"


def _freeze(arr):
    arr.setflags(write=False)
    return arr


class ScalarField:
    """Nodal samples of a scalar on a Grid. Immutable once constructed."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        v = np.array(values, dtype=float, copy=True).reshape(grid.shape)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _freeze(v))

    def __setattr__(self, *a):
        raise AttributeError("ScalarField is immutable")

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, fn(*grid.meshgrid()))

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(grid.shape, float(c)))


class VectorField:
    """dim scalar components sharing a Grid; stored as one (dim, *n) array."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        v = np.array(values, dtype=float, copy=True)
        v = v.reshape((grid.dim,) + grid.shape)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _freeze(v))

    def __setattr__(self, *a):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    def component(self, i):
        return ScalarField(self.grid, self.values[i])


class TensorField:
    """dim x dim scalar components sharing a Grid; (dim, dim, *n) array."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        v = np.array(values, dtype=float, copy=True)
        v = v.reshape((grid.dim, grid.dim) + grid.shape)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _freeze(v))

    def __setattr__(self, *a):
        raise AttributeError("TensorField is immutable")

    def component(self, i, j):
        return ScalarField(self.grid, self.values[i, j])


def mode_indices(grid):
    """Per-axis integer mode indices in rfft layout, shaped to broadcast.

    The last grid axis holds only the nonnegative modes 0..n/2.
    """
    out = []
    for a, m in enumerate(grid.n):
        if a == grid.dim - 1:
            idx = np.arange(m // 2 + 1)
        else:
            idx = np.rint(np.fft.fftfreq(m) * m).astype(int)
        shape = [1] * grid.dim
        shape[a] = idx.size
        out.append(idx.reshape(shape))
    return out


# ---------------------------------------------------------------------------
# transform workspace: reused stacks for the right-hand sides and the step
# ---------------------------------------------------------------------------

class _Workspace(threading.local):
    """One thread's pool of transform stacks.

    A free buffer is raw bytes; sizes holds their byte counts in ascending
    order, parallel to free. A stack is a view of the smallest free buffer
    that holds it, so a buffer serves stacks of any row count and either
    dtype. lent maps id(buffer) to the buffer, which is the base of every
    view of the stack. grid is the grid the free buffers were used on, and
    depth counts the nested in_workspace scopes."""

    def __init__(self):
        self.grid = None
        self.sizes, self.free = [], []
        self.lent = {}
        self.depth = 0

    def put(self, buf):
        i = bisect.bisect_left(self.sizes, buf.nbytes)
        self.sizes.insert(i, buf.nbytes)
        self.free.insert(i, buf)


_workspace = _Workspace()


def in_workspace(fn):
    """fn run in a workspace scope: when the thread's outermost scope exits,
    normally or by an exception, every stack still lent returns to the
    pool. Inside a scope lend() draws stacks from the workspace, and so do
    the spectral operators (grad_arr, div_arr, lap_arr, hess_arr,
    derivatives_arr) for their spectra and outputs: a spectrum goes back
    once read, and an output stays lent until the outermost scope exits, so
    no array they return may outlive it. Outside any scope they return
    plain arrays."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        ws = _workspace
        ws.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            ws.depth -= 1
            if not ws.depth and ws.lent:
                # a stage that raised left its stacks lent; nothing reads
                # them
                for buf in ws.lent.values():
                    ws.put(buf)
                ws.lent.clear()
    return scoped


def lend(grid, lead, spectral=False):
    """An uninitialized stack of shape lead + the grid's nodal row shape, or
    + its rfft-layout row shape if spectral.

    Inside an in_workspace scope a 2D or 3D stack of any size, and a 1D
    stack of at least POOL_MIN_BYTES, comes from the thread's workspace: it
    stays lent until release() or the outermost scope's exit and must not
    outlive it. Every other stack is a plain array. The pool keeps the
    buffers of one grid only."""
    row, row_bytes, dtype = grid._rows[spectral]
    ws = _workspace
    if ws.depth:
        # 2D and 3D stacks are pooled whatever their size: their rows are
        # large, and a scope's many small stacks add up to more than glibc
        # keeps at the heap top. Small 1D stacks stay plain, so a 1D chunk
        # leaves alone the pool of the other grids of a verify pass.
        nbytes = math.prod(lead) * row_bytes
        if grid.dim > 1 or nbytes >= POOL_MIN_BYTES:
            if ws.grid is not grid:
                if ws.grid != grid:
                    ws.sizes, ws.free = [], []
                ws.grid = grid
            i = bisect.bisect_left(ws.sizes, nbytes)
            if i < len(ws.sizes):
                del ws.sizes[i]
                buf = ws.free.pop(i)
            else:
                buf = np.empty(nbytes, np.uint8)
            ws.lent[id(buf)] = buf
            return np.ndarray(lead + row, dtype, buf)
    return np.empty(lead + row, dtype)


def release(*stacks):
    """Return stacks from lend(), or the inverse_once() of one, to the
    pool; other arrays are ignored."""
    ws = _workspace
    lent = ws.lent
    if lent:
        for arr in stacks:
            buf = lent.pop(id(arr.base), None)
            if buf is not None:
                ws.put(buf)


def _lead(grid, arr, depth=0):
    """The leading batch axes of arr before its grid axes and depth
    component axes."""
    return arr.shape[:arr.ndim - grid.dim - depth]


def forward(grid, arr, once=False):
    """to_spectral of arr into a lend() stack. once: arr is a nodal stack
    that is not read again, and goes back to the workspace."""
    out = to_spectral(grid, arr, lend(grid, arr.shape[:arr.ndim - grid.dim],
                                      True))
    if once:
        release(arr)
    return out


def inverse_once(grid, spec):
    """from_spectral of a spectral stack that is not read again. The real
    rows of a workspace stack are written over its own memory (a real row
    takes fewer bytes than a row of the rfft layout; numpy resolves the
    overlap), so release() of the result returns the buffer."""
    out = None
    if spec.base is not None:
        shape = spec.shape[:spec.ndim - grid.dim] + grid.shape
        out = spec.reshape(-1).view(float)[:math.prod(shape)].reshape(shape)
    return from_spectral(grid, spec, out)


# ---------------------------------------------------------------------------
# array-level calculus (used internally; public field ops wrap these)
# ---------------------------------------------------------------------------

def to_spectral(grid, arr, out=None):
    """Real FFT over the trailing grid axes; leading axes are a batch.

    The transform writes every axis pass into one output, out if given, so
    it allocates once instead of once per axis.
    """
    if grid.dim == 1:
        return np.fft.rfft(arr, out=out)
    if out is None:
        out = np.empty(arr.shape[:-1] + (grid.n[-1] // 2 + 1,), dtype=complex)
    return np.fft.rfftn(arr, axes=grid._axes, out=out)


def from_spectral(grid, ahat, out=None):
    """Inverse of to_spectral: real nodal values on the grid, written to out
    if given."""
    if grid.dim == 1:
        return np.fft.irfft(ahat, n=grid.n[0], out=out)
    return np.fft.irfftn(ahat, s=grid.shape, axes=grid._axes, out=out)


def _check_backend(backend):
    if backend not in ("spectral", "fd2"):
        raise ValueError(f"unknown backend {backend!r}")


def _comp(grid, *idx):
    """Index of the component axes just before the grid axes, counted from
    the grid end, so leading batch axes pass through: _comp(grid, i) picks
    row i of a vector stack, _comp(grid, i, j) entry (i, j) of a tensor."""
    return (Ellipsis,) + idx + (slice(None),) * grid.dim


def per_node(grid, arr, depth=1):
    """arr with depth unit axes inserted before the grid axes, so a scalar
    stack broadcasts against a vector (depth 1) or tensor (2) stack."""
    return arr.reshape(arr.shape[:arr.ndim - grid.dim] + (1,) * depth
                       + grid.shape)


def deriv_arr(grid, arr, axis, backend="spectral"):
    """d(arr)/dx_axis on the grid."""
    _check_backend(backend)
    if backend == "fd2":
        h = grid.spacing[axis]
        a = axis - grid.dim
        return (np.roll(arr, -1, a) - np.roll(arr, 1, a)) / (2 * h)
    return from_spectral(grid, grid._ik[axis] * to_spectral(grid, arr))


def lap_arr(grid, arr, backend="spectral"):
    """Laplacian of a scalar, or of each row of a leading-axis stack."""
    _check_backend(backend)
    if backend == "fd2":
        out = np.zeros_like(arr)
        for a, h in enumerate(grid.spacing):
            a -= grid.dim
            out += (np.roll(arr, -1, a) - 2 * arr + np.roll(arr, 1, a)) / h**2
        return out
    hat = forward(grid, arr)
    np.multiply(grid._lap, hat, out=hat)
    return inverse_once(grid, hat)


def _derivative_rows(grid, arr, mults):
    """from_spectral of m * to_spectral(arr) for each multiplier m of mults,
    on a new axis before the grid axes; the spectra go back to the
    workspace once read."""
    hat = forward(grid, arr)
    spec = lend(grid, _lead(grid, hat) + (len(mults),), spectral=True)
    for p, m in enumerate(mults):
        np.multiply(m, hat, out=spec[_comp(grid, p)])
    release(hat)
    return inverse_once(grid, spec)


def grad_arr(grid, arr, backend="spectral"):
    """First derivatives as a new axis just before the grid axes: the
    (..., dim, *n) gradient of a scalar, and of a vector v the Jacobian
    (..., dim, dim, *n) with [i, j] = d(v_i)/dx_j."""
    _check_backend(backend)
    if backend == "fd2":
        return np.stack([deriv_arr(grid, arr, a, backend)
                         for a in range(grid.dim)], axis=-grid.dim - 1)
    return _derivative_rows(grid, arr, grid._ik)


def div_arr(grid, vec, backend="spectral"):
    """Divergence over the axis before the grid axes: sum_j d(v_j)/dx_j of
    a vector, and of a tensor the row-wise out_i = sum_j d(T_ij)/dx_j."""
    _check_backend(backend)
    if backend == "fd2":
        return sum(deriv_arr(grid, vec[_comp(grid, a)], a, backend)
                   for a in range(grid.dim))
    # sum_j ik_j * hat[..., j, *m] into a lend() stack
    hat = forward(grid, vec)
    lead = (slice(None),) * (hat.ndim - grid.dim - 1)
    spec = lend(grid, _lead(grid, hat, 1), spectral=True)
    np.multiply(grid._ik[0], hat[lead + (0,)], out=spec)
    for j in range(1, grid.dim):
        spec += grid._ik[j] * hat[lead + (j,)]
    release(hat)
    return inverse_once(grid, spec)


def _upper_pairs(d):
    return [(i, j) for i in range(d) for j in range(i, d)]


def _symmetric(grid, upper, out=None):
    """(..., dim, dim, *n) tensor from its upper-triangle rows (the axis
    before the grid axes), bitwise symmetric, written to out if given."""
    d = grid.dim
    if out is None:
        out = np.empty(upper.shape[:-grid.dim - 1] + (d, d) + grid.shape)
    for row, entries in grid._sym:
        hij = upper[row]
        for entry in entries:
            out[entry] = hij
    return out


def hess_arr(grid, arr, backend="spectral"):
    """(..., dim, dim, *n) Hessian; bitwise symmetric by construction."""
    _check_backend(backend)
    if backend == "fd2":
        g = grad_arr(grid, arr, backend)
        return _symmetric(grid, np.stack(
            [deriv_arr(grid, g[_comp(grid, i)], j, backend)
             for i, j in _upper_pairs(grid.dim)], axis=-grid.dim - 1))
    upper = _derivative_rows(grid, arr, grid._hess)
    out = _lent_symmetric(grid, upper)
    release(upper)
    return out


def _lent_symmetric(grid, upper):
    """_symmetric into a lend() stack."""
    return _symmetric(grid, upper,
                      lend(grid, _lead(grid, upper, 1) + (grid.dim,) * 2))


def derivatives_arr(grid, arr, kinds):
    """Several derivatives of a stack with leading batch axes from one
    forward and one inverse transform, spectral, in the order of kinds:
    "grad" (the Jacobian of a vector stack), "hess" or "lap". Each equals
    grad_arr, hess_arr or lap_arr bitwise."""
    mults = {"grad": grid._ik, "hess": grid._hess, "lap": (grid._lap,)}
    groups = [mults[kind] for kind in kinds]
    rows = _derivative_rows(grid, arr, [m for ms in groups for m in ms])
    # outside a workspace scope, a block that shares the rows with another
    # kind is copied, so the rows are freed once read; inside one they stay
    # lent until the scope exits anyway
    copy = len(kinds) > 1 and not _workspace.depth
    out, start = [], 0
    for kind, ms in zip(kinds, groups):
        block = rows[_comp(grid, slice(start, start + len(ms)))]
        start += len(ms)
        if kind == "hess":
            out.append(_lent_symmetric(grid, block))
            continue
        if kind == "lap":
            block = block[_comp(grid, 0)]
        out.append(block.copy() if copy else block)
    if all(kind == "hess" for kind in kinds):
        release(rows)  # no view of them is returned
    return out


def quad(grid, arr):
    """Rectangle-rule integral: (mean nodal value) x (domain volume); one
    value per field of a stack with leading batch axes."""
    if arr.ndim == grid.dim:
        # the sum and division np.mean performs, without its call overhead
        return float(arr.sum() / arr.size * grid.volume)
    flat = arr.reshape(arr.shape[:arr.ndim - grid.dim] + (-1,))
    return np.add.reduce(flat, axis=-1) / flat.shape[-1] * grid.volume


def dealias_arr(grid, arr):
    """2/3-rule truncation of a scalar or of each component of a stack."""
    return from_spectral(grid, grid._mask * to_spectral(grid, arr))


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------

def grad(f, backend="spectral"):
    return VectorField(f.grid, grad_arr(f.grid, f.values, backend))


def div(F, backend="spectral"):
    return ScalarField(F.grid, div_arr(F.grid, F.values, backend))


def laplacian(f, backend="spectral"):
    return ScalarField(f.grid, lap_arr(f.grid, f.values, backend))


def hessian(f, backend="spectral"):
    return TensorField(f.grid, hess_arr(f.grid, f.values, backend))


def sym_grad(F, backend="spectral"):
    J = grad_arr(F.grid, F.values, backend)
    return TensorField(F.grid, 0.5 * (J + np.swapaxes(J, 0, 1)))


def integrate(f):
    return quad(f.grid, f.values)


def lp_norm(f, p):
    """(integral |f|^p)^(1/p); p == np.inf returns the max nodal magnitude."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return quad(f.grid, np.abs(f.values) ** p) ** (1.0 / p)


def dealias(f):
    """Zero all modes above 2/3 of Nyquist (per axis). Idempotent."""
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, dealias_arr(f.grid, f.values))
    if isinstance(f, VectorField):
        return VectorField(f.grid, dealias_arr(f.grid, f.values))
    raise TypeError("dealias expects a ScalarField or VectorField")


def as_int(name, value):
    """value as an int; a ValueError unless it is a number with an integral
    value and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_smooth_args(grid, modes, floor=None):
    """modes as an int, once it (0 <= modes <= n/3 on every axis, dealias-safe)
    and floor (positive unless None) are in random_smooth_ensemble's range."""
    if floor is not None and not float(floor) > 0:
        raise ValueError("floor must be positive")
    modes = as_int("modes", modes)
    if modes < 0:
        raise ValueError("modes must be nonnegative")
    if modes > min(grid.n) // 3:
        raise ValueError(
            f"modes={modes} exceeds dealias-safe limit {min(grid.n) // 3}")
    return modes


def random_smooth_ensemble(grid, seeds, modes, floor=None, amplitude=None):
    """Seeded smooth fields for a stack of seeds, from one synthesis pair.

    Returns (rho, u). rho is (S, *n), floor + s^2 for a seeded truncated
    random Fourier series s per seed, or None if floor is None. u is
    (S, dim, *n), one mean-free smooth field per component scaled by
    amplitude, or None if amplitude is None. Coefficients decay like
    (1 + |k|^2)^-2 so the fields are well resolved; modes must not exceed
    n/3 per axis (dealias-safe). Each seed has its own generator, so a row
    does not depend on the other seeds of the stack. Inside an in_workspace
    scope rho and u are views of a lent stack (see lend).
    """
    modes = check_smooth_args(grid, modes, floor)
    d, ns = grid.dim, len(seeds)
    rows = list(seeds) if floor is not None else []
    nr = len(rows)
    if amplitude is not None:
        rows += [(seed + 1) * 7919 + i for seed in seeds for i in range(d)]
    floors = np.array([floor] * nr + [1.0] * (len(rows) - nr))
    floors = floors.reshape((-1,) + (1,) * d)
    if modes == 0:
        c = np.array([np.random.default_rng(r).standard_normal()
                      for r in rows]).reshape(floors.shape)
        fields = floors + np.broadcast_to(c * c, (len(rows),) + grid.shape)
    else:
        # spectral synthesis: white noise shaped by (1 + |k|^2)^-2 within
        # the mode box; the shaped spectrum stays Hermitian, so the field
        # is real. In place, each step gives the bits of floor + s * s.
        noise = lend(grid, (len(rows),))
        for out, r in zip(noise, rows):
            out[...] = np.random.default_rng(r).standard_normal(grid.shape)
        spec = forward(grid, noise, once=True)
        spec *= _smooth_amplitude(grid, modes)
        fields = inverse_once(grid, spec)
        del spec
        fields *= np.sqrt(grid.node_count)
        fields *= fields
        fields += floors
    rho = fields[:nr] if floor is not None else None
    u = None
    if amplitude is not None:
        comps = fields[nr:]
        n = grid.node_count
        comps -= (comps.reshape(-1, n).sum(axis=-1) / n).reshape(
            floors[nr:].shape)
        comps *= amplitude
        u = comps.reshape((ns, d) + grid.shape)
    return rho, u


def random_smooth_positive(grid, seed, modes, floor):
    """floor + s^2 for a seeded truncated random Fourier series s; see
    random_smooth_ensemble. Deterministic per seed."""
    return ScalarField(grid, random_smooth_ensemble(grid, (seed,), modes,
                                                    floor=floor)[0][0])


@functools.lru_cache(maxsize=8)
def _smooth_amplitude(grid, modes):
    """Read-only (1 + |k|^2)^-2 on the mode box |k_i| <= modes, zero
    elsewhere, in rfft layout."""
    k2 = 0.0
    box = True
    for idx in mode_indices(grid):
        k2 = k2 + idx.astype(float) ** 2
        box = box & (np.abs(idx) <= modes)
    amp = np.where(box, (1.0 + k2) ** -2, 0.0)
    amp.setflags(write=False)
    return amp


def random_smooth_vector(grid, seed, modes, amplitude=1.0):
    """Seeded smooth vector field for identity/inequality test ensembles;
    see random_smooth_ensemble."""
    return VectorField(grid, random_smooth_ensemble(
        grid, (seed,), modes, amplitude=amplitude)[1][0])
