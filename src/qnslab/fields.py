"""Periodic grids, field containers, and spectral/finite-difference calculus.

Everything downstream (composite operators, functionals, right-hand sides)
is built on the primitives here: Fourier-collocation derivatives on a uniform
periodic lattice, rectangle-rule quadrature (exact for resolved trigonometric
polynomials), 2/3-rule dealiasing, and a seeded smooth-positive field
generator used by the verification suites.

Every transform of the package goes through to_spectral, its 2/3-masked
form to_spectral_masked, and from_spectral. They call the pocketfft
gufuncs of numpy's private numpy.fft._pocketfft_umath module directly, one
axis pass at a time in the order numpy.fft.rfftn and irfftn use, with the
factors numpy computes, so their results are bitwise equal to numpy.fft's
(the masked form's on the modes it keeps). They skip its Python wrappers
and argument handling, and the inverse reuses one complex work stack for
its axis passes where irfftn allocates a fresh one per pass. The
last-axis passes run on the gufuncs' default axis, as rfft_n_even(arr, 1,
out) and irfft(work, 1/n, out), with no axes to parse; the passes over the
leading grid axes name theirs. A numpy release that changes those gufuncs
fails the bitwise test of tests/test_fields.py.

Every spectral multiply reads a table: a read-only, C-contiguous complex128
array of the full rfft-layout shape. A grid holds ik per axis, the
Laplacian, the upper-Hessian rows and the 2/3 mask, built once per grid
shape (n, length) and shared by equal grids (_multipliers); the smooth
amplitudes, the mollifier's low-pass box and the ETD multipliers are
tables too. Each entry is the complex value numpy's cast gives the real or
bool multiplier, so a product has the bits of the cast product and runs
without the cast or a broadcast inner loop.

Stacks have one owner, the calling thread's store of raw byte buffers
(_Store). The right-hand sides and the time step carve theirs from it
once, each an Arena built on its first call and reused by every later one
(arena); a stack of an arena is valid until its owner's next call or the
next workspace scope on the thread. Everything else that works in stacks
(the spectral operators, the Derived bundles, the functionals and the
seeded checks) borrows them inside a workspace scope, from the store's
first byte over the idle arenas, and gives them back (lend, release,
in_workspace): a stack's bytes return once it and every stack lent after
it are given back. A lent stack is valid until it is given back or the
outermost scope exits.

Independent jobs (a verify pass's seed chunks, a sweep's points) run on
one process map, fork_map: a forked child, on an empty store of its own,
runs each share of them after the first.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
import numbers
import os
import pickle
import sys
import threading

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

TWO_PI = 2.0 * np.pi

# The bytes of a thread's first store buffer (see _Store). It reserves
# address space, not memory: a 32^3 run's stacks (25 MB) fit without growth.
STORE_BYTES = 1 << 26

class Grid:
    """Uniform periodic lattice on [0, L1) x ... x [0, Ld), d in {1,2,3}.

    Node counts must be even and >= 8 per axis so the 2/3 dealiasing rule and
    Nyquist handling are well defined.
    """

    __slots__ = ("dim", "n", "length", "spacing", "shape", "volume", "kmax",
                 "_ik", "_lap", "_hess", "_sym", "_mask", "_coords", "_rows",
                 "_fft_axes", "_ifft_passes", "_irfft_fct", "_masked")

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
            if not 0 < L < math.inf:
                raise ValueError("domain extents must be positive and finite")
        self.dim = dim
        self.n = n
        self.length = length
        self.spacing = tuple(L / m for L, m in zip(length, n))
        self.shape = n
        self.volume = float(np.prod(length))

        # the spectral multipliers (see _multipliers), shared by equal grids
        (self._ik, self._lap, self._hess, self._mask,
         self.kmax) = _multipliers(self)
        # the index of each upper-triangle row and of the entries (i, j) and
        # (j, i) it fills, for _symmetric
        self._sym = tuple(
            (_comp(self, p), tuple(_comp(self, *e) for e in {(i, j), (j, i)}))
            for p, (i, j) in enumerate(_upper_pairs(dim)))

        self._coords = tuple(
            np.arange(m) * h for m, h in zip(n, self.spacing))
        # (row shape, bytes per row, dtype) of a nodal and of a spectral
        # stack
        spec = n[:-1] + (n[-1] // 2 + 1,)
        self._rows = ((n, 8 * int(np.prod(n)), float),
                      (spec, 16 * int(np.prod(spec)), complex))
        # the gufunc arguments of the axis passes over the leading grid axes:
        # the forward is rfft on the last grid axis, then fft in place on
        # the others from the last to the first; the inverse is ifft on each
        # leading grid axis from the first, then irfft on the last, each
        # scaled by 1/n of its axis (numpy's "backward" norm). The last-axis
        # passes run on the gufuncs' default axis and take no axes.
        def axes(a):
            return [(a,), (), (a,)]
        self._fft_axes = tuple(axes(a) for a in range(-2, -dim - 1, -1))
        self._ifft_passes = tuple((axes(a - dim), 1 / m)
                                  for a, m in enumerate(n[:-1]))
        self._irfft_fct = 1 / n[-1]
        self._masked = _masked_passes(n)

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


def _masked_passes(n):
    """The axis passes and the zero fills of to_spectral_masked on a grid
    of node counts n, each a row index (Ellipsis first, so batch axes pass
    through). After the last-axis rfft, the pass over each leading axis,
    from the last to the first, runs on the rows that the 2/3 mask keeps of
    the axes passed before it, one index per run of kept rows; then each
    axis's dropped modes are zeroed, on the kept columns of the last axis
    (the last axis's dropped columns on every row). Along a leading axis
    of m nodes the mask keeps the rows of |k| <= m // 3, 0..k and m-k..m-1;
    along the last it keeps the columns 0..k."""
    dim, full = len(n), slice(None)
    ks = [m // 3 for m in n]
    kept = [(slice(0, k + 1), slice(m - k, None)) for m, k in
            zip(n[:-1], ks)] + [(slice(0, ks[-1] + 1),)]
    cols = kept[-1][0]
    passes = tuple(
        ((Ellipsis,) + (full,) * (a + 1) + later, [(a - dim,), (), (a - dim,)])
        for a in range(dim - 2, -1, -1)
        for later in itertools.product(*kept[a + 1:]))
    zeros = ((Ellipsis, slice(ks[-1] + 1, None)),) + tuple(
        (Ellipsis,) + (full,) * a + (slice(k + 1, m - k),)
        + (full,) * (dim - 2 - a) + (cols,)
        for a, (m, k) in enumerate(zip(n[:-1], ks)))
    return passes, zeros


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _table(m, shape):
    """m broadcast to shape as a read-only C-contiguous complex128 array:
    the value numpy's cast gives each entry of a real or bool m, so a
    product with a spectrum keeps its bits."""
    out = np.empty(shape, complex)
    out[...] = m
    return _freeze(out)


@functools.lru_cache(maxsize=None)
def _multipliers(grid):
    """(ik per axis, Laplacian, upper-Hessian rows, 2/3 mask, kmax) of a
    grid, each multiplier a _table of the rfft-layout shape. Built once per
    grid shape (n, length), which is what grids compare by, and never
    freed.

    The wavenumbers have the Nyquist mode zeroed, so d/dx of a real field
    is real and div(grad f) == laplacian f holds to roundoff by
    construction. The Laplacian is -sum k^2, -0.0 at k = 0, and the
    Hessian rows ik_i * ik_j = -k_i k_j of the upper triangle i <= j are
    real."""
    n = grid.n
    idx = mode_indices(grid)
    shape = n[:-1] + (n[-1] // 2 + 1,)
    ks = [TWO_PI / L * np.where(2 * np.abs(i) == m, 0, i)
          for i, m, L in zip(idx, n, grid.length)]
    ik = [1j * k for k in ks]
    hess = [(ik[i] * ik[j]).real for i, j in _upper_pairs(grid.dim)]
    return (tuple(_table(m, shape) for m in ik),
            _table(-sum(k * k for k in ks), shape),
            tuple(_table(m, shape) for m in hess),
            _table(_mode_box(grid, [m // 3 for m in n]), shape),
            max(np.max(np.abs(k)) for k in ks))


class _Field:
    """A read-only copy of nodal samples on a Grid, _depth axes of length
    dim before the grid axes. Immutable once constructed."""

    __slots__ = ("grid", "values")
    _depth = 0

    def __init__(self, grid, values):
        v = np.array(values, dtype=float, copy=True)
        v = v.reshape((grid.dim,) * self._depth + grid.shape)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _freeze(v))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ScalarField(_Field):
    """Nodal samples of a scalar on a Grid. Immutable once constructed."""

    __slots__ = ()

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, fn(*grid.meshgrid()))

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(grid.shape, float(c)))


class VectorField(_Field):
    """dim scalar components sharing a Grid; stored as one (dim, *n) array."""

    __slots__ = ()
    _depth = 1

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    def component(self, i):
        return ScalarField(self.grid, self.values[i])


class TensorField(_Field):
    """dim x dim scalar components sharing a Grid; (dim, dim, *n) array."""

    __slots__ = ()
    _depth = 2

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


def _mode_box(grid, cutoffs):
    """The bool mask, shaped to broadcast against the rfft layout, of the
    modes with every |k_i| <= cutoffs[i] (integer index units)."""
    box = True
    for idx, c in zip(mode_indices(grid), cutoffs):
        box = box & (np.abs(idx) <= c)
    return box


# ---------------------------------------------------------------------------
# the stack store: the arenas of the right-hand sides and the step, and the
# workspace scopes of the bundles, functionals and checks
# ---------------------------------------------------------------------------

def _anonymous_map(size):
    """An anonymous memory map of size bytes, private to the process: a
    child forked from it writes its own copy of the pages, not the
    parent's (mmap's default on POSIX, MAP_SHARED, would share them)."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, size)


class _Store(threading.local):
    """One thread's stacks, in raw byte buffers: private anonymous memory
    maps (_anonymous_map), which start on a page boundary and hold only the
    pages written. A buffer never moves, so a view of it stays valid. The
    first holds STORE_BYTES. The store grows by adding a buffer at least as
    large as all before it, and the outermost scope's exit replaces a
    grown store by one buffer of its size; arenas on another grid empty it
    (see arena). Every stack starts on a 64-byte boundary.

    A mark (buffer index, offset) is a position in the store. The arenas
    carve their stacks one after another from the first byte, up to
    carved, and keep them: arenas maps a key to the Arena of grid. A
    workspace scope lends from the first byte too, over the arenas, which
    hold no value while it runs (see arena): index, buf and at are its top
    mark and the buffer it lies in, lent holds (the mark before it, the
    stack) of each stack it has lent and not given back, and depth counts
    the nested scopes."""

    def __init__(self):
        self.depth = 0
        self.empty()

    def empty(self):
        """Drop every buffer and arena: the store starts over."""
        self.buffers = [_anonymous_map(STORE_BYTES)]
        self.grid, self.arenas, self.carved = None, {}, (0, 0)
        self.index, self.buf, self.at = 0, self.buffers[0], 0
        self.lent = []

    def take(self, mark, shape, dtype):
        """A stack of shape and dtype at mark, or at the start of the first
        later buffer that holds it, adding one if none does; and the mark
        after it."""
        i, at = mark
        while True:
            if i == len(self.buffers):
                self.buffers.append(_anonymous_map(max(
                    math.prod(shape) * np.dtype(dtype).itemsize,
                    sum(map(len, self.buffers)))))
            try:
                out = np.ndarray(shape, dtype, self.buffers[i], at)
            except TypeError:   # it runs past the buffer's end
                i, at = i + 1, 0
                continue
            return out, (i, at + -(-out.nbytes // 64) * 64)


_store = _Store()


# ---------------------------------------------------------------------------
# the process map: independent jobs split over forked children
# ---------------------------------------------------------------------------

def _workers(jobs):
    """The number of processes fork_map runs jobs jobs on: one per usable
    CPU (the affinity mask), at most one per job. One where os.fork is
    missing or not Linux's, and while another Python thread is alive: a
    child forked then could inherit a lock held by a thread that does not
    run in it."""
    if (not sys.platform.startswith("linux") or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def _shares(costs, count):
    """count contiguous, nonempty (start, stop) ranges of the jobs with
    costs, each ending at the job whose running cost total comes nearest
    its equal part of the whole."""
    cum = list(itertools.accumulate(costs))
    cuts = [0]
    for k in range(1, count):
        target = cum[-1] * k / count
        stop = min(range(len(cum)), key=lambda i: abs(cum[i] - target)) + 1
        cuts.append(min(max(stop, cuts[-1] + 1), len(cum) - count + k))
    cuts.append(len(cum))
    return list(zip(cuts, cuts[1:]))


def fork_map(fn, jobs, costs):
    """[fn(job) for job in jobs], on _workers() processes.

    The jobs are cut into contiguous shares of about equal cost (costs, one
    per job). This process runs the first share and a forked child each
    later one (_fork); the results come in job order, whatever the number
    of processes. The children inherit none of the store's maps
    (MADV_DONTFORK, where the platform has it), so this process writes
    their pages after the fork without a copy-on-write fault each. Every
    child is reaped before this returns or raises."""
    count = _workers(len(jobs))
    shares = [jobs[start:stop] for start, stop in _shares(costs, count)]
    kept = list(_store.buffers) if hasattr(mmap, "MADV_DONTFORK") else []
    children = []
    try:
        for buf in kept:
            buf.madvise(mmap.MADV_DONTFORK)
        try:
            for share in shares[1:]:
                _fork(fn, share, children)
        finally:
            for buf in kept:
                buf.madvise(mmap.MADV_DOFORK)
        results = [fn(job) for job in shares[0]]
        while children:
            results += _receive(children)
        return results
    finally:
        for pid, pipe in children:
            from signal import SIGKILL   # loads only when a child is left
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _fork(fn, share, children):
    """Fork a child that runs fn on each job of share, on a store of its
    own, and sends back through a pipe, pickled, the list of what fn
    returns or the class, args and attributes of what it raises, then ends
    by os._exit: it runs no exit handler or buffer flush of this process.
    Append (its pid, the pipe's read end) to children."""
    r, w = os.pipe()
    pipe = open(r, "rb")
    try:
        pid = os.fork()
    except BaseException:
        pipe.close()
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            pipe.close()
            what = "its results"
            try:
                _store.empty()
                payload = True, [fn(job) for job in share]
            except BaseException as exc:
                payload = False, (type(exc), exc.args, vars(exc))
                what = f"{type(exc).__qualname__}: {exc}"
            try:
                data = pickle.dumps(payload)
            except Exception as exc:   # a class or value pickle cannot name
                data = pickle.dumps((False, (RuntimeError, (
                    f"a forked worker could not send {what} ({exc})",),
                    {})))
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    children.append((pid, pipe))
    os.close(w)


def _receive(children):
    """What the first of children [(pid, pipe)] sent, once it has ended and
    been reaped (it leaves the list then). What it raised is raised here,
    with its class, args and attributes; a RuntimeError if it ended without
    sending."""
    pid, pipe = children[0]
    with pipe:
        data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    del children[0]
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError(f"a forked worker ended with exit code {code} "
                           f"before it sent its results")
    ok, value = pickle.loads(data)
    if ok:
        return value
    cls, args, attributes = value
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(attributes)
    raise exc


class Arena:
    """The stacks one owner (a right-hand side's layout or a step scheme)
    works in on one grid, carved from the thread's store once: buffers
    lists them, and the owner keeps its views of them as attributes. A
    stack holds no value from one call of its owner to the next: each call
    writes what it reads, and a workspace scope may write over it between
    calls."""

    def __init__(self, grid):
        self.grid = grid
        self.buffers = []

    def stack(self, lead, spectral=False):
        """A new stack of shape lead + the nodal (or rfft-layout) row
        shape."""
        row, _, dtype = self.grid._rows[spectral]
        out, _store.carved = _store.take(_store.carved, lead + row, dtype)
        self.buffers.append(out)
        return out


def arena(grid, key, build, *args):
    """The calling thread's Arena of key on grid, filled by build(arena,
    *args) on the thread's first call with key on the grid. The arenas
    keep one grid per thread: a call on another grid empties the store, so
    the thread keeps only what the new grid needs. A RuntimeError inside a
    workspace scope, whose stacks lie over the arenas'."""
    st = _store
    if st.depth:
        raise RuntimeError("an arena is not available inside a workspace "
                           "scope")
    if st.grid is not grid:
        if st.grid != grid:
            st.empty()
        st.grid = grid
    try:
        return st.arenas[key]
    except KeyError:
        new = Arena(grid)
        build(new, *args)
        st.arenas[key] = new
        return new


def real_rows(grid, spec):
    """The real stack of spec's lead written over spec's own memory: a
    real row takes fewer bytes than a row of the rfft layout. In 1D numpy
    resolves the overlap of from_spectral(grid, spec, real_rows(grid,
    spec)) by a copy; in 2D and 3D the last pass reads from_spectral's work
    stack, so there is none."""
    shape = spec.shape[:spec.ndim - grid.dim] + grid.shape
    return spec.reshape(-1).view(float)[:math.prod(shape)].reshape(shape)


def in_workspace(fn):
    """fn run in a workspace scope: lend() draws stacks from the thread's
    store, and when the outermost scope exits, normally or by an
    exception, every stack still lent returns to it. The spectral
    operators (grad_arr, div_arr, lap_arr, hess_arr, derivatives_arr) lend
    their spectra and outputs, so no array they return may outlive the
    scope. A scope's stacks lie over the arenas', so no right-hand side or
    step runs inside one (arena raises)."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        st = _store
        st.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            st.depth -= 1
            if not st.depth:
                # a stage that raised left its stacks lent; nothing reads
                # them
                st.lent = []
                if len(st.buffers) > 1:
                    # the store grew: one buffer in place of them all, so
                    # later scopes and arenas find no seam; the arenas,
                    # which hold no value, are carved anew by their owners
                    st.buffers = [_anonymous_map(sum(map(len, st.buffers)))]
                    st.arenas, st.carved = {}, (0, 0)
                st.index, st.buf, st.at = 0, st.buffers[0], 0
    return scoped


def lend(grid, lead, spectral=False):
    """An uninitialized stack of shape lead + the grid's nodal row shape, or
    + its rfft-layout row shape if spectral.

    Inside an in_workspace scope it comes from the thread's store, on top
    of the stacks lent before it: it stays lent until release() or the
    outermost scope's exit and must not outlive it. Outside any scope it
    is a plain array."""
    row, _, dtype = grid._rows[spectral]
    st = _store
    if not st.depth:
        return np.empty(lead + row, dtype)
    mark = st.index, st.at
    try:
        out = np.ndarray(lead + row, dtype, st.buf, st.at)
        st.at += -(-out.nbytes // 64) * 64
    except TypeError:   # it runs past the end of the top buffer
        out, (st.index, st.at) = st.take((st.index + 1, 0), lead + row,
                                         dtype)
        st.buf = st.buffers[st.index]
    st.lent += ((mark, out),)  # in place, without append's method call
    return out


def release(*stacks):
    """Give back each of stacks that is a stack lent in the workspace scope
    and not given back yet, or a view of one (such as inverse_once of it);
    other arrays are ignored. The last stack lent goes back at once. One
    lent below it is marked given back: its bytes join the stack lent just
    after it and go back with that one, so a stack goes back once every
    stack lent after it has."""
    st = _store
    lent = st.lent
    for arr in stacks[::-1]:
        # a view of a stack has the stack as its base: the store's buffers
        # are not arrays, so numpy stops there
        base = arr.base
        k = -1
        for mark, stack in lent[::-1]:
            if stack is arr or stack is base:
                if k == -1:
                    del lent[-1]
                    st.index, st.at = mark
                    st.buf = st.buffers[st.index]
                else:
                    lent[k + 1] = mark, lent[k + 1][1]
                    del lent[k]
                break
            k -= 1


def _lead(grid, arr, depth=0):
    """The leading batch axes of arr before its grid axes and depth
    component axes."""
    return arr.shape[:arr.ndim - grid.dim - depth]


def inverse_once(grid, spec):
    """from_spectral of a spectral stack that is not read again. In 2D and
    3D the real rows of a lent stack are written over its own memory
    (real_rows), so release() of the result gives the stack back; in 1D
    they are a plain array, and the stack goes back at once."""
    if spec.base is None or grid.dim == 1:
        # a plain array, or a 1D stack, whose real rows numpy would copy
        out = from_spectral(grid, spec)
        release(spec)
        return out
    return from_spectral(grid, spec, real_rows(grid, spec))


# ---------------------------------------------------------------------------
# array-level calculus (used internally; public field ops wrap these)
# ---------------------------------------------------------------------------

def to_spectral(grid, arr, out=None):
    """Real FFT over the trailing grid axes; leading axes are a batch.

    Bitwise equal to numpy.fft.rfftn (rfft in 1D). Every axis pass writes
    into one output, out if given, so the transform allocates at most once.
    Node counts are even, so the last axis takes pocketfft's even rfft.
    """
    if out is None:
        out = np.empty(arr.shape[:-1] + (grid.n[-1] // 2 + 1,), complex)
    _pocketfft.rfft_n_even(arr, 1, out)
    for axes in grid._fft_axes:
        _pocketfft.fft(out, 1, out=out, axes=axes)
    return out


def to_spectral_masked(grid, arr, out=None):
    """grid._mask * to_spectral(grid, arr): the 2/3-masked spectrum, whose
    kept modes have the bits of to_spectral's and whose dropped modes are
    zero. After the last-axis rfft the passes over the leading grid axes
    run only on the rows the mask keeps of the axes passed before them, and
    the dropped modes are filled with zeros (_masked_passes)."""
    if out is None:
        out = np.empty(arr.shape[:-1] + (grid.n[-1] // 2 + 1,), complex)
    _pocketfft.rfft_n_even(arr, 1, out)
    passes, zeros = grid._masked
    for index, axes in passes:
        rows = out[index]
        _pocketfft.fft(rows, 1, out=rows, axes=axes)
    for index in zeros:
        out[index] = 0
    return out


def from_spectral(grid, ahat, out=None):
    """Inverse of to_spectral: real nodal values on the grid, written to out
    if given.

    Bitwise equal to numpy.fft.irfftn (irfft in 1D). The passes over the
    leading grid axes share one complex work stack, where irfftn allocates
    one per pass, and ahat is only read.
    """
    if out is None:
        out = np.empty(ahat.shape[:-1] + grid.n[-1:])
    work = ahat
    if grid.dim > 1:
        work = np.empty_like(ahat)
        for axes, fct in grid._ifft_passes:
            _pocketfft.ifft(ahat, fct, out=work, axes=axes)
            ahat = work
    _pocketfft.irfft(work, grid._irfft_fct, out)
    return out


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
    return derivatives_arr(grid, arr, ("lap",))[0]


def _derivative_rows(grid, arr, mults):
    """from_spectral of m * to_spectral(arr) for each multiplier m of mults,
    on a new axis before the grid axes. The output's stack is lent before
    the forward spectrum, so the spectrum, once read, is the last stack
    lent and goes back."""
    spec = lend(grid, _lead(grid, arr) + (len(mults),), spectral=True)
    hat = to_spectral(grid, arr, lend(grid, _lead(grid, arr), True))
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
    # sum_j ik_j * hat[..., j, *m] into a lend() stack, lent before the
    # spectrum, as in _derivative_rows
    spec = lend(grid, _lead(grid, vec, 1), spectral=True)
    hat = to_spectral(grid, vec, lend(grid, _lead(grid, vec), True))
    lead = (slice(None),) * (hat.ndim - grid.dim - 1)
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
    return derivatives_arr(grid, arr, ("hess",))[0]


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
    copy = len(kinds) > 1 and not _store.depth
    out, start = [], 0
    for kind, ms in zip(kinds, groups):
        block = rows[_comp(grid, slice(start, start + len(ms)))]
        start += len(ms)
        if kind == "hess":
            out.append(_symmetric(grid, block, lend(
                grid, _lead(grid, block, 1) + (grid.dim,) * 2)))
            continue
        if kind == "lap":
            block = block[_comp(grid, 0)]
        out.append(block.copy() if copy else block)
    if "grad" not in kinds and "lap" not in kinds:
        # every block went to its symmetric tensor, and no view of the rows
        # is returned
        release(rows)
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
    return from_spectral(grid, to_spectral_masked(grid, arr))


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
    if not isinstance(f, (ScalarField, VectorField)):
        raise TypeError("dealias expects a ScalarField or VectorField")
    return type(f)(f.grid, dealias_arr(f.grid, f.values))


def as_int(name, value):
    """value as an int; a ValueError unless it is a number with an integral
    value and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(name, value):
    """value; a ValueError unless it is a finite real number and not a
    bool (JSON reads NaN, Infinity and true as numbers, and an integer
    literal of any size)."""
    try:
        ok = not isinstance(value, bool) and \
            isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def as_bool(name, value):
    """value; a ValueError unless it is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def check_smooth_args(grid, modes, floor=None):
    """modes as an int, once it (0 <= modes <= n/3 on every axis, dealias-safe)
    and floor (positive unless None) are in random_smooth_ensemble's range."""
    if floor is not None and not as_real("floor", floor) > 0:
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
            np.random.default_rng(r).standard_normal(out=out)
        spec = to_spectral(grid, noise, lend(grid, (len(rows),), True))
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
    """(1 + |k|^2)^-2 on the mode box |k_i| <= modes, zero elsewhere, as a
    _table of the rfft-layout shape."""
    k2 = 0.0
    for idx in mode_indices(grid):
        k2 = k2 + idx.astype(float) ** 2
    return _table(np.where(_mode_box(grid, (modes,) * grid.dim),
                           (1.0 + k2) ** -2, 0.0), grid._mask.shape)


def random_smooth_vector(grid, seed, modes, amplitude=1.0):
    """Seeded smooth vector field for identity/inequality test ensembles;
    see random_smooth_ensemble."""
    return VectorField(grid, random_smooth_ensemble(
        grid, (seed,), modes, amplitude=amplitude)[1][0])
