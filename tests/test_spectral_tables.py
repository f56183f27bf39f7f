"""The spectral multiplier tables of a grid, and the bits of every spectral
multiply that reads them.

A grid holds its multipliers (ik per axis, the Laplacian, the upper-Hessian
rows, the 2/3 mask) and the smooth amplitudes as read-only complex128 tables
of the full rfft-layout shape, so a product with a spectrum runs numpy's
complex loop without a cast. Before them the grid held ik broadcast-shaped,
the Laplacian and Hessian rows real and the mask bool, and numpy cast them
on every multiply. Each operator is pinned here bit for bit against a
reference that multiplies by those old multipliers, in the operator's order
of operations, so neither a table nor a later change of that order can
move a result unseen.
"""

import math

import numpy as np
import pytest

from qnslab import fields, timeloop
from qnslab.fields import (TWO_PI, Grid, ScalarField, VectorField, _comp,
                           _upper_pairs, dealias, derivatives_arr, div_arr,
                           from_spectral, grad_arr, hess_arr, lap_arr,
                           mode_indices, random_smooth_ensemble,
                           random_smooth_positive, random_smooth_vector,
                           to_spectral)
from qnslab.physics import QnsParams, State, to_w
from qnslab.systems import rhs_approx_u, rhs_approx_w

SHAPES = [(32,), (16, 24), (8, 12, 16)]
IDS = ["x".join(map(str, n)) for n in SHAPES]
PARAMS = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3, r0=0.1, r1=0.2)


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(_bits(got), _bits(ref))


def _old(grid):
    """(ik, Lap, Hessian rows, mask) as the grid held them before the
    tables: ik complex and shaped to broadcast, one per axis; the Laplacian
    and the upper-Hessian rows real; the 2/3 mask bool."""
    idx = mode_indices(grid)
    ks = [TWO_PI / L * np.where(2 * np.abs(i) == m, 0, i)
          for i, m, L in zip(idx, grid.n, grid.length)]
    ik = tuple(1j * k for k in ks)
    lap = -sum(k * k for k in ks)
    hess = tuple((ik[i] * ik[j]).real for i, j in _upper_pairs(grid.dim))
    mask = True
    for i, m in zip(idx, grid.n):
        mask = mask & (np.abs(i) <= m // 3)
    return ik, lap, hess, mask


def _old_amplitude(grid, modes):
    """The smooth amplitude as a real array, as it was before the tables."""
    k2, box = 0.0, True
    for idx in mode_indices(grid):
        k2 = k2 + idx.astype(float) ** 2
        box = box & (np.abs(idx) <= modes)
    return np.where(box, (1.0 + k2) ** -2, 0.0)


def _rows(grid, arr, mults):
    """m * to_spectral(arr) for each m of mults on a new axis before the
    grid axes, inverted."""
    hat = to_spectral(grid, arr)
    return from_spectral(grid, np.stack([m * hat for m in mults],
                                        axis=-grid.dim - 1))


def _ref_div(grid, vec, ik):
    hat = to_spectral(grid, vec)
    spec = ik[0] * hat[_comp(grid, 0)]
    for j in range(1, grid.dim):
        spec += ik[j] * hat[_comp(grid, j)]
    return from_spectral(grid, spec)


def _ref_hess(grid, arr, hess):
    upper = _rows(grid, arr, hess)
    d = grid.dim
    out = np.empty(upper.shape[:-grid.dim - 1] + (d, d) + grid.shape)
    for p, (i, j) in enumerate(_upper_pairs(d)):
        out[_comp(grid, i, j)] = out[_comp(grid, j, i)] = \
            upper[_comp(grid, p)]
    return out


def _noise(grid, lead, seed=0):
    return np.random.default_rng(seed).standard_normal(lead + grid.shape)


@pytest.mark.parametrize("n", SHAPES, ids=IDS)
def test_tables_are_shared_read_only_complex_rfft_layout(n):
    grid = Grid(n)
    twin = Grid(n, length=(TWO_PI,) * len(n))
    assert twin == grid and twin is not grid
    shape = n[:-1] + (n[-1] // 2 + 1,)
    tables = [*grid._ik, grid._lap, *grid._hess, grid._mask,
              fields._smooth_amplitude(grid, 2)]
    assert len(tables) == len(n) * (len(n) + 3) // 2 + 3
    for table in tables:
        assert table.dtype == np.complex128 and table.shape == shape
        assert table.flags.c_contiguous and not table.flags.writeable
    # two equal grids hold the same table objects
    for name in ("_ik", "_hess"):
        assert all(a is b for a, b in zip(getattr(grid, name),
                                          getattr(twin, name)))
    assert twin._lap is grid._lap and twin._mask is grid._mask
    # each entry is the value numpy's cast gave the old multiplier
    ik, lap, hess, mask = _old(grid)
    olds = [*ik, lap, *hess, mask, _old_amplitude(grid, 2)]
    for table, old in zip(tables, olds):
        _assert_bitwise(table, np.broadcast_to(old, shape).astype(complex))
    assert grid.kmax == max(np.max(np.abs(m)) for m in ik)


@pytest.mark.parametrize("n", SHAPES, ids=IDS)
def test_derivative_operators_match_old_multipliers_bitwise(n):
    grid = Grid(n)
    ik, lap, hess, mask = _old(grid)
    d = grid.dim
    for lead in ((), (2,)):
        f = _noise(grid, lead, 1)
        vec = _noise(grid, lead + (d,), 2)
        _assert_bitwise(grad_arr(grid, f), _rows(grid, f, ik))
        _assert_bitwise(grad_arr(grid, vec), _rows(grid, vec, ik))
        _assert_bitwise(div_arr(grid, vec), _ref_div(grid, vec, ik))
        _assert_bitwise(lap_arr(grid, f), _rows(grid, f, [lap])[
            _comp(grid, 0)])
        _assert_bitwise(hess_arr(grid, f), _ref_hess(grid, f, hess))
        refs = {"grad": _rows(grid, vec, ik),
                "hess": _ref_hess(grid, vec, hess),
                "lap": _rows(grid, vec, [lap])[_comp(grid, 0)]}
        kinds = ("grad", "hess", "lap")
        for got, kind in zip(derivatives_arr(grid, vec, kinds), kinds):
            _assert_bitwise(got, refs[kind])
    f = _noise(grid, (), 3)
    vec = _noise(grid, (d,), 4)
    _assert_bitwise(dealias(ScalarField(grid, f)).values,
                    from_spectral(grid, mask * to_spectral(grid, f)))
    _assert_bitwise(dealias(VectorField(grid, vec)).values,
                    from_spectral(grid, mask * to_spectral(grid, vec)))


def _ref_ensemble(grid, seeds, modes, floor, amplitude):
    """random_smooth_ensemble's arithmetic on plain arrays, with the real
    amplitude."""
    d = grid.dim
    rows = list(seeds) + [(seed + 1) * 7919 + i for seed in seeds
                          for i in range(d)]
    noise = np.stack([np.random.default_rng(r).standard_normal(grid.shape)
                      for r in rows])
    spec = to_spectral(grid, noise)
    spec *= _old_amplitude(grid, modes)
    out = from_spectral(grid, spec)
    out *= np.sqrt(grid.node_count)
    out *= out
    floors = np.array([floor] * len(seeds) + [1.0] * (len(rows) - len(seeds)))
    out += floors.reshape((-1,) + (1,) * d)
    comps = out[len(seeds):]
    n = grid.node_count
    comps -= (comps.reshape(-1, n).sum(axis=-1) / n).reshape(
        (-1,) + (1,) * d)
    comps *= amplitude
    return out[:len(seeds)], comps.reshape((len(seeds), d) + grid.shape)


@pytest.mark.parametrize("n", SHAPES, ids=IDS)
def test_smooth_ensemble_matches_old_amplitude_bitwise(n):
    grid = Grid(n)
    modes = min(n) // 3
    seeds = (3, 11)
    rho, u = random_smooth_ensemble(grid, seeds, modes, floor=0.5,
                                    amplitude=0.7)
    ref_rho, ref_u = _ref_ensemble(grid, seeds, modes, 0.5, 0.7)
    _assert_bitwise(rho, ref_rho)
    _assert_bitwise(u, ref_u)


class _OldGrid(Grid):
    """A grid equal to its model that holds the old multipliers."""

    __slots__ = ()

    def __init__(self, grid):
        super().__init__(grid.n, grid.length)
        self._ik, self._lap, self._hess, self._mask = _old(grid)


def _state_of(grid, y, form, time=0.0):
    return State(ScalarField(grid, y[0]), VectorField(grid, y[1:]),
                 form=form, time=time)


def _spectrum(rhs, state):
    """The spectral right-hand side, copied: outside a scope its workspace
    stack is free once the call returns."""
    return rhs(state, PARAMS, spectral=True).copy()


def _ref_imex(grid, rhs, y0, form, dt):
    """The IMEX step with the right-hand sides on grid and the real ETD
    multipliers computed row by row, in the step's order."""
    c_rho, c_vel = timeloop._linear_coeffs(form, PARAMS, grid.dim)
    lap = _old(grid)[1]
    per_row = []
    for c in (c_rho,) + (c_vel,) * grid.dim:
        z = c * lap * dt
        per_row.append((np.exp(z), dt * timeloop._phi1(z),
                        timeloop._phi2(z)))
    ez, dt_phi1, phi2 = (np.stack(m) for m in zip(*per_row))
    a_hat = to_spectral(grid, y0)
    f0_hat = _spectrum(rhs, _state_of(grid, y0, form))
    m_hat = ez * f0_hat
    f0_hat *= dt_phi1
    a_hat += f0_hat
    ya = from_spectral(grid, a_hat)
    fa_hat = _spectrum(rhs, _state_of(grid, ya, form, dt))
    fa_hat -= m_hat
    fa_hat *= phi2
    y1 = from_spectral(grid, fa_hat)
    y1 *= dt
    y1 += ya
    return y1


def _ref_rk4(grid, rhs, y0, form, dt):
    ks = [from_spectral(grid, _spectrum(rhs, _state_of(grid, y0, form)))]
    for c in (0.5, 0.5, 1.0):
        y = y0 + c * dt * ks[-1]
        ks.append(from_spectral(grid, _spectrum(
            rhs, _state_of(grid, y, form, c * dt))))
    k1, k2, k3, k4 = ks
    return y0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize("n", SHAPES, ids=IDS)
@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("scheme", ["imex", "rk4-explicit"])
def test_step_matches_old_multipliers_bitwise(n, form, scheme):
    grid = Grid(n)
    modes = min(n) // 3
    state = State(random_smooth_positive(grid, 3, modes, 2.0),
                  random_smooth_vector(grid, 3, modes), form="u")
    if form == "w":
        state = to_w(state, PARAMS)
    rhs = rhs_approx_u if form == "u" else rhs_approx_w
    dt = 1e-4
    y0 = np.concatenate([state.rho.values[None], state.vel.values])
    old = _OldGrid(grid)
    # the arenas keep one grid per thread and the grids are equal: the
    # reference builds its arenas from the old multipliers
    fields._store.empty()
    try:
        ref = (_ref_imex if scheme == "imex" else _ref_rk4)(
            old, rhs, y0, form, dt)
    finally:
        fields._store.empty()
    new = timeloop.step(state, PARAMS, rhs, dt, scheme=scheme)
    assert math.isclose(new.time, dt)
    _assert_bitwise(new.rho.values, ref[0])
    _assert_bitwise(new.vel.values, ref[1:])
