"""Initial data: scenario library, mollification, and admissibility norms.

Raw data may carry vacuum regions (rho0 = 0 on a set, with momentum vanishing
there). The mollifier turns any such pair into a smooth, strictly positive
u-form state: spectral low-pass with an eps-dependent cutoff, rectification,
a sixth-power floor rho0e = (rho_tilde^6 + eps^{24 sigma0})^{1/6}, and the
velocity reconstruction u0e = rho0e^{-1/2} m_tilde.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (Grid, ScalarField, VectorField, _mode_box, _table,
                     from_spectral, quad, to_spectral)
from .functionals import Derived
from .physics import QnsParams, State, require_formed, require_positive

SCENARIOS = ("uniform-rest", "acoustic-1d", "acoustic-2d", "vacuum-bump-1d")


@dataclass(frozen=True)
class RawData:
    """Nonnegative density with momentum vanishing on the vacuum set."""

    rho0: ScalarField
    m0: VectorField

    def __post_init__(self):
        if self.rho0.grid != self.m0.grid:
            raise ValueError("rho0 and m0 must share the grid")
        r = self.rho0.values
        if np.min(r) < 0:
            raise ValueError("rho0 must be nonnegative")
        vac = r == 0
        if np.any(vac) and np.any(self.m0.values[:, vac] != 0):
            raise ValueError("m0 must vanish on the vacuum set of rho0")

    @property
    def grid(self):
        return self.rho0.grid


def scenario(name, n=128, length=None):
    """Closed-form raw data by name; returns (RawData, recommended params)."""
    params = QnsParams(nu=1.0, kappa=1.0 / 11.0)
    if name == "uniform-rest":
        grid = Grid((n,) if isinstance(n, int) else tuple(n), length)
        rho0 = ScalarField.constant(grid, 1.0)
    elif name == "acoustic-1d":
        grid = Grid((n,), length)
        x = grid.coords()[0]
        rho0 = ScalarField(grid, 1.0 + 0.1 * np.sin(x))
    elif name == "acoustic-2d":
        nn = (n, n) if isinstance(n, int) else tuple(n)
        grid = Grid(nn, length)
        x, y = grid.meshgrid()
        rho0 = ScalarField(grid, 1.0 + 0.05 * np.sin(x) + 0.05 * np.cos(y))
    elif name == "vacuum-bump-1d":
        grid = Grid((n,), length)
        x = grid.coords()[0]
        rho0 = ScalarField(grid, np.maximum(0.0, np.sin(x)) ** 4)
        params = params.with_(eps=1e-3)
    else:
        raise KeyError(f"unknown scenario {name!r}; known: {SCENARIOS}")
    return RawData(rho0, VectorField.zero(grid)), params


def _lowpass(grid, arr, cutoff):
    """Keep Fourier modes with every |k_i| <= cutoff (integer index units)."""
    box = _table(_mode_box(grid, (cutoff,) * grid.dim), grid._mask.shape)
    return from_spectral(grid, box * to_spectral(grid, arr))


def mollify(raw, eps, params):
    """Smooth, strictly positive u-form state from possibly-vacuum raw data.

    Steps: (1) low-pass rho0 at cutoff ceil(eps^-sigma0) capped at the
    dealias limit, rectified to >= 0; (2) floor via the sixth-power formula,
    giving rho >= eps^{4 sigma0}, a VacuumError where the floor underflows
    to 0; (3) low-pass of rho0^{-1/2} m0 (zero on vacuum); (4) u =
    rho^{-1/2} times the smoothed momentum density.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = raw.grid
    sigma0 = params.sigma0
    # the floor's power, checked as QnsParams checks it for params.eps
    require_formed(lambda: (eps ** (24 * sigma0),))
    limit = grid.dealias_limit()
    # compared in logs, so eps^-sigma0 is formed only below the limit
    cutoff = (min(math.ceil(eps ** -sigma0), limit)
              if -sigma0 * math.log(eps) < math.log(limit) else limit)

    rho_t = np.maximum(0.0, _lowpass(grid, raw.rho0.values, cutoff))
    rho = (rho_t ** 6 + eps ** (24 * sigma0)) ** (1.0 / 6.0)
    require_positive(rho)

    r0 = raw.rho0.values
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(r0 > 0, raw.m0.values / np.sqrt(np.where(r0 > 0, r0, 1.0)), 0.0)
    m_t = _lowpass(grid, scaled, cutoff)
    u = m_t / np.sqrt(rho)
    return State(ScalarField(grid, rho), VectorField(grid, u), form="u",
                 time=0.0)


@dataclass(frozen=True)
class InitialDataReport:
    """Admissibility norms of an initial state; all entries should be finite."""

    norms: dict

    @property
    def all_finite(self):
        return all(np.isfinite(v) for v in self.norms.values())

    def __getitem__(self, key):
        return self.norms[key]


def validate_initial(state, params):
    """Compute the admissibility norms of a strictly positive initial state.

    Reports mass, pressure-energy, kinetic-energy, the sqrt-density gradient
    norms, the eps-weighted negative-power mass, the damped log-negative-part
    mass, and the slightly-higher-integrability norms used by the
    damping-free compactness argument (exponent 2 + eta, eta = 1/2 here).
    The derived state is read from one functionals.Derived bundle, so a
    w-form state is mapped back to u first.
    """
    d = Derived(state, params)
    grid, r, v, gv2, u2 = d.grid, d.rho, d.sqrt_rho, d.grad_sqrt_rho2, d.u2
    eta = 0.5
    norms = {
        "mass_l1": quad(grid, r),
        "rho_lgamma": quad(grid, r ** params.gamma) ** (1 / params.gamma),
        "kinetic": quad(grid, r * u2),
        "grad_sqrtrho_l2": math.sqrt(quad(grid, gv2)),
        "eps_grad_sqrtrho_l4_4": params.eps * quad(grid, gv2 ** 2),
        "eps_rho_negp_l1": (params.eps * quad(grid, d.rho_neg_p0)
                            if params.eps > 0 else 0.0),
        "r0_logminus_l1": params.r0 * quad(
            grid, np.abs(np.minimum(d.log_rho, 0.0))),
        "sqrtrho_l2eta": quad(grid, v ** (2 + eta)) ** (1 / (2 + eta)),
        "sqrtrho_u_l2eta": quad(grid, (v * np.sqrt(u2)) ** (2 + eta))
        ** (1 / (2 + eta)),
    }
    return InitialDataReport({k: float(val) for k, val in norms.items()})
