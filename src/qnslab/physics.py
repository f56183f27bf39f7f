"""Model parameters, admissibility constraints, and QNS-specific operators.

Houses the derived coefficient mu = nu - sqrt(nu^2 - kappa^2), the Derived
bundle of a density-velocity pair (or of a seed chunk of them), the three
equivalent algebraic forms of the Bohm (quantum-pressure) force, and the
effective-velocity change of variables w = u + mu * grad(log rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fields import (ScalarField, VectorField, as_bool, as_real,
                     derivatives_arr, div_arr, grad_arr, hess_arr, lap_arr,
                     lend, per_node, release)


class AdmissibilityError(ValueError):
    """A strict-mode parameter constraint is violated."""

    def __init__(self, inequality, detail=""):
        self.inequality = inequality
        super().__init__(f"admissibility violated: {inequality}"
                         + (f" ({detail})" if detail else ""))


class VacuumError(ValueError):
    """Density is nonpositive where strict positivity is required."""

    def __init__(self, bad_nodes, rho_min):
        self.bad_nodes = int(bad_nodes)
        self.rho_min = float(rho_min)
        super().__init__(
            f"nonpositive density at {bad_nodes} node(s), min={rho_min:g}")


MODES = ("desk", "paper")   # see QnsParams and paper_params


def mu_of(nu, kappa):
    """mu = nu - sqrt(nu^2 - kappa^2), requires 0 <= kappa <= nu; computed
    as kappa t / (1 + sqrt(1 - t^2)), t = kappa / nu, which neither cancels
    as kappa -> 0 nor overflows as nu^2 does."""
    if kappa < 0 or kappa > nu:
        raise AdmissibilityError("0 <= kappa <= nu",
                                 f"nu={nu}, kappa={kappa}")
    t = kappa / nu if kappa else 0.0
    return kappa * t / (1.0 + math.sqrt(1.0 - t * t))


@dataclass(frozen=True)
class QnsParams:
    """Physical and regularization constants.

    mu is derived from (nu, kappa), once per instance. p0 and sigma0
    default to desk-scale exponents, resolvable on modest grids; mode is
    "desk" or "paper" (paper_params); reports carry it so results are never
    silently mixed. With strict, params that fail a non-informational check
    of check_constraints raise AdmissibilityError naming that check.
    """

    nu: float = 1.0
    kappa: float = 0.0
    gamma: float = 2.0
    a: float = 1.0
    r0: float = 0.0
    r1: float = 0.0
    eps: float = 0.0
    p0: float = 4.0
    sigma0: float = 0.05
    strict: bool = False
    mode: str = "desk"

    def __post_init__(self):
        for name in ("nu", "kappa", "gamma", "a", "r0", "r1", "eps", "p0",
                     "sigma0"):
            as_real(name, getattr(self, name))
        as_bool("strict", self.strict)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got "
                             f"{self.mode!r}")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        mu = self.mu    # mu_of checks 0 <= kappa <= nu
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.r0 < 0 or self.r1 < 0 or self.eps < 0:
            raise ValueError("r0, r1, eps must be nonnegative")
        if self.p0 <= 0 or self.sigma0 <= 0:
            raise ValueError("p0 and sigma0 must be positive")
        # coefficients that the code forms
        se = math.sqrt(self.eps)
        require_formed(lambda: (
            self.kappa ** 2, self.eps ** 1.5, 400 * mu * mu,
            self.eps ** (24 * self.sigma0), 2 * self.nu + se + mu,
            2 * self.kappa ** 2 + 2 * mu * se, self.eps * mu,
            self.eps * self.p0, self.a * self.gamma))
        if self.strict:
            for c in check_constraints(self).checks:
                if not (c.passed or c.informational):
                    raise AdmissibilityError(
                        c.name, f"lhs={c.lhs:g}, rhs={c.rhs:g}")

    @cached_property
    def mu(self):
        return mu_of(self.nu, self.kappa)

    def with_(self, **kw):
        return replace(self, **kw)


def paper_params(**kw):
    """QnsParams of mode "paper", with the analysis-scale constants p0 = 50
    and sigma0 = 1e-10 unless kw sets them. They make the regularization
    terms either negligible or catastrophically stiff numerically."""
    return QnsParams(**{"p0": 50.0, "sigma0": 1e-10, "mode": "paper", **kw})


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    informational: bool = False


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple
    mode: str

    @property
    def passed(self):
        return all(c.passed or c.informational for c in self.checks)

    def by_name(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_constraints(params):
    """Admissibility report: 11k <= nu, the two derived inequalities and
    gamma in (1, 3).

    With kappa = 0 the chain 400 mu^2 < kappa^2 degenerates to 0 < 0; it is
    reported as informational rather than a failure (no-dispersion runs).
    """
    nu, kappa, mu = params.nu, params.kappa, params.mu
    degenerate = kappa == 0.0
    checks = (
        ConstraintCheck("11*kappa <= nu", 11 * kappa, nu, 11 * kappa <= nu),
        ConstraintCheck("20*mu < nu", 20 * mu, nu, 20 * mu < nu,
                        informational=degenerate and not 20 * mu < nu),
        ConstraintCheck("400*mu^2 < kappa^2", 400 * mu * mu, kappa * kappa,
                        400 * mu * mu < kappa * kappa,
                        informational=degenerate),
        ConstraintCheck("gamma in (1,3)", params.gamma, 3.0,
                        1.0 < params.gamma < 3.0),
    )
    return ConstraintReport(checks=checks, mode=params.mode)


@dataclass(frozen=True)
class State:
    """Density-velocity pair tagged with its formulation ("u" or "w")."""

    rho: ScalarField
    vel: VectorField
    form: str = "u"
    time: float = 0.0

    def __post_init__(self):
        if self.form not in ("u", "w"):
            raise ValueError(f"form must be 'u' or 'w', got {self.form!r}")
        if not (isinstance(self.rho, ScalarField)
                and isinstance(self.vel, VectorField)):
            raise ValueError("rho must be a ScalarField and vel a "
                             "VectorField")
        if self.rho.grid != self.vel.grid:
            raise ValueError("rho and vel must share the grid")

    @property
    def grid(self):
        return self.rho.grid


def _state_of(grid, rho, vel, form, time):
    """The State of the density and velocity arrays, made read-only and
    held as they are: no copies and no checks, so it is valid only while
    the arrays keep their values."""
    rho.setflags(write=False)
    vel.setflags(write=False)
    rho_field = object.__new__(ScalarField)
    vel_field = object.__new__(VectorField)
    object.__setattr__(rho_field, "grid", grid)
    object.__setattr__(rho_field, "values", rho)
    object.__setattr__(vel_field, "grid", grid)
    object.__setattr__(vel_field, "values", vel)
    state = object.__new__(State)
    state.__dict__.update(rho=rho_field, vel=vel_field, form=form, time=time)
    return state


def require_formed(coefficients):
    """Raise ValueError unless coefficients(), which forms coefficients of
    the system from its parameters, returns finite numbers only. A float
    power that raises OverflowError, where a product would give inf, counts
    as not finite."""
    try:
        finite = all(map(math.isfinite, coefficients()))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("the params form a coefficient that is not "
                         "finite (kappa^2, eps^1.5 and the like)")


def require_positive(rho_values):
    """Raise VacuumError unless every value is positive and finite (a NaN
    fails the test as a nonpositive value does)."""
    bad = rho_values.size - np.count_nonzero(
        (rho_values > 0) & np.isfinite(rho_values))
    if bad:
        raise VacuumError(bad, np.min(rho_values))


def _stack(grid, arrays):
    """The arrays of the grid stacked on a new leading axis, a lend()
    array; a single array is viewed with a unit axis, not copied."""
    if len(arrays) == 1:
        return arrays[0][None]
    lead = (len(arrays),) + arrays[0].shape[:-grid.dim]
    return np.stack(arrays, out=lend(grid, lead))


# The first-level pieces of a Derived bundle: name -> (input, derivative).
# The derivative is the spectral grad_arr (a Jacobian of a vector input),
# hess_arr or lap_arr of fields applied to the input, with the same bits.
PIECES = {
    "grad_sqrt_rho": ("sqrt_rho", "grad"),
    "hess_sqrt_rho": ("sqrt_rho", "hess"),
    "lap_sqrt_rho": ("sqrt_rho", "lap"),
    "grad_log_rho": ("log_rho", "grad"),
    "hess_log_rho": ("log_rho", "hess"),
    "grad_rho14": ("rho14", "grad"),
    "lap_rho": ("rho", "lap"),
    "jac_u": ("u", "grad"),                # [i, j] = d_j u_i
    "jac_sqrt_rho_u": ("sqrt_rho_u", "grad"),
}


# The inputs of PIECES a Derived bundle computes, besides its own rho and
# the u of a u-form bundle: name -> fn(d, out), which writes the input's
# value to out. Each is computed on first use into a lend() array, lent
# inside a workspace scope (a seed chunk of verify, a record chunk of
# integrate) and plain outside any, or by load straight into a row of a
# stacked input. The u of a w-form bundle is w - mu * grad(log rho), from
# the bundle's own grad_log_rho piece, with the bits of to_u: a load that
# asks for both computes log rho into its stacked row, and no gradient is
# lent for the map alone.
INPUTS = {
    "sqrt_rho": lambda d, out: np.sqrt(d.rho, out=out),
    "log_rho": lambda d, out: np.log(d.rho, out=out),
    "rho14": lambda d, out: np.power(d.rho, 0.25, out=out),
    "sqrt_rho_u": lambda d, out: np.multiply(per_node(d.grid, d.sqrt_rho),
                                             d.u, out=out),
    "u": lambda d, out: _shift_velocity(d.w, d.grad_log_rho, -d.params.mu,
                                        out),
}
# The inputs of PIECES that are vectors; the others are scalars.
VECTORS = ("u", "sqrt_rho_u")


# A chunk is the stack of fields one Derived bundle holds at a time: the
# seeds of a verify pass, the monitor records of integrate. It holds at most
# this many grid nodes per field (32 fields at 1D n=128, one at 64^2 and
# above). A 25-seed identity+inequality pass on (128,) and (64, 64) took a
# median 128, 125 and 126 ms at 4096, 8192 and 16384 nodes, with
# overlapping quartiles (30 interleaved passes each), and peaked at 38.7,
# 41.0 and 44.7 MB RSS: larger chunks cost memory without a measurable
# speed-up. A 1D n=128 monitor record takes about 240 us alone and about
# 35 us in a chunk of 32, but in a 64^2 chunk of 4 a record took 3.3 ms
# against 2.8 ms one at a time, so 2D runs keep one record per chunk
# (2-core Xeon, numpy 2.4.6, CPython 3.11.7, one thread).
CHUNK_NODES = 4096


def chunk_size(grid):
    """Fields per chunk on the grid."""
    return max(1, CHUNK_NODES // grid.node_count)


class Derived:
    """Derived state of one u-form state, or of a stack of densities
    (..., *n) and velocities (..., dim, *n) such as a seed chunk or a chunk
    of monitor records; the functionals, the checker kernels and bohm_arr
    read from one bundle.

    Nodal inputs (sqrt_rho, log_rho, ...) are computed once on first use,
    and so is the u of a w-form bundle, whose velocity it holds as w.
    The derivative pieces of PIECES come from load(), or on first use one
    at a time. No spectrum is kept. Each array equals, bitwise, what the
    plain operators of fields give for it.
    """

    def __init__(self, state, params=None):
        self._init(state.grid, state.rho.values, state.vel.values, params,
                   state.form)

    @classmethod
    def of(cls, grid, rho=None, u=None, params=None, sqrt_rho=None):
        """The bundle of a density array or stack, with an optional velocity
        array or stack. Given sqrt_rho in place of rho, it holds the pieces
        of that field alone, which need not be positive."""
        d = cls.__new__(cls)
        d._init(grid, rho, u, params)
        if sqrt_rho is not None:
            d.__dict__["sqrt_rho"] = sqrt_rho
        return d

    @classmethod
    def stacked(cls, states, params):
        """The bundle of the (K, *n) densities and (K, dim, *n) velocities
        of K states of one grid and form. w-form velocities map to u on
        first use with the bundle's batched gradient of log rho (INPUTS),
        with the bits of to_u row by row."""
        d = cls.__new__(cls)
        grid = states[0].grid
        d._init(grid, _stack(grid, [s.rho.values for s in states]),
                _stack(grid, [s.vel.values for s in states]), params,
                states[0].form)
        return d

    def row(self, k):
        """The bundle of row k of a stacked bundle: each array it holds is
        the row view [k] of the stack's, and its further pieces are its
        own."""
        d = type(self).__new__(type(self))
        d.__dict__.update((name, x[k]) for name, x in self.__dict__.items()
                          if isinstance(x, np.ndarray))
        d.grid, d.params = self.grid, self.params
        return d

    # the velocity of a w-form bundle, which maps to u on first use (INPUTS)
    w = None

    def _init(self, grid, rho, u, params, form="u"):
        if form != "u" and params is None:
            raise ValueError("w-form state needs params to map back to u")
        if rho is not None:
            require_positive(rho)
        self.grid = grid
        self.rho = rho
        self.params = params
        if form == "u":
            self.u = u
        else:
            self.w = u

    def __getattr__(self, name):
        # reached only for a nodal input or a piece that is not held yet
        if name in INPUTS:
            self.__dict__[name] = value = INPUTS[name](
                self, self._lend(name in VECTORS))
            return value
        if name not in PIECES:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.load(name)
        return self.__dict__[name]

    def _lend(self, vector, rows=()):
        """A lend() array of shape rows + the density's shape, or + the
        velocity's if vector."""
        if not vector:
            x = self.rho
        else:   # u, or the w of the same shape that u is formed from
            x = self.u if self.w is None else self.w
        return lend(self.grid, rows + x.shape[:-self.grid.dim])

    def load(self, *names):
        """Compute the named pieces that are not held yet. Each input is
        transformed once and its pieces are inverted together; inputs of one
        shape that ask for the same derivatives share one stacked transform
        pair. Their stack is lent, and an input not held yet is computed
        straight into its row, which it then is."""
        wanted = {}
        for name in names:
            if name not in self.__dict__:
                source, kind = PIECES[name]
                wanted.setdefault(source, {})[kind] = name
        stacks = {}
        for source, named in wanted.items():
            # one order of the kinds, so equal requests share a stack
            key = source in VECTORS, tuple(sorted(named))
            stacks.setdefault(key, []).append((source, named))
        held = self.__dict__
        for (vector, kinds), members in stacks.items():
            if members[1:]:
                x = self._lend(vector, (len(members),))
                for row, (source, _) in zip(x, members):
                    if source in held:
                        row[...] = held[source]
                    else:
                        held[source] = INPUTS[source](self, row)
            else:
                x = getattr(self, members[0][0])[None]
            parts = derivatives_arr(self.grid, x, kinds)
            for k, (_, named) in enumerate(members):
                for kind, part in zip(kinds, parts):
                    held[named[kind]] = part[k]

    @cached_property
    def rho_neg_p0(self):
        """rho^-p0."""
        return self.rho ** (-self.params.p0)

    @cached_property
    def u2(self):
        """|u|^2."""
        return _norm2(self.grid, self.u)

    @cached_property
    def grad_sqrt_rho2(self):
        """|grad sqrt(rho)|^2."""
        return _norm2(self.grid, self.grad_sqrt_rho)


def _norm2(grid, vec):
    """|vec|^2 of a (..., dim, *n) stack, a lend() array."""
    ca = -grid.dim - 1
    return np.add.reduce(vec * vec, axis=ca,
                         out=lend(grid, vec.shape[:ca]))


def bohm_force(rho, form="A", backend="spectral"):
    """The dispersive force 2*rho*grad(lap(sqrt(rho))/sqrt(rho)) of a
    ScalarField, in one of the three forms of bohm_arr."""
    return VectorField(rho.grid, bohm_arr(Derived.of(rho.grid, rho.values),
                                          form, backend))


def bohm_arr(d, form="A", backend="spectral"):
    """The Bohm force of the density of a Derived bundle, or of each density
    of its stack, as a (..., dim, *n) array.

    Three independently coded algebraic forms:
      A: direct quotient 2 rho grad(lap v / v), v = sqrt(rho);
      B: div(rho * hess(log rho));
      C: grad(lap rho) - 4 div(grad v (x) grad v).
    They agree on resolved strictly positive fields. The spectral forms read
    lap v, hess log rho, grad v and lap rho from the bundle and assemble
    the rest themselves; the fd2 forms compute everything with fd2.
    """
    grid, r = d.grid, d.rho
    spectral = backend == "spectral"
    # the products are lend() arrays, and the operators' outputs are
    # overwritten in place, so a verify chunk keeps them in its workspace
    if form == "A":
        v = d.sqrt_rho
        lv = d.lap_sqrt_rho if spectral else lap_arr(grid, v, backend)
        g = grad_arr(grid, lv / v, backend)
        return np.multiply(2.0 * per_node(grid, r), g, out=g)
    if form == "B":
        H = d.hess_log_rho if spectral else hess_arr(grid, d.log_rho, backend)
        flux = np.multiply(per_node(grid, r, 2), H,
                           out=lend(grid, H.shape[:-grid.dim]))
        out = div_arr(grid, flux, backend)
        release(flux)
        return out
    if form == "C":
        gv = (d.grad_sqrt_rho if spectral
              else grad_arr(grid, d.sqrt_rho, backend))
        lr = d.lap_rho if spectral else lap_arr(grid, r, backend)
        ca = -grid.dim - 1
        outer = np.multiply(np.expand_dims(gv, ca), np.expand_dims(gv, ca - 1),
                            out=lend(grid, gv.shape[:ca] + (grid.dim,) * 2))
        out = div_arr(grid, outer, backend)
        release(outer)
        out *= 4.0
        g = grad_arr(grid, lr, backend)
        np.subtract(g, out, out=out)
        release(g)
        return out
    raise ValueError(f"form must be 'A', 'B', or 'C', got {form!r}")


def _shift_velocity(vel, grad_log_rho, coeff, out=None):
    """vel + coeff * grad(log rho), per state of a stack: w of u at coeff =
    mu, u of w at -mu (-mu * g is -(mu * g), so u keeps the bits of
    w - mu * g). The one w <-> u map of to_w, to_u and Derived."""
    return np.add(vel, coeff * grad_log_rho, out=out)


def _to_form(state, form, coeff):
    source = {"u": "w", "w": "u"}[form]
    if state.form != source:
        raise ValueError(f"to_{form} expects a {source}-form state")
    require_positive(state.rho.values)
    vel = _shift_velocity(state.vel.values,
                          grad_arr(state.grid, np.log(state.rho.values)),
                          coeff)
    return State(state.rho, VectorField(state.grid, vel), form, state.time)


def to_w(state, params):
    """u-form -> w-form via w = u + mu * grad(log rho)."""
    return _to_form(state, "w", params.mu)


def to_u(state, params):
    """w-form -> u-form via u = w - mu * grad(log rho)."""
    return _to_form(state, "u", -params.mu)
