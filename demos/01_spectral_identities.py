"""Pointwise and integral identities on random smooth fields.

Three algebraically equivalent forms of the dispersive (Bohm-type) force are
evaluated independently with spectral derivatives and compared, followed by
the quartic-flux pairing identity and the sqrt(rho)*u product rule.
"""

import numpy as np

from qnslab import (Grid, ScalarField, bohm_force, check_flux_identity,
                    check_grad_sqrtrho_u, lp_norm, random_smooth_positive,
                    random_smooth_vector)

grid = Grid((64, 64))
rho = random_smooth_positive(grid, seed=7, modes=6, floor=4.0)
u = random_smooth_vector(grid, seed=7, modes=6)


def magnitude(values):
    """The pointwise Euclidean norm of vector-field values: lp_norm of a
    VectorField gives one norm per component."""
    return ScalarField(grid, np.sqrt(np.sum(values ** 2, axis=0)))


print("=== dispersive force: three independent forms ===")
forms = {name: bohm_force(rho, form=name) for name in ("A", "B", "C")}
ref = lp_norm(magnitude(forms["A"].values), 2)
for a, b in (("A", "B"), ("A", "C"), ("B", "C")):
    diff = magnitude(forms[a].values - forms[b].values)
    print(f"  |{a} - {b}|_2 / |A|_2 = {lp_norm(diff, 2) / ref:.3e}")

print("\n=== quartic-flux pairing identity ===")
v = ScalarField(grid, np.sqrt(rho.values))
for r in (0, 2):
    rep = check_flux_identity(v, r)
    print(f"  r={r}: lhs={rep.lhs:+.12e}  rhs={rep.rhs:+.12e}  "
          f"margin={rep.margin:.2e}  passed={rep.passed}")

print("\n=== product rule grad(sqrt(rho) u) ===")
rep = check_grad_sqrtrho_u(rho, u, tol=1e-8)
print(f"  nodal residual / scale = {rep.lhs:.3e}  passed={rep.passed}")
