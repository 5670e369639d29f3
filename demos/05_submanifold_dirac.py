"""The submanifold Dirac operator and its frame-spinor kernel.

The operator is the intrinsic Dirac operator of the chart plus the
mean-curvature term (1/2) gamma_adot Gamma_adot.  Its kernel contains the
lifted-frame spinor fields: the residual drops at second order under grid
refinement, collapses to zero on flat charts, and refuses to vanish when
the curvature term is dropped.  The operator is stored as real coefficient
planes on Clifford blades, and the kernel check runs on the real even-blade
coefficients of the frame lift.
"""

import numpy as np

from subdirac import (
    build_frame_field,
    build_gamma_rep,
    catalog_chart,
    dirac_residual,
    frame_lift_coefficients,
    frame_spinor_fields,
    lift_gram,
    lift_residuals,
    selfadjointization_check,
    submanifold_dirac,
)
from subdirac.clifford import blade_label

# the circle: gamma_1 d/ds plus curvature/2 times gamma_2
r = 1.5
ff = build_frame_field(catalog_chart("circle-curve", r=r), shape=(257,))
op = submanifold_dirac(ff)
print("circle operator zeroth-order blade coefficients at s = 0:",
      {blade_label(mask): round(float(v), 12)
       for mask, v in zip(op.potential_blades, op.potential_coeff[:, 0])},
      " 1/(2r) =", 1 / (2 * r))
fields = frame_spinor_fields(ff)
print("circle kernel residual:", max(dirac_residual(op, f) for f in fields))

# second-order convergence of the kernel residual, on the lift coefficients
print("\nkernel residuals under refinement:")
for name, shapes in [("sphere", [(33, 33), (65, 65)]),
                     ("torus", [(33, 33), (65, 65)]),
                     ("clifford-torus-r4", [(33, 33), (65, 65)])]:
    res = []
    for shape in shapes:
        ffs = build_frame_field(catalog_chart(name), shape=shape)
        res.append(lift_residuals(ffs, frame_lift_coefficients(ffs)).max())
    print(f"  {name:18s} {res[0]:.3e} -> {res[1]:.3e}   ratio {res[0] / res[1]:.2f}")

# the fields stay pointwise orthonormal: tau^H tau from the blade coefficients
ffs = build_frame_field(catalog_chart("sphere"), shape=(33, 33))
rep = build_gamma_rep(3)
coeffs = frame_lift_coefficients(ffs, rep)
print("\nmax Gram deviation from identity:", np.abs(lift_gram(coeffs, rep) - np.eye(2)).max())

# negative control: drop the curvature term and the kernel is gone
res0 = lift_residuals(ffs, coeffs, rep, with_mean=False).min()
print("sphere residual without the curvature term:", round(res0, 6), " (about 1/r)")

# the curvature term exists because the normal momenta must be self-adjoint:
# pairing with the geometric measure rho^(1/2) sqrt(g) breaks symmetry,
# the half-density-flattened measure restores it
without, with_, limit = selfadjointization_check(catalog_chart("sphere"), frames=ffs)
print(f"\nadjoint defect of i d/dq on the sphere tube: "
      f"geometric measure {without:.3f} (limit {limit:.3f}), flattened measure {with_:.1e}")
without, with_, _ = selfadjointization_check(catalog_chart("plane"), s_shape=(17, 17))
print(f"plane control: {without:.1e} / {with_:.1e}")
