# Building maximum-rank PSD stress matrices, and the coupling family.
#
# Positive balance coefficients turn directly into a PSD equilibrium
# stress matrix of rank n + m - d' - 1: the coefficients on its diagonal
# and the exact closed-form cross block -L P^^T G^- Q^ M beside them.  A
# diagonal coupling between the leftover null directions sweeps out the whole
# family of positive-diagonal equilibrium stresses: PSD while every
# coupling value stays within [-1, 1], with a rank drop at the boundary.

from fractions import Fraction as F

import numpy as np

from bipartite_rigidity import (
    build_super_stable_stress,
    equilibrium_residual,
    generalized_stress,
    maximal_support_radon,
)
from bipartite_rigidity.fixtures import fixture

# The cube, split into its two parity tetrahedra: coefficients 1/4 apiece.
cube = fixture("cube_k44").framework
stress = build_super_stable_stress(cube, (F(1, 4),) * 4, (F(1, 4),) * 4)
print("cube stress matrix (order 8):")
print(np.round(stress.omega, 6))
print("rank:", stress.rank, " min eigenvalue:", stress.min_eigenvalue)
print("equilibrium residual:", equilibrium_residual(stress.omega, cube))

# A space framework one vertex beyond the minimum leaves a single
# coupling degree of freedom.
space = fixture("k65").framework
cert = maximal_support_radon(space)
print("\nspace fixture support sizes:", len(cert.support_p), len(cert.support_q))
print("coupling sweep:")
for c in (-2, -1, F(-1, 2), 0, F(1, 2), 1, 2):
    s = generalized_stress(space, cert.lambdas, cert.mus, [c])
    psd = s.min_eigenvalue >= -1e-8 * max(s.spectral_norm(), 1.0)
    print(f"  coupling {str(c):>4}: psd={psd!s:5}  rank={s.rank}  "
          f"min eig={s.min_eigenvalue:+.2e}")
