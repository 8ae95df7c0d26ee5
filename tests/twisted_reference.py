"""Reference Euler characteristic for the differential tests.

The Localization Theorem read literally: at every fixed point and every
element g of its isotropy group, the fiber trace ``restrict(E, fp, g)``
over prod_j (1 - zeta_{g,j} e^{w_j}), averaged by the group order, one
term per (fixed point, g) with a root of unity zeta_{g,j} per direction.
The package takes the isotropy average as a projection onto integral
exponents instead; the tests compare its answers with this one.
"""

from __future__ import annotations

from fractions import Fraction

from torickit.exactalg import Cyc, Factor, RationalCharacter
from torickit.localization import fixed_point_list, restrict


def twisted_euler_characteristic(data, E, subtorus=None) -> RationalCharacter:
    terms = []
    for fp in fixed_point_list(data, subtorus):
        weights = [fp.tangent_weights[j] for j in fp.tangent_indices]
        for gi, angles in enumerate(fp.eigen_angles):
            factors = [Factor(Cyc.root_of_unity(theta), w) for theta, w in zip(angles, weights)]
            terms.append((restrict(E, fp, gi) * Fraction(1, fp.group_order), factors))
    chi = RationalCharacter(E.m, terms)
    return chi if subtorus is None else chi.specialize(subtorus)
