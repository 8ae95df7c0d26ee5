"""Reference Euler characteristic for the differential tests.

The Localization Theorem read literally: at every fixed point and every
element g of its isotropy group, the fiber trace ``restrict(E, fp, g)``
over prod_j (1 - zeta_{g,j} e^{w_j}), averaged by the group order, one
term per (fixed point, g) with a root of unity zeta_{g,j} per direction.
The tangent direction j carries the line class (-D_j, e_j), so
zeta_{g,j} = exp(-2 pi i D_j . g); it is computed here from the characters,
sharing no angle code with the package.  The package takes the isotropy
average as a projection onto integral exponents instead; the tests compare
its answers with this one.
"""

from __future__ import annotations

from fractions import Fraction

from torickit.exactalg import Cyc, Factor, RationalCharacter
from torickit.localization import fixed_point_list, restrict


def twisted_euler_characteristic(data, E, subtorus=None) -> RationalCharacter:
    terms = []
    for fp in fixed_point_list(data, subtorus):
        for gi, g in enumerate(fp.group_elements):
            factors = []
            for j in fp.tangent_indices:
                angle = -sum(Fraction(d) * x for d, x in zip(data.character(j), g))
                factors.append(Factor(Cyc.root_of_unity(angle), fp.tangent_weights[j]))
            terms.append((restrict(E, fp, gi) * Fraction(1, fp.group_order), factors))
    chi = RationalCharacter(E.m, terms)
    return chi if subtorus is None else chi.specialize(subtorus)
