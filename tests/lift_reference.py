"""A test-only reference window lift: the term-by-term trade loop.

Each term outside [base, base + eta) is traded through its own copy of the
Koszul relation, built as a line class tensored with the relation and
subtracted from the whole class.  The top monomial of the relation is
worked out from ``partition_M`` rather than read off the relation.  It is
slow (every trade rebuilds the class) but independent of the division in
``windows.window_lift``, so the two can be compared term by term.
"""

import itertools

from torickit.localization import EquivClass
from torickit.wallcrossing import eta_invariants, partition_M


def reference_lift(wc, E, base=0):
    eta = eta_invariants(wc)[0]
    relation = wc.koszul_relation
    m_minus = partition_M(wc)[2]
    sign = (-1) ** len(m_minus)
    shift_u = tuple(sum(wc.base.character(i)[k] for i in m_minus) for k in range(wc.base.r))
    shift_s = tuple(-1 if j in m_minus else 0 for j in range(1, wc.base.m + 1))

    def weight(u):
        return sum(a * b for a, b in zip(u, wc.e))

    levels = [weight(u) for u, _ in E.terms]
    top, bottom = max(levels, default=base), min(levels, default=base)
    current = E
    for w in itertools.chain(range(top, base + eta - 1, -1), range(bottom, base)):
        for (u, s), coeff in current.sorted_terms():
            if weight(u) != w:
                continue
            if w >= base + eta:
                # C = (u,s) detensored by the full Koszul monomial
                cu = tuple(a + b for a, b in zip(u, shift_u))
                cs = tuple(a + b for a, b in zip(s, shift_s))
                c_class = EquivClass.line(wc.base.r, wc.base.m, cu, cs, coeff)
                current = current - sign * c_class.tensor(relation)
            else:
                c_class = EquivClass.line(wc.base.r, wc.base.m, u, s, coeff)
                current = current - c_class.tensor(relation)
    assert all(base <= weight(u) < base + eta for u, _ in current.terms)
    return current
