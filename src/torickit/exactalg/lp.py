"""Cone questions without linear programming: positive circuits.

A positive circuit of a list of vectors is a minimal dependent subset
whose kernel vector, unique up to scale, has every entry positive.  The
nonnegative combinations with a positive coefficient that vanish form a
pointed cone whose extreme rays are the positive circuits, so two exact
questions reduce to listing them: is a finite weight set inside some
strictly convex cone (``weights_convex``), and, with the wall cells of
``gitdata``, which index sets are anticones at a stability condition on a
wall (``gitdata.anticones``).  Every answer comes from ``rref``.
"""

from __future__ import annotations

import itertools

from .intlinalg import kernel_basis, rational_rank


def positive_circuits(vectors, max_size: int):
    """The positive circuits of size <= max_size, as tuples of 0-based positions.

    The kernel of a subset C is one-dimensional and spanned by a positive
    vector exactly when C is a positive circuit: a dependent proper subset
    would give a kernel vector with smaller support.  A zero vector is a
    circuit of size 1.
    """
    dim = len(vectors[0]) if vectors else 0
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(len(vectors)), size):
            basis = kernel_basis([[vectors[j][i] for j in combo] for i in range(dim)], size)
            if len(basis) == 1 and all(x > 0 for x in basis[0]):
                yield combo


def weights_convex(weights) -> bool:
    """True when the weights fit inside some strictly convex cone.

    Equivalently no nonnegative combination with a positive coefficient
    vanishes, that is there is no positive circuit; a zero weight therefore
    fails.  A circuit has a one-dimensional kernel, so it spans a space of
    its size minus one and has at most rank + 1 elements: independent
    weights need the one rank computation.
    """
    weights = [tuple(w) for w in weights]
    if any(len(w) != len(weights[0]) for w in weights):
        raise ValueError("dimension mismatch among weights")
    rank = rational_rank(weights)
    if rank == len(weights):
        return True
    return next(positive_circuits(weights, rank + 1), None) is None
