"""Incremental first-dependency search over a finite field.

The one customer is minimal-polynomial computation (cover.pushforward_place):
successive powers of a residue class go in as raw integer vectors until the
first linear relation among them appears.
"""

from .errors import PreconditionError


class RelationTracker:
    """Finds the first linear dependency among successively added vectors.

    Vectors are raw-encoding lists over a galois.Field.  add() returns None
    while the span keeps growing; the first dependent vector returns the
    combination coefficients c_0..c_k (c_k == 1) with sum c_i * v_i == 0.
    """

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []  # (pivot index, reduced vector, combo over inputs)
        self.count = 0

    def add(self, vec):
        K = self.field
        if len(vec) != self.dim:
            raise PreconditionError("vector of wrong dimension")
        v = list(vec)
        combo = [0] * self.count + [1]
        for piv, u, cu in self.rows:
            c = v[piv]
            if c:
                for i in range(self.dim):
                    if u[i]:
                        v[i] = K.sub_raw(v[i], K.mul_raw(c, u[i]))
                for i in range(len(cu)):
                    if cu[i]:
                        combo[i] = K.sub_raw(combo[i], K.mul_raw(c, cu[i]))
        self.count += 1
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return combo
        inv = K.inv_raw(v[piv])
        v = [K.mul_raw(c, inv) for c in v]
        combo = [K.mul_raw(c, inv) for c in combo]
        self.rows.append((piv, v, combo))
        return None

