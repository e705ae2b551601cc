"""First-order jets: values plus exact partial derivatives at one point.

Derived fields along an embedding (projections, tangential/normal parts of
phi, second-fundamental-form arguments) are algebraic in the primitive
symbolic fields, so carrying (value, gradient) pairs through the algebra
gives their derivatives exactly: the symbolic layer differentiates the
leaves, the product/inverse rules do the rest.  No truncation error enters
anywhere.  The leaves are evaluated once per sample set, in one batch (see
`submanifold`); a jet holds one point's slice of that batch, and the
algebra here runs one point at a time.
"""

import numpy as np

__all__ = ["Jet", "jconst", "jmatmat", "jmatvec", "jvecdot", "jinv", "jT",
           "jscale"]


class Jet:
    """value array plus d = derivative array of shape val.shape + (m,)."""

    __slots__ = ("val", "d")

    def __init__(self, val, d):
        self.val = np.asarray(val, dtype=float)
        self.d = np.asarray(d, dtype=float)

    @property
    def m(self):
        return self.d.shape[-1]

    def __add__(self, other):
        return Jet(self.val + other.val, self.d + other.d)

    def __sub__(self, other):
        return Jet(self.val - other.val, self.d - other.d)

    def __neg__(self):
        return Jet(-self.val, -self.d)


def jconst(arr, m):
    arr = np.asarray(arr, dtype=float)
    return Jet(arr, np.zeros(arr.shape + (m,)))


def jmatmat(A, B):
    val = A.val @ B.val
    d = (np.einsum("abm,bc->acm", A.d, B.val)
         + np.einsum("ab,bcm->acm", A.val, B.d))
    return Jet(val, d)


def jmatvec(A, x):
    val = A.val @ x.val
    d = (np.einsum("abm,b->am", A.d, x.val)
         + np.einsum("ab,bm->am", A.val, x.d))
    return Jet(val, d)


def jvecdot(x, y):
    val = float(x.val @ y.val)
    d = x.d.T @ y.val + y.d.T @ x.val
    return Jet(val, d)


def jinv(A):
    inv = np.linalg.inv(A.val)
    d = -np.einsum("ab,bcm,cd->adm", inv, A.d, inv)
    return Jet(inv, d)


def jT(A):
    return Jet(A.val.T, np.transpose(A.d, (1, 0, 2)))


def jscale(x, s):
    """x * s for a scalar jet s."""
    val = x.val * s.val
    d = x.d * s.val + np.einsum("...,m->...m", x.val, s.d)
    return Jet(val, d)

