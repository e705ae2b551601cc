"""First-order jets: values plus exact partial derivatives, over a batch of
points.

Derived fields along an embedding (projections, tangential/normal parts of
phi, second-fundamental-form arguments) are algebraic in the primitive
symbolic fields, so carrying (value, gradient) pairs through the algebra
gives their derivatives exactly: the symbolic layer differentiates the
leaves, the product/inverse rules do the rest.  No truncation error enters
anywhere.  Every jet has a leading sample axis, so the algebra runs over a
whole batch of points at once (vectorised forward-mode differentiation);
each sample's arithmetic is the one-point arithmetic, bit for bit.
"""

import numpy as np

__all__ = ["Jet", "jconst", "jmatmat", "jmatvec", "jvecdot", "jinv", "jT",
           "jscale"]


class Jet:
    """val of shape (N, ...) plus d = derivative array of shape val.shape + (m,)."""

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
    d = (np.einsum("...abm,...bc->...acm", A.d, B.val)
         + np.einsum("...ab,...bcm->...acm", A.val, B.d))
    return Jet(val, d)


def jmatvec(A, x):
    val = np.matvec(A.val, x.val)
    d = (np.einsum("...abm,...b->...am", A.d, x.val)
         + np.einsum("...ab,...bm->...am", A.val, x.d))
    return Jet(val, d)


def jvecdot(x, y):
    val = np.vecdot(x.val, y.val)
    d = np.vecmat(y.val, x.d) + np.vecmat(x.val, y.d)
    return Jet(val, d)


def jinv(A):
    inv = np.linalg.inv(A.val)
    d = -np.einsum("...ab,...bcm,...cd->...adm", inv, A.d, inv)
    return Jet(inv, d)


def jT(A):
    return Jet(np.swapaxes(A.val, -1, -2), np.swapaxes(A.d, -2, -3))


def jscale(x, s):
    """x * s for a scalar jet s, sample by sample."""
    sv = np.expand_dims(s.val, tuple(range(1, x.val.ndim)))
    val = x.val * sv
    d = x.d * sv[..., None] + x.val[..., None] * np.expand_dims(
        s.d, tuple(range(1, x.val.ndim)))
    return Jet(val, d)
