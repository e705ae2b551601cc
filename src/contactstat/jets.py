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

The products contract with `@`, `np.matvec` and `np.vecmat` (no einsum):
the derivative axis rides along as an extra matrix column or batch axis,
and leading axes broadcast, so an operand whose sample axis has stride 0
(a constant grid's) takes no special case.  Each jet is one field; the
ambient covariant derivative along the map,
nabla-bar W = W.d + Gamma(J., W), is built by submanifold.GWData.nabla for
a list of K jets at once, one (N, K, n, m) array per connection, with the
field axis as a label axis between the sample axis and the vector axes.
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

    def __sub__(self, other):
        return Jet(self.val - other.val, self.d - other.d)


def jconst(arr, m):
    arr = np.asarray(arr, dtype=float)
    return Jet(arr, np.zeros(arr.shape + (m,)))


def jmatmat(A, B):
    val = A.val @ B.val
    # d[a, c] = A.d[a, b] B[b, c] + A[a, b] B.d[b, c]: the first term is
    # one (c, b) @ (b, m) product per row a, the second one (a, b) @
    # (b, c*m) product with (c, m) flattened
    Bd = B.d.reshape(B.d.shape[:-2] + (-1,))
    d = (_tr(B.val)[..., None, :, :] @ A.d
         + (A.val @ Bd).reshape(val.shape + (B.d.shape[-1],)))
    return Jet(val, d)


def jmatvec(A, x):
    val = np.matvec(A.val, x.val)
    d = np.vecmat(x.val[..., None, :], A.d) + A.val @ x.d
    return Jet(val, d)


def jvecdot(x, y):
    val = np.vecdot(x.val, y.val)
    d = np.vecmat(y.val, x.d) + np.vecmat(x.val, y.d)
    return Jet(val, d)


def jinv(A):
    inv = np.linalg.inv(A.val)
    # d[..., m] = -inv A.d[..., m] inv, with the derivative axis moved in
    # front of the matrix axes and back
    Ad = np.moveaxis(A.d, -1, -3)
    d = -np.moveaxis(inv[..., None, :, :] @ Ad @ inv[..., None, :, :], -3, -1)
    return Jet(inv, d)


def jT(A):
    return Jet(_tr(A.val), np.swapaxes(A.d, -2, -3))


def _tr(a):
    return np.swapaxes(a, -1, -2)


def jscale(x, s):
    """x * s for a scalar jet s, sample by sample."""
    sv = np.expand_dims(s.val, tuple(range(1, x.val.ndim)))
    val = x.val * sv
    d = x.d * sv[..., None] + x.val[..., None] * np.expand_dims(
        s.d, tuple(range(1, x.val.ndim)))
    return Jet(val, d)
