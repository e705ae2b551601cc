"""The jet products against their einsum forms.

jmatvec, jmatmat and jinv contract with @, np.matvec and np.vecmat; each
must equal the index expression of the product rule, up to the round-off
of a different summation order, on random batches.  Constant grids hand the
jet algebra operands whose sample axis has stride 0, so those are drawn
too."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from contactstat.jets import Jet, jinv, jmatmat, jmatvec

EPS = 1e-13


def _array(data, shape, broadcast):
    """An array of `shape`, or with `broadcast` one sample's array seen
    at every sample through a stride-0 leading axis."""
    elements = st.floats(-4, 4, allow_subnormal=False)
    if not broadcast:
        return data.draw(hnp.arrays(float, shape, elements=elements))
    one = data.draw(hnp.arrays(float, shape[1:], elements=elements))
    return np.broadcast_to(one, shape)


def _jet(data, N, shape, m):
    val = _array(data, (N,) + shape, data.draw(st.booleans()))
    d = _array(data, (N,) + shape + (m,), data.draw(st.booleans()))
    return Jet(val, d)


def _close(got, want, bound):
    """got equals want to within EPS times the sum of the magnitudes of the
    terms that make up each entry."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= EPS * bound)


def _dims(data):
    return [data.draw(st.integers(1, n)) for n in (5, 4, 4, 4, 3)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_jmatvec_is_its_einsum_form(data):
    N, a, b, _, m = _dims(data)
    A, x = _jet(data, N, (a, b), m), _jet(data, N, (b,), m)
    got = jmatvec(A, x)
    sub_1, sub_2 = "...abm,...b->...am", "...ab,...bm->...am"
    want = np.einsum(sub_1, A.d, x.val) + np.einsum(sub_2, A.val, x.d)
    bound = (np.einsum(sub_1, abs(A.d), abs(x.val))
             + np.einsum(sub_2, abs(A.val), abs(x.d)))
    assert np.array_equal(got.val, np.matvec(A.val, x.val))
    _close(got.d, want, bound)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_jmatmat_is_its_einsum_form(data):
    N, a, b, c, m = _dims(data)
    A, B = _jet(data, N, (a, b), m), _jet(data, N, (b, c), m)
    got = jmatmat(A, B)
    sub_1, sub_2 = "...abm,...bc->...acm", "...ab,...bcm->...acm"
    want = np.einsum(sub_1, A.d, B.val) + np.einsum(sub_2, A.val, B.d)
    bound = (np.einsum(sub_1, abs(A.d), abs(B.val))
             + np.einsum(sub_2, abs(A.val), abs(B.d)))
    assert np.array_equal(got.val, A.val @ B.val)
    _close(got.d, want, bound)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_jinv_is_its_einsum_form(data):
    N, a, _, _, m = _dims(data)
    A = _jet(data, N, (a, a), m)
    assume(np.all(np.linalg.cond(A.val) < 1e6))
    inv = np.linalg.inv(A.val)
    assume(np.all(np.abs(inv) < 1e6))
    got = jinv(A)
    sub = "...ab,...bcm,...cd->...adm"
    want = -np.einsum(sub, inv, A.d, inv)
    bound = np.einsum(sub, abs(inv), abs(A.d), abs(inv))
    assert np.array_equal(got.val, inv)
    _close(got.d, want, bound)
