"""Shared structure builders for the test suite.

Each builder returns plain engine objects.  The ambient charts are read
from the built-in fixture documents, and are validated in
test_contactstruct / test_geometry before anything else depends on them.
"""

from contactstat import fixtures
from contactstat.contactstruct import lambda_family
from contactstat.geometry import VectorField
from contactstat.specfile import from_doc
from contactstat.submanifold import Embedding


def _ambient(doc):
    spec = from_doc({"ambient": doc})
    return spec.g, spec.acs


def sasaki_chart(npairs):
    """Standard Sasakian chart on R^(2*npairs+1), read from the fixture
    document: coordinates ordered as (x1, y1, ..., xn, yn, z) with
    eta = (dz - sum yi dxi)/2, xi = 2 d/dz,
    g = eta (x) eta + (1/4) sum (dxi^2 + dyi^2), phi the compatible
    rotation with phi(d/dxi) = -d/dyi."""
    return _ambient(fixtures._sasaki_ambient(npairs))


def sasaki_r3():
    return sasaki_chart(1)


def sasaki_r5():
    return sasaki_chart(2)


def sasaki_r7():
    return sasaki_chart(3)


def euclid_r7(frame_orthonormal=False):
    """Flat 7-chart with the standard rotation pairs and eta = dz, read from
    the fixture document.  The frame-orthonormal variant rescales the
    middle two coordinate pairs so the fixture submanifold frame below has
    unit lengths."""
    return _ambient(fixtures._flat7_ambient(frame_orthonormal))


def e7_submanifold():
    """The 5-chart into the flat 7-chart whose tangent frame is
    e1 = dx1, e2 = dy1, e3 = dx2 - dy3, e4 = dx2 + dy3, e5 = dz."""
    emb = Embedding(["x1", "x2", "x3+x4", "0", "0", "x4-x3", "x5"], 5)
    d_gens = [VectorField.coordinate(5, 0), VectorField.coordinate(5, 1),
              VectorField.coordinate(5, 4)]
    dperp_gens = [VectorField.coordinate(5, 2), VectorField.coordinate(5, 3)]
    return emb, d_gens, dperp_gens


def cr5_submanifold():
    """The y2 = 0 slice of the Sasakian 5-chart: a proper contact CR
    submanifold that is a genuine product of its two leaves.  Domain
    coordinates (u1, u2, u3, u4) map to (x1, y1, x2, y2, z) =
    (u1, u2, u4, 0, u3)."""
    emb = Embedding(["x1", "x2", "x4", "0", "x3"], 4)
    d_gens = [VectorField.coordinate(4, 0), VectorField.coordinate(4, 1),
              VectorField(["0", "0", "2", "0"], 4)]
    dperp_gens = [VectorField.coordinate(4, 3)]
    return emb, d_gens, dperp_gens


def r7nu_submanifold():
    """A 4-chart inside the Sasakian 7-chart with a nonempty invariant
    complement in the normal bundle: the y2 = x3 = y3 = 0 slice.  Domain
    (u1, u2, u3, u4) -> (x1, y1, x2, y2, x3, y3, z) = (u1, u2, u4, 0, 0, 0, u3)."""
    emb = Embedding(["x1", "x2", "x4", "0", "0", "0", "x3"], 4)
    d_gens = [VectorField.coordinate(4, 0), VectorField.coordinate(4, 1),
              VectorField(["0", "0", "2", "0"], 4)]
    dperp_gens = [VectorField.coordinate(4, 3)]
    return emb, d_gens, dperp_gens


def e7_structure(lam=1.0, frame_orthonormal=False):
    g, acs = euclid_r7(frame_orthonormal)
    return lambda_family(g, acs, lam)


def cr5_structure(lam=1.0):
    g, acs = sasaki_r5()
    return lambda_family(g, acs, lam)


def r7nu_structure(lam=1.0):
    g, acs = sasaki_r7()
    return lambda_family(g, acs, lam)
