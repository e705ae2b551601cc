"""Shared structure builders and oracles for the test suite.

Each builder returns plain engine objects.  The ambient charts and the
submanifold blocks are read from the built-in fixture documents, which
test_fixtures checks against the charts' definitions, computed there in
numpy; no test builds a fixture chart of its own.
"""

import numpy as np

from contactstat import fixtures
from contactstat.contactstruct import lambda_family
from contactstat.sampling import Samples
from contactstat.specfile import from_doc
from contactstat.submanifold import MapGeometry


def _ambient(doc):
    sss = from_doc({"ambient": doc}).sss
    return sss.st.g, sss.acs


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


def _submanifold(name):
    """(embedding, D generators, D-perp generators) of a fixture's
    submanifold block."""
    spec = from_doc(fixtures.fixture_doc(name))
    return spec.embedding, spec.d_gens, spec.dperp_gens


def e7_submanifold():
    """The 5-chart into the flat 7-chart whose tangent frame is
    e1 = dx1, e2 = dy1, e3 = dx2 - dy3, e4 = dx2 + dy3, e5 = dz, read from
    the paper-r7 fixture document."""
    return _submanifold("paper-r7-euclidean")


def cr5_submanifold():
    """The y2 = 0 slice of the Sasakian 5-chart, read from the fix-cr5
    fixture document: a proper contact CR submanifold that is a genuine
    product of its two leaves.  Domain coordinates (u1, u2, u3, u4) map to
    (x1, y1, x2, y2, z) = (u1, u2, u4, 0, u3)."""
    return _submanifold("fix-cr5")


def r7nu_submanifold():
    """A 4-chart inside the Sasakian 7-chart with a nonempty invariant
    complement in the normal bundle, read from the sasaki-r7-cr fixture
    document: the y2 = x3 = y3 = 0 slice.  Domain (u1, u2, u3, u4) ->
    (x1, y1, x2, y2, x3, y3, z) = (u1, u2, u4, 0, 0, 0, u3)."""
    return _submanifold("sasaki-r7-cr")


def _cr5_variant(name, submanifold):
    doc = fixtures.fixture_doc("fix-cr5")
    doc["name"] = name
    doc["submanifold"] = submanifold
    return doc


# fix-cr5's ambient with submanifolds whose label axes come out empty: the
# codim-0 identity embedding has no normal vectors and no D-perp, the Reeb
# curve has a single D generator and no D-perp
EDGE_SPECS = {
    "cr5-identity": _cr5_variant("cr5-identity", {
        "dim": 5,
        "embedding": ["x1", "x2", "x3", "x4", "x5"],
        "D": [["1" if j == i else "0" for j in range(5)] for i in range(5)],
        "Dperp": [],
    }),
    "cr5-reeb-curve": _cr5_variant("cr5-reeb-curve", {
        "dim": 1,
        "embedding": ["0", "0", "0", "0", "x1"],
        "D": [["1"]],
    }),
}


# fix-cr5 and sasaki-r7-cr bent off their coordinate slices, so that the
# Jacobian varies with the point
BENT_EMBEDDINGS = [
    ("fix-cr5", ["x1", "x2", "x4", "x1*x2/4", "x3"]),
    ("fix-cr5", ["x1", "x2+x1^2/3", "x4", "sin(x2)/5", "x3+x4*x1/7"]),
    ("fix-cr5", ["x1*1.3", "x2", "x4", "exp(x1)/9", "x3-x2^2"]),
    ("sasaki-r7-cr", ["x1", "x2", "x4", "x1*x3/5", "x2^2/7", "0", "x3"]),
]


def _bent(name, comps):
    doc = fixtures.fixture_doc(name)
    doc["submanifold"]["embedding"] = comps
    return doc


# the documents of BENT_EMBEDDINGS, each named after its fixture and its
# place in the list
BENT_SPECS = {f"{name}-bent{k}": _bent(name, comps)
              for k, (name, comps) in enumerate(BENT_EMBEDDINGS)}


def e7_structure(lam=1.0, frame_orthonormal=False):
    g, acs = euclid_r7(frame_orthonormal)
    return lambda_family(g, acs, lam)


def cr5_structure(lam=1.0):
    g, acs = sasaki_r5()
    return lambda_family(g, acs, lam)


def r7nu_structure(lam=1.0):
    g, acs = sasaki_r7()
    return lambda_family(g, acs, lam)


def map_geometry(emb, sss):
    """The MapGeometry of an embedding into a Sasakian statistical
    structure, as every submanifold and CR check takes it."""
    return MapGeometry(emb, sss.st, acs=sss.acs)


def one_point(geometry, p):
    """The context of a MapGeometry or a CRStructure at the domain point p:
    a set of one point cannot split, so it has one context."""
    [ctx] = geometry.contexts(Samples(np.asarray(p, dtype=float)[None]))
    return ctx


def koszul_fd(g, pts, h=1e-6):
    """Independent Christoffel oracle: the Koszul formula with the metric's
    partials taken by central finite differences, [n, k, i, j]."""
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    dg = np.empty((n, d, d, d))
    for k in range(d):
        hi, lo = pts.copy(), pts.copy()
        hi[:, k] += h
        lo[:, k] -= h
        dg[:, k] = (g.at(hi) - g.at(lo)) / (2 * h)
    ginv = np.linalg.inv(g.at(pts))
    lower = 0.5 * (dg + np.transpose(dg, (0, 2, 1, 3))
                   - np.transpose(dg, (0, 2, 3, 1)))
    return np.einsum("nkl,nijl->nkij", ginv, lower)
