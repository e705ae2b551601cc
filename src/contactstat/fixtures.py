"""Built-in fixture documents.

Each fixture is a plain spec document (the same JSON-able structure the
loader accepts from disk), so `fixtures dump` output can be edited and fed
back through `check --spec`.

The two 7-dimensional variants differ only in the ambient metric: the
euclidean one, and the completion that makes the submanifold frame
e1, e2, e3, e4, e5 together with the fixed normal complement orthonormal
(the middle two coordinate pairs carry weight 1/2).  The normalisation
choice is a user-selectable input, not an engine opinion.
"""

__all__ = ["fixture_names", "fixture_doc"]


def _sasaki_ambient(npairs, lam=1.0):
    """Standard contact chart on R^(2n+1) with coordinates ordered
    (x1, y1, ..., xn, yn, z): eta = (dz - sum yi dxi)/2, xi = 2 dz,
    g = eta (x) eta + (1/4) sum(dxi^2 + dyi^2), compatible phi."""
    d = 2 * npairs + 1
    xv = [2 * i for i in range(npairs)]
    yv = [2 * i + 1 for i in range(npairs)]
    z = d - 1

    metric = {}
    for i in range(npairs):
        yi = f"x{yv[i] + 1}"
        metric[f"{xv[i] + 1} {xv[i] + 1}"] = f"(1 + {yi}^2)/4"
        metric[f"{xv[i] + 1} {z + 1}"] = f"-{yi}/4"
        metric[f"{yv[i] + 1} {yv[i] + 1}"] = "1/4"
        for j in range(i + 1, npairs):
            metric[f"{xv[i] + 1} {xv[j] + 1}"] = f"{yi}*x{yv[j] + 1}/4"
    metric[f"{z + 1} {z + 1}"] = "1/4"

    phi = {}
    for i in range(npairs):
        phi[f"{yv[i] + 1} {xv[i] + 1}"] = "-1"
        phi[f"{xv[i] + 1} {yv[i] + 1}"] = "1"
        phi[f"{z + 1} {yv[i] + 1}"] = f"x{yv[i] + 1}"

    eta = ["0"] * d
    for i in range(npairs):
        eta[xv[i]] = f"-x{yv[i] + 1}/2"
    eta[z] = "1/2"
    xi = ["0"] * (d - 1) + ["2"]
    return {"dim": d, "metric": metric, "phi": phi, "xi": xi, "eta": eta,
            "K": {"lambda": lam}}


def _flat7_ambient(frame_orthonormal):
    metric = {f"{i} {i}": "1" for i in (1, 2, 7)}
    half = "1/2" if frame_orthonormal else "1"
    for i in (3, 4, 5, 6):
        metric[f"{i} {i}"] = half
    phi = {}
    for x, y in ((1, 2), (3, 4), (5, 6)):
        phi[f"{y} {x}"] = "1"
        phi[f"{x} {y}"] = "-1"
    return {"dim": 7,
            "metric": metric,
            "phi": phi,
            "xi": ["0"] * 6 + ["1"],
            "eta": ["0"] * 6 + ["1"],
            "K": {"lambda": 1.0}}


def _doc(name, ambient, tolerance, submanifold=None):
    """A fixture document, sampling 64 seeded points of the box [-1, 1]."""
    sub = {} if submanifold is None else {"submanifold": submanifold}
    return {"name": name, "ambient": ambient, **sub,
            "sampling": {"mode": "seeded-random", "seed": 42, "count": 64,
                         "box": [-1.0, 1.0]},
            "tolerance": {"default": tolerance}}


def _paper_r7(frame_orthonormal):
    return _doc(
        "paper-r7-frame-orthonormal" if frame_orthonormal
        else "paper-r7-euclidean",
        _flat7_ambient(frame_orthonormal), 1e-8, {
            "dim": 5,
            "embedding": ["x1", "x2", "x3+x4", "0", "0", "x4-x3", "x5"],
            "D": [["1", "0", "0", "0", "0"],
                  ["0", "1", "0", "0", "0"],
                  ["0", "0", "0", "0", "1"]],
            "Dperp": [["0", "0", "1", "0", "0"],
                      ["0", "0", "0", "1", "0"]],
        })


def _sasaki_cr(name, npairs, embedding):
    """A 4-dimensional CR submanifold of the chart on R^(2 npairs + 1): D
    spanned by e1, e2 and the Reeb direction 2 e3, D-perp by e4."""
    return _doc(name, _sasaki_ambient(npairs, lam=1.0), 1e-6, {
        "dim": 4,
        "embedding": embedding,
        "D": [["1", "0", "0", "0"],
              ["0", "1", "0", "0"],
              ["0", "0", "2", "0"]],
        "Dperp": [["0", "0", "0", "1"]],
    })


_BUILDERS = {
    "paper-r7-euclidean": lambda: _paper_r7(False),
    "paper-r7-frame-orthonormal": lambda: _paper_r7(True),
    "fix-s3": lambda: _doc("fix-s3", _sasaki_ambient(1, lam=1.0), 1e-7),
    "fix-cr5": lambda: _sasaki_cr("fix-cr5", 2, ["x1", "x2", "x4", "0", "x3"]),
    "sasaki-r7-cr": lambda: _sasaki_cr(
        "sasaki-r7-cr", 3, ["x1", "x2", "x4", "0", "0", "0", "x3"]),
}


def fixture_names():
    return sorted(_BUILDERS)


def fixture_doc(name):
    """Fixture `name`'s document, built afresh on every call."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; available: "
                       f"{', '.join(fixture_names())}")
    return _BUILDERS[name]()
