"""Spec-document ingestion: validation and construction of engine objects.

A spec document is a nested key/value structure (JSON on disk) naming the
ambient structure, an optional submanifold block, the sampling policy and
tolerance overrides.  Validation aggregates every diagnostic with its
location before rejecting, so a broken file reports all of its problems at
once.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .contactstruct import AlmostContact, SasakiStatStructure, lambda_family
from .crchecks import CRStructure
from .exprlang import Const, ParseError, parse
from .geometry import (ConnField, MetricField, SingularMetricError,
                       StatTriple, VectorField)
from .submanifold import Embedding, MapGeometry

__all__ = ["SpecError", "SpecFile", "load_spec", "from_doc"]

_TOP_KEYS = {"name", "ambient", "submanifold", "sampling", "tolerance"}
_AMBIENT_KEYS = {"dim", "metric", "phi", "xi", "eta", "K"}
_SUB_KEYS = {"dim", "embedding", "D", "Dperp"}
_SAMPLING_KEYS = {"mode", "seed", "count", "box", "ambient", "domain"}
_SUITES = ("ambient", "contact", "submanifold", "cr", "product")


class SpecError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class _Collector:
    def __init__(self):
        self.diags = []

    def error(self, location, message):
        self.diags.append(f"{location}: {message}")

    def parse(self, source, dim, location):
        if not isinstance(source, str):
            self.error(location, f"expected an expression string, got "
                                 f"{type(source).__name__}")
            return None
        try:
            return parse(source, dim)
        except ParseError as e:
            self.error(location, str(e))
            return None

    def raise_if_any(self):
        if self.diags:
            raise SpecError(self.diags)


def _parse_indexed(mapping, nidx, dim, where, col):
    """Parse a sparse {"i j ...": "expr"} mapping with 1-based indices."""
    out = {}
    if not isinstance(mapping, dict):
        col.error(where, "expected a mapping of index strings to expressions")
        return out
    for key, src in mapping.items():
        parts = str(key).split()
        if len(parts) != nidx or not all(p.lstrip("-").isdigit() for p in parts):
            col.error(f"{where}[{key!r}]",
                      f"key must be {nidx} 1-based indices separated by spaces")
            continue
        idx = tuple(int(p) for p in parts)
        if any(not (1 <= i <= dim) for i in idx):
            col.error(f"{where}[{key!r}]", f"index out of range 1..{dim}")
            continue
        e = col.parse(src, dim, f"{where}[{key!r}]")
        if e is not None:
            out[tuple(i - 1 for i in idx)] = e
    return out


def _integer(value):
    """Whether the value is an integer; JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(*values):
    """Whether every value is a number with a finite float value."""
    try:
        return all((_integer(v) or isinstance(v, float)) and math.isfinite(v)
                   for v in values)
    except OverflowError:
        return False


def _parse_vector(items, length, dim, where, col):
    if not isinstance(items, (list, tuple)) or len(items) != length:
        col.error(where, f"expected {length} expression strings")
        return None
    comps = []
    for i, src in enumerate(items):
        e = col.parse(src, dim, f"{where}[{i}]")
        comps.append(e)
    if any(c is None for c in comps):
        return None
    return comps


@dataclass
class SpecFile:
    """Validated spec: engine objects plus the raw document for digests."""

    doc: dict
    name: str
    g: MetricField
    acs: AlmostContact
    sss: SasakiStatStructure
    embedding: Embedding | None = None
    d_gens: list = field(default_factory=list)
    dperp_gens: list = field(default_factory=list)
    sampling: dict = field(default_factory=dict)
    tolerance: dict = field(default_factory=dict)

    @property
    def has_submanifold(self):
        return self.embedding is not None

    def cr_structure(self):
        if not self.has_submanifold:
            raise SpecError(["submanifold: block required for CR checks"])
        mg = MapGeometry(self.embedding, self.sss.st, acs=self.acs)
        return CRStructure(mg, self.d_gens, self.dperp_gens)

    def tol_for(self, suite):
        return float(self.tolerance.get(suite, self.tolerance.get("default", 1e-8)))

    def canonical_bytes(self):
        return json.dumps(self.doc, sort_keys=True,
                          separators=(",", ":")).encode()


def from_doc(doc, origin="<doc>"):
    col = _Collector()
    if not isinstance(doc, dict):
        col.error(origin, "top level must be a mapping")
        col.raise_if_any()
    for key in doc:
        if key not in _TOP_KEYS:
            col.error(f"{origin}.{key}", "unknown key")
    amb = doc.get("ambient")
    if not isinstance(amb, dict):
        col.error(f"{origin}.ambient", "required mapping missing")
        col.raise_if_any()
    for key in amb:
        if key not in _AMBIENT_KEYS:
            col.error(f"{origin}.ambient.{key}", "unknown key")
    dim = amb.get("dim")
    if not isinstance(dim, int) or dim < 1:
        col.error(f"{origin}.ambient.dim", "positive integer required")
        col.raise_if_any()

    metric_entries = _parse_indexed(amb.get("metric", {}), 2, dim,
                                    f"{origin}.ambient.metric", col)
    for (i, j) in list(metric_entries):
        if i > j:
            col.error(f"{origin}.ambient.metric",
                      f"entry ({i + 1},{j + 1}) below the diagonal; "
                      "only the upper triangle is stored")
    phi_entries = _parse_indexed(amb.get("phi", {}), 2, dim,
                                 f"{origin}.ambient.phi", col)
    xi = _parse_vector(amb.get("xi"), dim, dim, f"{origin}.ambient.xi", col)
    eta = _parse_vector(amb.get("eta"), dim, dim, f"{origin}.ambient.eta", col)

    kspec = amb.get("K", {"lambda": 0.0})
    klam = None
    kcoeffs = None
    if not isinstance(kspec, dict) or not (set(kspec) <= {"lambda", "coefficients"}) \
            or len(kspec) != 1:
        col.error(f"{origin}.ambient.K",
                  'expected {"lambda": value} or {"coefficients": {...}}')
    elif "lambda" in kspec:
        try:
            klam = float(kspec["lambda"])
        except (TypeError, ValueError):
            col.error(f"{origin}.ambient.K.lambda", "number required")
    else:
        kcoeffs = _parse_indexed(kspec["coefficients"], 3, dim,
                                 f"{origin}.ambient.K.coefficients", col)

    sub = doc.get("submanifold")
    emb = None
    d_gens = []
    dperp_gens = []
    if sub is not None:
        if not isinstance(sub, dict):
            col.error(f"{origin}.submanifold", "expected a mapping")
            sub = {}
        for key in sub:
            if key not in _SUB_KEYS:
                col.error(f"{origin}.submanifold.{key}", "unknown key")
        m = sub.get("dim")
        if not isinstance(m, int) or not (1 <= m <= dim):
            col.error(f"{origin}.submanifold.dim",
                      f"integer in 1..{dim} required")
        else:
            comps = _parse_vector(sub.get("embedding"), dim, m,
                                  f"{origin}.submanifold.embedding", col)
            if comps is not None:
                emb = Embedding(comps, m)
            for label, sink in (("D", d_gens), ("Dperp", dperp_gens)):
                gens = sub.get(label, [])
                if not isinstance(gens, list):
                    col.error(f"{origin}.submanifold.{label}",
                              "expected a list of generator component lists")
                    continue
                for gi, gen in enumerate(gens):
                    v = _parse_vector(gen, m, m,
                                      f"{origin}.submanifold.{label}[{gi}]", col)
                    if v is not None:
                        sink.append(VectorField(v, m))
            if len(d_gens) + len(dperp_gens) > 0 and m is not None \
                    and len(d_gens) + len(dperp_gens) != m:
                col.error(f"{origin}.submanifold",
                          f"D and Dperp provide {len(d_gens) + len(dperp_gens)} "
                          f"generators for a {m}-dimensional submanifold")
            if dperp_gens and not d_gens:
                col.error(f"{origin}.submanifold.D",
                          "at least one generator required: a contact CR "
                          "structure has xi in D")

    sampling = doc.get("sampling", {"mode": "seeded-random", "seed": 42,
                                    "count": 64, "box": [-1.0, 1.0]})
    if not isinstance(sampling, dict):
        col.error(f"{origin}.sampling", "expected a mapping")
        sampling = {}
    for key in sampling:
        if key not in _SAMPLING_KEYS:
            col.error(f"{origin}.sampling.{key}", "unknown key")
    mode = sampling.get("mode", "seeded-random")
    if mode == "seeded-random":
        if not _integer(sampling.get("seed", 42)) \
                or sampling.get("seed", 42) < 0:
            col.error(f"{origin}.sampling.seed", "non-negative integer required")
        if not _integer(sampling.get("count", 64)) \
                or sampling.get("count", 64) < 1:
            col.error(f"{origin}.sampling.count", "positive integer required")
        box = sampling.get("box", [-1.0, 1.0])
        if (not isinstance(box, (list, tuple)) or len(box) != 2
                or not _finite(*box) or not box[0] < box[1]
                or not _finite(box[1] - box[0])):
            col.error(f"{origin}.sampling.box",
                      "expected [lo, hi] with lo < hi and a finite width")
    elif mode == "points":
        for key, want in (("ambient", dim),
                          ("domain", sub.get("dim") if sub else None)):
            pts = sampling.get(key)
            if pts is None:
                continue
            if want is None:
                col.error(f"{origin}.sampling.{key}",
                          "no block of this kind to sample")
                continue
            try:
                arr = np.asarray(pts, dtype=float)
            except (TypeError, ValueError, OverflowError):
                arr = np.zeros((0, want))
            if arr.ndim != 2 or arr.shape[1] != want or arr.shape[0] < 1:
                col.error(f"{origin}.sampling.{key}",
                          f"expected a non-empty list of {want}-vectors "
                          "of numbers")
            elif not np.isfinite(arr).all():
                col.error(f"{origin}.sampling.{key}",
                          "sample points must be finite")
    else:
        col.error(f"{origin}.sampling.mode",
                  'expected "seeded-random" or "points"')

    tolerance = doc.get("tolerance", {})
    if not isinstance(tolerance, dict):
        col.error(f"{origin}.tolerance", "expected a mapping")
        tolerance = {}
    for key, val in tolerance.items():
        if key != "default" and key not in _SUITES:
            col.error(f"{origin}.tolerance.{key}", "unknown key")
        elif not _finite(val) or val <= 0:
            col.error(f"{origin}.tolerance.{key}",
                      "finite positive number required")

    col.raise_if_any()

    g = MetricField(dim, metric_entries)
    acs = AlmostContact(
        phi=[[phi_entries.get((a, b), "0") for b in range(dim)]
             for a in range(dim)],
        xi=VectorField(xi, dim), eta=eta)
    try:
        if klam is not None:
            sss = lambda_family(g, acs, klam)
        else:
            K = ConnField(dim, [[[kcoeffs.get((k, i, j), Const(0.0))
                                  for j in range(dim)] for i in range(dim)]
                                for k in range(dim)])
            sss = SasakiStatStructure(st=StatTriple(g, K), acs=acs, lam=None)
    except SingularMetricError as e:
        raise SpecError([f"{origin}.ambient.metric: {e}"]) from None

    return SpecFile(doc=doc, name=doc.get("name", origin), g=g, acs=acs,
                    sss=sss, embedding=emb, d_gens=d_gens,
                    dperp_gens=dperp_gens, sampling=sampling,
                    tolerance=tolerance)


def load_spec(path_or_name):
    """Load a spec from a file path or a built-in fixture name."""
    from .fixtures import fixture_doc, fixture_names
    if path_or_name in fixture_names():
        return from_doc(fixture_doc(path_or_name), origin=path_or_name)
    try:
        with open(path_or_name, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise SpecError([f"{path_or_name}: {e.strerror or e}"]) from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SpecError(
            [f"{path_or_name}:{e.lineno}:{e.colno}: {e.msg}"]) from None
    return from_doc(doc, origin=str(path_or_name))
