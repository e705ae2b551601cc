"""Embedded-submanifold machinery: induced metric, tangential/normal
projection, Gauss-Weingarten data for a pair of dual connections, the
tangential/normal decomposition of an almost-contact tensor, and the
first-order identity checks that tie them together.

Everything here is array code over a leading sample axis.  A context
(GWData) holds, for a batch of domain points, the image points, the
Jacobian, the pulled-back metric and contact fields as first-order jets in
the domain coordinates, and both connections' ambient Christoffel values
at every image point, contracted with the Jacobian, all from one batched
evaluation; the ambient covariant derivative along the map uses those
contractions, which keeps every evaluator
independent of any choice of ambient extension.  Gram-Schmidt may keep a
candidate at some samples and drop it at others (the circle
(cos x1, sin x1) builds its normal from e1 at x1 = 0 and from e2 at
x1 = pi/2), so a sample set gets one context per drop pattern, each with
the sample numbers (`index`) of its points.  A check builds each residual
family as one array per context, with the sample axis first and its label
axes (frame directions, generators, normal vectors) after it, and adds it
in one call.  A non-finite value in the batch is a DomainError that names
its expression and the first failing domain point.
"""

import numpy as np

from .exprlang import Const, DomainError
from .geometry import (GeometryError, Grid, MetricField, _built_once,
                       _coerce_expr, _map)
from .jets import (Jet, _tr, jconst, jinv, jmatmat, jmatvec, jscale, jT,
                   jvecdot)
from .report import Residuals, labels

__all__ = [
    "RankDropError", "Embedding", "GWData", "TFBCSplit",
    "MapGeometry", "along", "induced_metric", "split", "tfbc",
    "check_gauss_weingarten",
    "check_structure_identities", "check_transport_identities",
]

GS_THRESHOLD = 1e-10


class RankDropError(GeometryError):
    def __init__(self, point):
        super().__init__(
            f"jacobian rank drop at domain point {np.asarray(point).tolist()}")
        self.point = np.asarray(point)


class Embedding(Grid):
    """Map from an m-chart into an n-chart, one expression per component;
    `partials` is its Jacobian, [a][i] = d_i y^a."""

    def __init__(self, comps, m):
        comps = list(comps)
        self.m = m
        self.n = len(comps)
        if self.n < m:
            raise GeometryError("ambient dimension below domain dimension")
        self.comps = tuple(_coerce_expr(c, m) for c in comps)
        super().__init__(self.comps, m)


def _pull_back(emb, field):
    """An ambient field's entries composed with the embedding, as a grid."""
    return _map(lambda e: e.substitute(emb.comps), field.nested)


def _needs_acs(mg, what):
    """Refuse `what`, which reads phi, xi or eta, on a MapGeometry without
    them."""
    if mg.acs is None:
        raise GeometryError(f"{what} needs the ambient almost-contact "
                            "structure (phi, xi, eta), and the MapGeometry "
                            "has none")


def induced_metric(emb, g_ambient):
    """Pullback metric as expressions over the domain chart."""
    gsub = _pull_back(emb, g_ambient)
    jac = emb.partials.nested
    m, n = emb.m, emb.n
    upper = {}
    for i in range(m):
        for j in range(i, m):
            acc = Const(0.0)
            for a in range(n):
                for b in range(n):
                    acc = acc + jac[a][i] * gsub[a][b] * jac[b][j]
            upper[(i, j)] = acc
    return MetricField(m, upper)


def _values(grid, points):
    """grid.at(points) and the grid's entries.  A constant grid whose entry
    fails to compile is non-finite at every point, at that entry alone."""
    try:
        return grid.at(points), grid.exprs
    except DomainError as e:
        return np.full((len(points), 1), np.nan), [e.expr]


def _checked(grids, points):
    """Each grid's values at `points`, under the domain policy of
    Expr.eval: a non-finite value raises DomainError naming the first
    failing point and the first non-finite expression there."""
    got = [_values(grid, points) for grid in grids]
    bad = [~np.isfinite(v).reshape(len(points), -1) for v, _ in got]
    rows = np.any([b.any(axis=1) for b in bad], axis=0)
    if rows.any():
        s = int(rows.argmax())
        exprs, row = next((x, b[s]) for (_, x), b in zip(got, bad)
                          if b[s].any())
        raise DomainError("non-finite result", exprs[int(row.argmax())],
                          points[s])
    return [v for v, _ in got]


class _Split(Exception):
    """A Gram-Schmidt step keeps its candidate at the samples in `keep` and
    drops it at the others, so they need contexts of their own."""

    def __init__(self, keep):
        super().__init__("mixed drop pattern")
        self.keep = keep


def _uniform(keep):
    """Whether a step keeps its candidate at every sample of a context
    (True) or at none (False); anything else raises _Split."""
    if keep.all():
        return True
    if keep.any():
        raise _Split(keep)
    return False


def _by_pattern(build, points, index):
    """build(points, index) as one context per drop pattern: a build that
    meets a mixed step is split there, and each part is built on its own."""
    try:
        return [build(points, index)]
    except _Split as split:
        return [ctx for part in (split.keep, ~split.keep)
                for ctx in _by_pattern(build, points[part], index[part])]


def _scale(*arrays):
    """Per-sample scale of a residual family: the largest magnitude in the
    arrays, and at least 1."""
    n = len(arrays[0])
    return np.max([np.abs(a).reshape(n, -1).max(axis=1) for a in arrays]
                  + [np.ones(n)], axis=0)


class MapGeometry:
    """Shared symbolic data for one (embedding, ambient statistical
    structure) pair, with the ambient almost-contact structure `acs` that
    the structure, transport and CR checks read.  Every submanifold check
    takes one.  Builds the Gauss-Weingarten contexts of a sample set, which
    the set keeps, or the exception that stopped the build."""

    def __init__(self, emb, st, acs=None):
        self.emb = emb
        self.st = st
        self.acs = acs
        fields = [st.g] + ([] if acs is None else [acs.phi, acs.xi, acs.eta])
        # the image points, then the values and partials of J, G and, with
        # a contact structure, phi, xi and eta along the map
        self.grids = [emb, emb.partials, emb.partials.partials]
        for f in fields:
            grid = Grid(_pull_back(emb, f), emb.m)
            self.grids += [grid, grid.partials]

    @property
    def is_constant(self):
        """Whether every field along the map but the image points is the
        same at every domain point: the embedding is affine and the ambient
        fields are constant."""
        return (self.st.is_constant
                and (self.acs is None or self.acs.is_constant)
                and all(grid.is_constant for grid in self.grids[1:]))

    def contexts(self, samples):
        """A sample set's contexts, one per drop pattern, built once for
        the set."""
        return _built_once(self, samples, lambda s: self._build(s.points))

    def _build(self, points):
        return _by_pattern(lambda pts, idx: GWData(self, pts, idx), points,
                           np.arange(len(points)))


class GWData:
    """Data over a batch of frame points that share one drop pattern: the
    tangent frame (the Jacobian columns), a deterministic g-orthonormal
    normal frame, the ambient covariant derivative along the map for both
    connections, and the tangential/normal parts of the contact tensor.
    Every array has the sample axis first; `index` holds the sample numbers
    of the points.  The value helpers take vectors of shape
    (N, labels..., n): label axes sit between the sample axis and the
    vector axis, and the per-sample matrices broadcast over them.

    `frame` is the coordinate frame d/du^i along the map, the Jacobian
    columns as jets.  Derived jet fields (push, t, f) are memoised for the
    life of the context.  Γ and Γ* are kept only as their contractions
    with the Jacobian, which `nabla` applies, and Γ as `gamma_scale`, its
    largest |entry| at each sample; a covariant-derivative stack from
    `nabla` belongs to the check that asks for it."""

    def __init__(self, mg, points, index):
        self.points = points
        self.index = index
        self.y, *fields = _checked(mg.grids, points)
        self.J, self.G, *contact = [Jet(v, d) for v, d
                                    in zip(fields[::2], fields[1::2])]
        _, gamma, gamma_star = mg.st.gammas(self.y)
        self.phi, self.xi, self.eta = contact or (None, None, None)
        self._kept = {}

        N, n, m = self.J.val.shape
        self.n, self.m = n, m
        self.rank = np.linalg.matrix_rank(self.J.val, tol=GS_THRESHOLD)
        low = self.rank < m
        if low.any():
            raise RankDropError(points[low.argmax()])
        # a tangent frame too long for floating point overflows in the
        # products below, and the defect test then fails at its point
        with np.errstate(over="ignore", invalid="ignore"):
            self.Gram = jmatmat(jT(self.J), jmatmat(self.G, self.J))
            Gram_inv = jinv(self.Gram)
            self.Pi_tan = jmatmat(self.J, jmatmat(Gram_inv,
                                                  jmatmat(jT(self.J), self.G)))
            self.Pi_nor = jconst(np.eye(n), m) - self.Pi_tan

            self.frame = [Jet(self.J.val[:, :, i], self.J.d[:, :, i, :])
                          for i in range(m)]
            self.normal_jets = self._normal_frame()
            # the value-level frame: gram matrix of the tangent basis, and
            # the normal basis as columns, g-orthonormal
            J, G = self.J.val, self.G.val
            self.normal = (np.stack([f.val for f in self.normal_jets], axis=-1)
                           if self.normal_jets else np.zeros((N, n, 0)))
            self.gram, self.gram_inv = self.Gram.val, Gram_inv.val
            defect = (np.abs(_tr(J) @ G @ self.normal).reshape(N, -1)
                      .max(axis=1) if self.normal.size else np.zeros(N))
        # the frame vectors as rows: the tangents J e_i and the normals
        self.tangents = _tr(J)
        self.normals = _tr(self.normal)
        bad = ~(defect <= 1e-10)
        if bad.any():
            s = bad.argmax()
            raise GeometryError(
                f"tangent/normal orthogonality defect {defect[s]:.2e} at "
                f"domain point {points[s].tolist()}")
        # Gamma^k_ij J^i_a for Gamma (False) and Gamma* (True), row (k, a)
        # of one (N, n m, n) matrix, which `nabla` applies to the fields
        self._gamma_J = [(self.tangents[:, None] @ gam).reshape(N, n * m, n)
                         for gam in (gamma, gamma_star)]
        self.gamma_scale = np.abs(gamma).reshape(N, -1).max(axis=1)

    # -- construction helpers

    def _gs(self, candidates, against):
        """The g-orthonormal jets that Gram-Schmidt keeps of `candidates`,
        after the orthonormal jets `against`.  Each frame vector's G-image
        is computed once, when it joins the frame."""
        frame = [(f, jmatvec(self.G, f)) for f in against]
        kept = []
        for k, cand in enumerate(candidates, 1):
            w = cand
            for f, g_f in frame:
                w = w - jscale(f, jvecdot(w, g_f))
            nsq = jvecdot(w, jmatvec(self.G, w))
            if not _uniform(~(nsq.val <= GS_THRESHOLD ** 2)):
                continue
            unit = jscale(w, _jrecip_sqrt(nsq))
            kept.append(unit)
            if k < len(candidates):  # a later candidate reads its image
                frame.append((unit, jmatvec(self.G, unit)))
        return kept

    def _normal_frame(self):
        m, n = self.m, self.n
        tan_on = self._gs(self.frame, [])
        if len(tan_on) < m:
            raise RankDropError(self.points[0])
        eye = np.broadcast_to(np.eye(n), (len(self.points), n, n))
        basis = [jconst(eye[:, :, a], m) for a in range(n)]
        return self._gs(basis, tan_on)

    # -- value-level helpers, broadcast over the label axes of v

    def tangent_coeffs(self, v):
        """Coefficients of the tangential part of v in the Jacobian columns."""
        return np.matvec(_over(self.gram_inv, v), np.vecmat(
            np.matvec(_over(self.G.val, v), v), _over(self.J.val, v)))

    def normal_coeffs(self, v):
        return np.vecmat(np.matvec(_over(self.G.val, v), v),
                         _over(self.normal, v))

    def tangential(self, v):
        return np.matvec(_over(self.Pi_tan.val, v), v)

    def normal_part(self, v):
        return np.matvec(_over(self.Pi_nor.val, v), v)

    def gnorm(self, v):
        return np.sqrt(np.maximum(0.0, self.ginner(v, v)))

    def ginner(self, u, v):
        """g(u, v); v has u's label axes, or unit axes in their place."""
        return np.vecdot(np.vecmat(u, _over(self.G.val, u)), v)

    def eta_of(self, v):
        return np.vecdot(_over(self.eta.val, v), v)

    def phi_val(self, v):
        return np.matvec(_over(self.phi.val, v), v)

    def t_val(self, v):
        return self.tangential(self.phi_val(v))

    def f_val(self, v):
        return self.normal_part(self.phi_val(v))

    # -- jet-level field builders (memoised per field)

    def _memo(self, key, make):
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def domain_jet(self, X):
        """A domain vector field with its partials, evaluated on first use."""
        return self._memo(("dom", X), lambda: Jet(
            *_checked([X, X.partials], self.points)))

    def push_jet(self, X):
        return self._memo(("push", X),
                          lambda: jmatvec(self.J, self.domain_jet(X)))

    def t_jet(self, V):
        """The tangential part of phi V, for a jet field V along the map."""
        return self._memo(("t", V), lambda: jmatvec(
            self.Pi_tan, jmatvec(self.phi, V)))

    def f_jet(self, V):
        """The normal part of phi V, for a jet field V along the map."""
        return self._memo(("f", V), lambda: jmatvec(
            self.Pi_nor, jmatvec(self.phi, V)))

    # -- the covariant derivative along the map

    def nabla(self, fields, star=False):
        """The ambient covariant derivative along the map of a list of K
        jet fields, for the connection (star=False) or its dual
        (star=True), in every domain direction at once: the (N, K, n, m)
        array nabla-bar W = W.d + Gamma(J., W), whose [:, k, :, i] is
        nabla-bar_{d/du^i} of field k."""
        N, n, m = self.J.val.shape
        if not fields:
            return np.zeros((N, 0, n, m))
        # C-contiguous: np.stack keeps its inputs' stride order, so jets with
        # a stride-0 sample axis (a constant Jacobian's) stack sample-minor
        stack = np.stack([W.d for W in fields], axis=1,
                         out=np.empty((N, len(fields), n, m)))
        stack += (np.stack([W.val for W in fields], axis=1,
                           out=np.empty(stack.shape[:3]))
                  @ _tr(self._gamma_J[star])).reshape(stack.shape)
        return stack


def along(nab, dirs=None):
    """nabla-bar W of K fields (`nab`, from GWData.nabla) in L domain
    directions (`dirs`, (N, L, m) coefficients; None for the m coordinate
    directions d/du^i): the (N, L, K, n) array, direction axis first."""
    if dirs is None:
        return np.moveaxis(nab, -1, 1)
    return np.matvec(nab[:, None], dirs[:, :, None])


def _over(a, v):
    """The per-sample array `a` with a unit axis for each label axis of the
    vectors `v`, (N, labels..., k), so that it broadcasts over them."""
    return a.reshape(a.shape[:1] + (1,) * (v.ndim - 2) + a.shape[1:])


def _jrecip_sqrt(s):
    root = np.sqrt(s.val)
    val = 1.0 / root
    return Jet(val, -0.5 * s.d / (root * s.val)[:, None])


def split(ctx, v):
    """Decompose ambient vectors, shape (N, labels..., n), into
    tangent-basis and normal-basis coefficients; every reconstruction must
    close to 1e-10."""
    return _split(ctx, v)[:2]


def _split(ctx, v):
    """split(ctx, v) and the g-norm of each reconstruction defect."""
    v = np.asarray(v, dtype=float)
    a = ctx.tangent_coeffs(v)
    b = ctx.normal_coeffs(v)
    defect = ctx.gnorm(v - _recon(ctx, a, b))
    if (defect > 1e-10 * (1.0 + ctx.gnorm(v))).any():
        raise GeometryError("degenerate frame: split reconstruction failed")
    return a, b, defect


def _recon(ctx, a, b):
    """The ambient vectors with tangent-basis coefficients a and
    normal-basis coefficients b."""
    return (np.matvec(_over(ctx.J.val, a), a)
            + np.matvec(_over(ctx.normal, b), b))


class TFBCSplit:
    """Matrices of the tangential/normal parts of the contact tensor in a
    context's frames, per sample: T tangent->tangent (Jacobian-column
    coefficients), F tangent->normal, B normal->tangent, C normal->normal."""

    def __init__(self, T, F, B, C):
        self.T = T
        self.F = F
        self.B = B
        self.C = C


def tfbc(acs, ctx):
    """Decompose phi at a context's points."""
    phi_y = acs.phi.at(ctx.y)
    # the images of the frame vectors, one row each
    cols = (_tr(phi_y @ ctx.J.val), _tr(phi_y @ ctx.normal))
    return TFBCSplit(*(_tr(coeffs(v)) for v in cols
                       for coeffs in (ctx.tangent_coeffs, ctx.normal_coeffs)))


# ---------------------------------------------------------------------------
# checks


def check_gauss_weingarten(mg, samples, tol=1e-7):
    """Reconstruction of the two derivative decompositions, the pairing of
    shape operators with the opposite fundamental forms, symmetry of h and
    h*, and the dual pairing of the induced connections."""
    emb = mg.emb
    m = emb.m
    ctxs = mg.contexts(samples)

    res = Residuals(
        "gauss-weingarten", {"samples": samples.count, "m": m, "n": emb.n}, {
            "jacobian-rank": "rank J = m at samples",
            "gauss-reconstruction": "∇̄_X Y = ∇_X Y + h(X,Y)",
            "gauss-reconstruction-dual": "∇̄*_X Y = ∇*_X Y + h*(X,Y)",
            "weingarten-reconstruction": "∇̄_X V = -A_V X + ∇⊥_X V",
            "weingarten-reconstruction-dual": "∇̄*_X V = -A*_V X + ∇*⊥_X V",
            "shape-pairing": "g(A_V X, Y) = g(h*(X,Y), V)",
            "shape-pairing-dual": "g(A*_V X, Y) = g(h(X,Y), V)",
            "h-symmetry": "h(X,Y) = h(Y,X)",
            "hstar-symmetry": "h*(X,Y) = h*(Y,X)",
            "induced-duality":
                "X g(Y,Z) = g(∇_X Y, Z) + g(Y, ∇*_X Z) on the submanifold",
        })

    xy = labels("X=u{} Y=u{}", m, m)
    xyz = labels("X=u{} Y=u{} Z=u{}", m, m, m)
    for ctx in ctxs:
        J = ctx.J.val
        scale = _scale(J, ctx.G.val)
        add = res.adder(scale, ctx.index)
        res.add("jacobian-rank", np.where(ctx.rank == m, 0.0, 1.0),
                index=ctx.index)
        nk = len(ctx.normal_jets)
        xv = labels("X=u{} V=N{}", m, nk)
        # per connection, [:, i, j] is the tangential (nab) and the normal
        # (h) part of nabla-bar_{u_i} u_j, and [:, i, k] is the shape
        # operator of normal k along u_i
        nab, h, A = {}, {}, {}
        for star, sfx in ((False, ""), (True, "-dual")):
            v = along(ctx.nabla(ctx.frame, star))
            nab[star] = ctx.tangential(v)
            h[star] = v - nab[star]
            add(f"gauss-reconstruction{sfx}",
                _split(ctx, nab[star] + h[star])[2], xy)
            v = along(ctx.nabla(ctx.normal_jets, star))
            add(f"weingarten-reconstruction{sfx}", _split(ctx, v)[2], xv)
            A[star] = -ctx.tangential(v)
        # pairing: g(A_V X, Y) = g(h*(X,Y), V) and the starred twin, over
        # (X, V, Y)
        Y = ctx.tangents[:, None, None]
        V = ctx.normals[:, None, :, None]
        xvy = labels("X=u{0} Y=u{2} V=N{1}", m, nk, m)
        add("shape-pairing", abs(ctx.ginner(A[False][:, :, :, None], Y)
                                 - ctx.ginner(h[True][:, :, None], V)), xvy)
        add("shape-pairing-dual", abs(ctx.ginner(A[True][:, :, :, None], Y)
                                      - ctx.ginner(h[False][:, :, None], V)),
            xvy)
        add("h-symmetry", h[False] - np.transpose(h[False], (0, 2, 1, 3)))
        add("hstar-symmetry", h[True] - np.transpose(h[True], (0, 2, 1, 3)))
        # induced duality: d_i gind_jk = gind(nab_i j, k) + gind(j, nab*_i k),
        # over (i, j, k), with d_i gind_jk read from the Gram jet
        gram = ctx.gram
        cj = ctx.tangent_coeffs(nab[False])[:, :, :, None]
        ck = ctx.tangent_coeffs(nab[True])[:, :, None]
        lhs = np.moveaxis(ctx.Gram.d, -1, 1)
        rhs = (np.vecdot(cj, _tr(gram)[:, None, None])
               + np.vecdot(gram[:, None, :, None], ck))
        res.add("induced-duality", abs(lhs - rhs), xyz,
                np.maximum(scale[:, None, None, None], abs(lhs)), ctx.index)
    return res.report(tol)


def check_structure_identities(mg, samples, tol=1e-8):
    """The algebraic consequences of the tangential/normal splitting of the
    contact tensor: the squared-part identities, the transfer relations,
    skewness and the cross pairing."""
    _needs_acs(mg, "structure-identities")
    res = Residuals(
        "structure-identities",
        {"samples": samples.count, "m": mg.emb.m, "n": mg.emb.n}, {
            "xi-tangency": "ξ ∈ TM",
            "t-squared": "T²X = -X + η(X)ξ - BFX",
            "c-squared": "C²V = -V - FBV",
            "ft-cf": "FTX = -CFX",
            "tb-bc": "TBV = -BCV",
            "t-skew": "g(TX, Y) = -g(X, TY)",
            "c-skew": "g(CU, V) = -g(U, CV)",
            "fb-adjoint": "g(FX, V) = -g(X, BV)",
        })

    for ctx in mg.contexts(samples):
        add = res.adder(_scale(ctx.phi.val, ctx.G.val), ctx.index)
        m, nk = ctx.m, ctx.normal.shape[-1]
        xs, vs = labels("X=u{}", m), labels("V=N{}", nk)
        xiv = ctx.xi.val
        xtan = ctx.tangential(xiv)
        add("xi-tangency", ctx.gnorm(xiv - xtan))

        X, V = ctx.tangents, ctx.normals
        tx = ctx.t_val(X)
        fx = ctx.f_val(X)
        lhs = (ctx.t_val(tx) + X - ctx.eta_of(X)[..., None] * xtan[:, None]
               + ctx.t_val(fx))
        add("t-squared", ctx.gnorm(lhs), xs)
        add("ft-cf", ctx.gnorm(ctx.f_val(tx) + ctx.f_val(fx)), xs)
        add("t-skew", abs(ctx.ginner(tx[:, :, None], X[:, None])
                          + ctx.ginner(X[:, :, None], tx[:, None])),
            labels("X=u{} Y=u{}", m, m))
        bv = ctx.t_val(V)
        add("fb-adjoint", abs(ctx.ginner(fx[:, :, None], V[:, None])
                              + ctx.ginner(X[:, :, None], bv[:, None])),
            labels("X=u{} V=N{}", m, nk))
        cv = ctx.f_val(V)
        lhs = ctx.f_val(cv) + V + ctx.f_val(bv)
        add("c-squared", ctx.gnorm(lhs), vs)
        add("tb-bc", ctx.gnorm(ctx.t_val(bv) + ctx.t_val(cv)), vs)
        add("c-skew", abs(ctx.ginner(cv[:, :, None], V[:, None])
                          + ctx.ginner(V[:, :, None], cv[:, None])),
            labels("U=N{} V=N{}", nk, nk))
    return res.report(tol)


def check_transport_identities(mg, samples, tol=1e-8):
    """First-order transport identities for the tangential/normal parts of
    the contact tensor along a submanifold of a compatible statistical
    ambient space, plus the reduction of the xi-transport to the
    submanifold.  Sign-convention twins are reported informationally."""
    _needs_acs(mg, "transport-identities")
    m = mg.emb.m
    res = Residuals(
        "transport-identities",
        {"samples": samples.count, "m": m, "n": mg.emb.n}, {
            "t-transport":
                "∇_X TY - T∇*_X Y = A_{FY}X + Bh*(X,Y) + g(X,Y)ξ - η(Y)X",
            "t-transport-alt-sign":
                "∇_X TY - T∇*_X Y = A_{FY}X + Bh*(X,Y) + η(Y)X - g(X,Y)ξ",
            "f-transport": "∇⊥_X FY - F∇*_X Y = Ch*(X,Y) - h(X, TY)",
            "b-transport": "∇_X BV - B∇*⊥_X V = A_{CV}X - TA*_V X",
            "c-transport": "∇⊥_X CV - C∇*⊥_X V = -h(X, BV) - FA*_V X",
            "xi-reduction": "∇_X ξ - g(∇_X ξ, ξ)ξ = -TX",
            "xi-reduction-alt-sign": "∇_X ξ - g(∇_X ξ, ξ)ξ = TX",
            "h-xi": "h(X, ξ) = -FX",
            "h-xi-alt-sign": "h(X, ξ) = FX",
        })
    xs, xy = labels("X=u{}", m), labels("X=u{} Y=u{}", m, m)

    for ctx in mg.contexts(samples):
        add = res.adder(_scale(ctx.phi.val, ctx.G.val, ctx.gamma_scale),
                        ctx.index)
        X = ctx.tangents
        xiv = ctx.xi.val
        # [:, i, j] along u_i of the frame field u_j, of its T and F parts
        v = along(ctx.nabla(ctx.frame, star=True))
        nab_star = ctx.tangential(v)
        hstar = ctx.normal_part(v)
        dt = along(ctx.nabla([ctx.t_jet(Y) for Y in ctx.frame]))
        df = along(ctx.nabla([ctx.f_jet(Y) for Y in ctx.frame]))
        # tangential transport
        lhs = (ctx.tangential(dt) - ctx.t_val(nab_star) + ctx.tangential(df)
               - ctx.t_val(hstar))
        rhs = (ctx.ginner(X[:, :, None], X[:, None])[..., None]
               * xiv[:, None, None]
               - ctx.eta_of(X)[:, None, :, None] * X[:, :, None])
        add("t-transport", ctx.gnorm(lhs - rhs), xy)
        add("t-transport-alt-sign", ctx.gnorm(lhs + rhs), xy)
        # normal transport
        lhsn = (ctx.normal_part(df) - ctx.f_val(nab_star)
                - ctx.f_val(hstar) + ctx.normal_part(dt))
        add("f-transport", ctx.gnorm(lhsn), xy)
        # xi reduction and h(X, xi)
        v = along(ctx.nabla([ctx.xi]))[:, :, 0]
        nxi = ctx.tangential(v)
        comp = ctx.ginner(nxi, xiv[:, None])
        red = nxi - comp[..., None] * ctx.tangential(xiv)[:, None]
        tx = ctx.t_val(X)
        add("xi-reduction", ctx.gnorm(red + tx), xs)
        add("xi-reduction-alt-sign", ctx.gnorm(red - tx), xs)
        hxi = ctx.normal_part(v)
        fx = ctx.f_val(X)
        add("h-xi", ctx.gnorm(hxi + fx), xs)
        add("h-xi-alt-sign", ctx.gnorm(hxi - fx), xs)
        # normal-argument transports, [:, i, k] along u_i of normal k
        xv = labels("X=u{} V=N{}", m, len(ctx.normal_jets))
        v = along(ctx.nabla(ctx.normal_jets, star=True))
        perp_star = ctx.normal_part(v)
        a_star = -ctx.tangential(v)
        db = along(ctx.nabla([ctx.t_jet(V) for V in ctx.normal_jets]))
        dc = along(ctx.nabla([ctx.f_jet(V) for V in ctx.normal_jets]))
        lhs = (ctx.tangential(db) - ctx.t_val(perp_star)
               + ctx.tangential(dc) + ctx.t_val(a_star))
        add("b-transport", ctx.gnorm(lhs), xv)
        lhs = (ctx.normal_part(dc) - ctx.f_val(perp_star)
               + ctx.normal_part(db) + ctx.f_val(a_star))
        add("c-transport", ctx.gnorm(lhs), xv)
    return res.report(tol)
