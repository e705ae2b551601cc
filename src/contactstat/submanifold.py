"""Embedded-submanifold machinery: induced metric, tangential/normal
projection, Gauss-Weingarten data for a pair of dual connections, the
tangential/normal decomposition of an almost-contact tensor, and the
first-order identity checks that tie them together.

Everything here is array code over a leading sample axis.  A context
(GWData) holds, for a batch of domain points, the image points, the
Jacobian, the pulled-back metric and contact fields as first-order jets in
the domain coordinates, and the ambient Christoffel values at every image
point, all from one batched evaluation; the ambient covariant derivative
along the map uses those Christoffel values, which keeps every evaluator
independent of any choice of ambient extension.  Gram-Schmidt may keep a
candidate at some samples and drop it at others (the circle
(cos x1, sin x1) builds its normal from e1 at x1 = 0 and from e2 at
x1 = pi/2), so a sample set gets one context per drop pattern, each with
the sample numbers (`index`) of its points; the checks add one value per
sample and context to their trackers.  A non-finite value in the batch is a
DomainError that names its expression and the first failing domain point.
"""

import numpy as np

from .exprlang import Const, DomainError, Expr
from .geometry import (INPUT_ERRORS, GeometryError, Grid, MetricField,
                       VectorField, _coerce_expr)
from .jets import (Jet, _tr, jconst, jinv, jmatmat, jmatvec, jscale, jT,
                   jvecdot)
from .report import Residuals

__all__ = [
    "RankDropError", "Embedding", "GWData", "TFBCSplit",
    "MapGeometry", "induced_metric", "split", "tfbc",
    "check_gauss_weingarten",
    "check_structure_identities", "check_transport_identities",
]

GS_THRESHOLD = 1e-10


class RankDropError(GeometryError):
    def __init__(self, point):
        super().__init__(
            f"jacobian rank drop at domain point {np.asarray(point).tolist()}")
        self.point = np.asarray(point)


class Embedding:
    """Map from an m-chart into an n-chart, one expression per component."""

    def __init__(self, comps, m):
        comps = list(comps)
        self.m = m
        self.n = len(comps)
        if self.n < m:
            raise GeometryError("ambient dimension below domain dimension")
        self.comps = tuple(_coerce_expr(c, m) for c in comps)
        self.jac_exprs = tuple(
            tuple(self.comps[a].diff(i) for i in range(m))
            for a in range(self.n))
        self._grid = Grid(self.comps)

    def at(self, points):
        return self._grid.at(points)


def induced_metric(emb, g_ambient):
    """Pullback metric as expressions over the domain chart."""
    gsub = g_ambient.substitute(emb.comps)
    m, n = emb.m, emb.n
    upper = {}
    for i in range(m):
        for j in range(i, m):
            acc = Const(0.0)
            for a in range(n):
                for b in range(n):
                    acc = acc + emb.jac_exprs[a][i] * gsub.entries[a][b] \
                        * emb.jac_exprs[b][j]
            upper[(i, j)] = acc
    return MetricField(m, upper)


def _partials(nested, m):
    """The grid of partials of a nested expression grid, with the
    derivative index innermost."""
    if isinstance(nested, Expr):
        return tuple(nested.diff(k) for k in range(m))
    return tuple(_partials(child, m) for child in nested)


def _checked(grids, points):
    """Each grid's values at `points`, under the domain policy of
    Expr.eval: a non-finite value raises DomainError naming the first
    failing point and the first non-finite expression there."""
    vals = [grid.at(points) for grid in grids]
    bad = [~np.isfinite(v).reshape(len(points), -1) for v in vals]
    rows = np.any([b.any(axis=1) for b in bad], axis=0)
    if rows.any():
        s = int(rows.argmax())
        grid, row = next((g, b[s]) for g, b in zip(grids, bad) if b[s].any())
        raise DomainError("non-finite result", grid.exprs[int(row.argmax())],
                          points[s])
    return vals


def _built_once(owner, samples, build):
    """build(samples), attempted once per sample set: the result, or the
    input error that stopped it, is kept for the set `owner` saw last."""
    if owner._built is None or owner._built[0] is not samples:
        try:
            result = build(samples)
        except INPUT_ERRORS as e:
            result = e
        owner._built = (samples, result)
    if isinstance(owner._built[1], Exception):
        raise owner._built[1]
    return owner._built[1]


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


def _empty_nabla_memos(contexts):
    """Empty the nabla memo of each GWData: the memo lives for one check,
    so that no check holds the (N, n, m) arrays of another."""
    for ctx in contexts:
        ctx.nabla_memo.clear()


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
    takes one.  Builds the Gauss-Weingarten contexts of a sample set and
    remembers them, or the exception that stopped the build, for that set."""

    def __init__(self, emb, st, acs=None):
        self.emb = emb
        self.st = st
        self.acs = acs
        fields = [emb.jac_exprs, st.g.substitute(emb.comps).entries]
        if acs is not None:
            fields.append(tuple(
                tuple(acs.phi[a][b].substitute(emb.comps) for b in range(emb.n))
                for a in range(emb.n)))
            fields.append(tuple(c.substitute(emb.comps) for c in acs.xi.comps))
            fields.append(tuple(c.substitute(emb.comps) for c in acs.eta.comps))
        # the image points, then the values and partials of J, G and, with
        # a contact structure, phi, xi and eta along the map
        self.grids = [emb._grid]
        for f in fields:
            self.grids += [Grid(f), Grid(_partials(f, emb.m))]
        self._built = None

    def contexts(self, samples):
        """A sample set's contexts, one per drop pattern, built once for
        the set and handed out with an empty nabla memo."""
        ctxs = _built_once(self, samples, lambda s: self._build(s.points))
        _empty_nabla_memos(ctxs)
        return ctxs

    def context(self, p):
        """The context at one domain point: the same build, on a batch of one."""
        [ctx] = self._build(np.asarray(p, dtype=float)[None])
        return ctx

    def _build(self, points):
        return _by_pattern(lambda pts, idx: GWData(self, pts, idx), points,
                           np.arange(len(points)))


class GWData:
    """Evaluators over a batch of frame points that share one drop pattern:
    the tangent frame (the Jacobian columns) and a deterministic
    g-orthonormal normal frame, ambient derivative along the map for both
    connections, fundamental forms, shape operators, normal connections,
    and the tangential/normal parts of the contact tensor.  Every array has
    the sample axis first; `index` holds the sample numbers of the points.

    Two memos: derived jet fields (push, t, f, b, c) live as long as the
    context; the (N, n, m) covariant derivatives nabla-bar W of `nabla`
    live for one check, because every contexts() call empties them."""

    def __init__(self, mg, points, index):
        self.points = points
        self.index = index
        self.y, *fields = _checked(mg.grids, points)
        self.J, self.G, *contact = [Jet(v, d) for v, d
                                    in zip(fields[::2], fields[1::2])]
        _, self.gamma, self.gamma_star = mg.st.gammas(self.y)
        self.phi, self.xi, self.eta = contact or (None, None, None)
        self._jets = {}
        self.nabla_memo = {}

        N, n, m = self.J.val.shape
        self.n, self.m = n, m
        low = np.linalg.matrix_rank(self.J.val, tol=GS_THRESHOLD) < m
        if low.any():
            raise RankDropError(points[low.argmax()])
        self.Gram = jmatmat(jT(self.J), jmatmat(self.G, self.J))
        self.Gram_inv = jinv(self.Gram)
        self.Pi_tan = jmatmat(self.J, jmatmat(self.Gram_inv,
                                              jmatmat(jT(self.J), self.G)))
        self.Pi_nor = jconst(np.eye(n), m) - self.Pi_tan

        self.normal_jets = self._normal_frame()
        # the value-level frame: gram matrix of the tangent basis, and the
        # normal basis as columns, g-orthonormal
        J, G = self.J.val, self.G.val
        self.normal = (np.stack([f.val for f in self.normal_jets], axis=-1)
                       if self.normal_jets else np.zeros((N, n, 0)))
        self.gram = _tr(J) @ G @ J
        self.gram_inv = np.linalg.inv(self.gram)
        if self.normal.size:
            defect = np.abs(_tr(J) @ G @ self.normal).reshape(N, -1).max(axis=1)
            bad = defect > 1e-10
            if bad.any():
                raise GeometryError("tangent/normal orthogonality defect "
                                    f"{defect[bad.argmax()]:.2e}")

    # -- construction helpers

    def _gs(self, candidates, against):
        frame = list(against)
        kept = []
        for cand in candidates:
            w = cand
            for f in frame:
                w = w - jscale(f, jvecdot(w, jmatvec(self.G, f)))
            nsq = jvecdot(w, jmatvec(self.G, w))
            if not _uniform(~(nsq.val <= GS_THRESHOLD ** 2)):
                continue
            unit = jscale(w, _jrecip_sqrt(nsq))
            frame.append(unit)
            kept.append(unit)
        return kept

    def _normal_frame(self):
        m, n = self.m, self.n
        tangent_cols = [Jet(self.J.val[:, :, i], self.J.d[:, :, i, :])
                        for i in range(m)]
        tan_on = self._gs(tangent_cols, [])
        if len(tan_on) < m:
            raise RankDropError(self.points[0])
        eye = np.broadcast_to(np.eye(n), (len(self.points), n, n))
        basis = [jconst(eye[:, :, a], m) for a in range(n)]
        return self._gs(basis, tan_on)

    # -- value-level helpers, on one ambient vector per sample

    def tangent_coeffs(self, v):
        """Coefficients of the tangential part of v in the Jacobian columns."""
        return np.matvec(self.gram_inv,
                         np.vecmat(np.matvec(self.G.val, v), self.J.val))

    def normal_coeffs(self, v):
        return np.vecmat(np.matvec(self.G.val, v), self.normal)

    def tangential(self, v):
        return np.matvec(self.Pi_tan.val, v)

    def normal_part(self, v):
        return np.matvec(self.Pi_nor.val, v)

    def gnorm(self, v):
        return np.sqrt(np.maximum(0.0, self.ginner(v, v)))

    def ginner(self, u, v):
        return np.vecdot(np.vecmat(u, self.G.val), v)

    def eta_of(self, v):
        return np.vecdot(self.eta.val, v)

    def phi_val(self, v):
        return np.matvec(self.phi.val, v)

    def t_val(self, v):
        return self.tangential(self.phi_val(v))

    def f_val(self, v):
        return self.normal_part(self.phi_val(v))

    # -- jet-level field builders (memoised per field)

    def _memo(self, key, make):
        if key not in self._jets:
            self._jets[key] = make()
        return self._jets[key]

    def domain_jet(self, X):
        """A domain vector field with its partials, evaluated on first use."""
        return self._memo(("dom", X), lambda: Jet(
            *_checked([X.grid, X.jac_grid], self.points)))

    def push_jet(self, X):
        return self._memo(("push", X),
                          lambda: jmatvec(self.J, self.domain_jet(X)))

    def t_jet(self, X):
        return self._memo(("t", X), lambda: jmatvec(
            self.Pi_tan, jmatvec(self.phi, self.push_jet(X))))

    def f_jet(self, X):
        return self._memo(("f", X), lambda: jmatvec(
            self.Pi_nor, jmatvec(self.phi, self.push_jet(X))))

    def b_jet(self, V):
        return self._memo(("b", V), lambda: jmatvec(
            self.Pi_tan, jmatvec(self.phi, V)))

    def c_jet(self, V):
        return self._memo(("c", V), lambda: jmatvec(
            self.Pi_nor, jmatvec(self.phi, V)))

    # -- the covariant derivative along the map

    def nabla(self, W, star=False):
        """The ambient covariant derivative of a jet field W along the map,
        for the connection (star=False) or its dual (star=True), in every
        domain direction at once: the (N, n, m) array
        nabla-bar W = W.d + Gamma(J., W), whose column i is
        nabla-bar_{d/du^i} W.  It is memoised per (field, connection) in
        `nabla_memo` for one check: every contexts() call of MapGeometry
        and CRStructure hands its contexts out with that memo empty."""
        key = (W, star)
        if key not in self.nabla_memo:
            gam = self.gamma_star if star else self.gamma
            self.nabla_memo[key] = (
                W.d + np.matvec(gam, W.val[:, None, :]) @ self.J.val)
        return self.nabla_memo[key]

    def dbar(self, xdom, W, star=False):
        """ambient nabla_X W at each point for a domain direction X (given
        by coefficient values, per sample or one for all) and a field W
        given as a jet: nabla(W, star) applied to X."""
        return np.matvec(self.nabla(W, star), np.asarray(xdom, dtype=float))

    def gauss(self, xdom, Y, star=False):
        """(tangential part, normal part) of nabla-bar_X (push Y)."""
        v = self.dbar(xdom, self.push_jet(Y), star)
        vt = self.tangential(v)
        return vt, v - vt

    def h(self, xdom, W, star=False):
        """normal part of nabla-bar_X W for a tangent-valued jet field W."""
        return self.normal_part(self.dbar(xdom, W, star))

    def nabla_tan(self, xdom, W, star=False):
        return self.tangential(self.dbar(xdom, W, star))

    def shape_op(self, xdom, V, star=False):
        """A_V X = - tangential part of nabla-bar_X V."""
        return -self.tangential(self.dbar(xdom, V, star))

    def perp(self, xdom, V, star=False):
        return self.normal_part(self.dbar(xdom, V, star))


def _jrecip_sqrt(s):
    root = np.sqrt(s.val)
    val = 1.0 / root
    return Jet(val, -0.5 * s.d / (root * s.val)[:, None])


def split(ctx, v):
    """Decompose ambient vectors, one per sample of a context, into
    tangent-basis and normal-basis coefficients; every reconstruction must
    close to 1e-10."""
    v = np.asarray(v, dtype=float)
    a = ctx.tangent_coeffs(v)
    b = ctx.normal_coeffs(v)
    recon = np.matvec(ctx.J.val, a) + np.matvec(ctx.normal, b)
    if (ctx.gnorm(v - recon) > 1e-10 * (1.0 + ctx.gnorm(v))).any():
        raise GeometryError("degenerate frame: split reconstruction failed")
    return a, b


class TFBCSplit:
    """Matrices of the tangential/normal parts of the contact tensor in a
    context's frames, per sample: T tangent->tangent (Jacobian-column
    coefficients), F tangent->normal, B normal->tangent, C normal->normal."""

    def __init__(self, T, F, B, C):
        self.T = T
        self.F = F
        self.B = B
        self.C = C


def _per_column(coeffs, cols):
    """coeffs applied to each column of an (N, n, k) stack."""
    return np.moveaxis(coeffs(np.moveaxis(cols, -1, 0)), 0, -1)


def tfbc(acs, ctx):
    """Decompose phi at a context's points."""
    phi_y = acs.phi_at(ctx.y)
    phiJ = phi_y @ ctx.J.val
    phiN = phi_y @ ctx.normal
    return TFBCSplit(_per_column(ctx.tangent_coeffs, phiJ),
                     _per_column(ctx.normal_coeffs, phiJ),
                     _per_column(ctx.tangent_coeffs, phiN),
                     _per_column(ctx.normal_coeffs, phiN))


# ---------------------------------------------------------------------------
# checks


def check_gauss_weingarten(mg, samples, tol=1e-7):
    """Reconstruction of the two derivative decompositions, the pairing of
    shape operators with the opposite fundamental forms, symmetry of h and
    h*, and the dual pairing of the induced connections."""
    emb = mg.emb
    m = emb.m
    ctxs = mg.contexts(samples)
    # d_i gind_jk at every sample, indexed [s, j, k, i]
    gind = induced_metric(emb, mg.st.g)
    [dgind] = _checked([Grid(_partials(gind.entries, m))], samples.points)

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

    frame = [VectorField.coordinate(m, i) for i in range(m)]
    for ctx in ctxs:
        J = ctx.J.val
        scale = _scale(J, ctx.G.val)
        add = res.adder(scale, ctx.index)
        full = np.linalg.matrix_rank(J, tol=GS_THRESHOLD) == m
        res.add("jacobian-rank", np.where(full, 0.0, 1.0), index=ctx.index)
        shape = (len(J), m, m, emb.n)
        hvals, hvals_d, nab, nab_d = (np.zeros(shape) for _ in range(4))
        for i in range(m):
            xdom = np.eye(m)[i]
            for j in range(m):
                for star, sink_t, sink_h in ((False, nab, hvals),
                                             (True, nab_d, hvals_d)):
                    vt, vn = ctx.gauss(xdom, frame[j], star)
                    sink_t[:, i, j] = vt
                    sink_h[:, i, j] = vn
                    v = vt + vn
                    a, b = split(ctx, v)
                    recon = np.matvec(J, a) + np.matvec(ctx.normal, b)
                    add("gauss-reconstruction-dual" if star
                        else "gauss-reconstruction",
                        ctx.gnorm(v - recon), f"X=u{i+1} Y=u{j+1}")
        for i in range(m):
            xdom = np.eye(m)[i]
            for kidx, Vjet in enumerate(ctx.normal_jets):
                for nm, star in (("weingarten-reconstruction", False),
                                 ("weingarten-reconstruction-dual", True)):
                    v = ctx.dbar(xdom, Vjet, star)
                    a, b = split(ctx, v)
                    recon = np.matvec(J, a) + np.matvec(ctx.normal, b)
                    add(nm, ctx.gnorm(v - recon), f"X=u{i+1} V=N{kidx+1}")
                # pairing: g(A_V X, Y) = g(h*(X,Y), V) and the starred twin
                A = ctx.shape_op(xdom, Vjet, star=False)
                A_d = ctx.shape_op(xdom, Vjet, star=True)
                for j in range(m):
                    yamb = J[:, :, j]
                    lab = f"X=u{i+1} Y=u{j+1} V=N{kidx+1}"
                    add("shape-pairing",
                        abs(ctx.ginner(A, yamb)
                            - ctx.ginner(hvals_d[:, i, j], Vjet.val)), lab)
                    add("shape-pairing-dual",
                        abs(ctx.ginner(A_d, yamb)
                            - ctx.ginner(hvals[:, i, j], Vjet.val)), lab)
        add("h-symmetry", hvals - np.transpose(hvals, (0, 2, 1, 3)))
        add("hstar-symmetry", hvals_d - np.transpose(hvals_d, (0, 2, 1, 3)))
        # induced duality: d_i gind_jk = gind(nab_i j, k) + gind(j, nab*_i k)
        gram = ctx.gram
        for i in range(m):
            for j in range(m):
                cj = ctx.tangent_coeffs(nab[:, i, j])
                for kq in range(m):
                    ck = ctx.tangent_coeffs(nab_d[:, i, kq])
                    lhs = dgind[ctx.index, j, kq, i]
                    rhs = (np.vecdot(cj, gram[:, :, kq])
                           + np.vecdot(gram[:, j, :], ck))
                    res.add("induced-duality", abs(lhs - rhs),
                            f"X=u{i+1} Y=u{j+1} Z=u{kq+1}",
                            np.maximum(scale, abs(lhs)), ctx.index)
    return res.report(tol)


def check_structure_identities(mg, samples, tol=1e-8):
    """The algebraic consequences of the tangential/normal splitting of the
    contact tensor: the squared-part identities, the transfer relations,
    skewness and the cross pairing."""
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
        xiv = ctx.xi.val
        xtan = ctx.tangential(xiv)
        add("xi-tangency", ctx.gnorm(xiv - xtan))

        tangents = [ctx.J.val[:, :, i] for i in range(ctx.m)]
        normals = [ctx.normal[:, :, j] for j in range(ctx.normal.shape[-1])]
        for i, v in enumerate(tangents):
            tv = ctx.t_val(v)
            fv = ctx.f_val(v)
            lhs = (ctx.t_val(tv) + v - ctx.eta_of(v)[:, None] * xtan
                   + ctx.tangential(ctx.phi_val(fv)))
            add("t-squared", ctx.gnorm(lhs), f"X=u{i+1}")
            ftx = ctx.f_val(tv)
            cfx = ctx.normal_part(ctx.phi_val(fv))
            add("ft-cf", ctx.gnorm(ftx + cfx), f"X=u{i+1}")
            for j, w in enumerate(tangents):
                add("t-skew",
                    abs(ctx.ginner(tv, w) + ctx.ginner(v, ctx.t_val(w))),
                    f"X=u{i+1} Y=u{j+1}")
            for j, nv in enumerate(normals):
                bv = ctx.tangential(ctx.phi_val(nv))
                add("fb-adjoint", abs(ctx.ginner(fv, nv) + ctx.ginner(v, bv)),
                    f"X=u{i+1} V=N{j+1}")
        for j, nv in enumerate(normals):
            bv = ctx.tangential(ctx.phi_val(nv))
            cv = ctx.normal_part(ctx.phi_val(nv))
            lhs = ctx.normal_part(ctx.phi_val(cv)) + nv + ctx.f_val(bv)
            add("c-squared", ctx.gnorm(lhs), f"V=N{j+1}")
            tbv = ctx.t_val(bv)
            bcv = ctx.tangential(ctx.phi_val(cv))
            add("tb-bc", ctx.gnorm(tbv + bcv), f"V=N{j+1}")
            for j2, nw in enumerate(normals):
                cw = ctx.normal_part(ctx.phi_val(nw))
                add("c-skew", abs(ctx.ginner(cv, nw) + ctx.ginner(nv, cw)),
                    f"U=N{j+1} V=N{j2+1}")
    return res.report(tol)


def check_transport_identities(mg, samples, tol=1e-8):
    """First-order transport identities for the tangential/normal parts of
    the contact tensor along a submanifold of a compatible statistical
    ambient space, plus the reduction of the xi-transport to the
    submanifold.  Sign-convention twins are reported informationally."""
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
    frame = [VectorField.coordinate(m, i) for i in range(m)]

    for ctx in mg.contexts(samples):
        J = ctx.J.val
        add = res.adder(_scale(ctx.phi.val, ctx.G.val, ctx.gamma), ctx.index)
        xiv = ctx.xi.val
        xi_jet = ctx.xi
        pushes = [ctx.push_jet(Y) for Y in frame]
        t_jets = [ctx.t_jet(Y) for Y in frame]
        f_jets = [ctx.f_jet(Y) for Y in frame]
        for i in range(m):
            xdom = np.eye(m)[i]
            xamb = J[:, :, i]
            for j in range(m):
                yamb = J[:, :, j]
                nab_star = ctx.nabla_tan(xdom, pushes[j], star=True)
                hstar = ctx.h(xdom, pushes[j], star=True)
                lab = f"X=u{i+1} Y=u{j+1}"
                # tangential transport
                lhs = (ctx.nabla_tan(xdom, t_jets[j])
                       - ctx.t_val(nab_star)
                       - ctx.shape_op(xdom, f_jets[j])
                       - ctx.tangential(ctx.phi_val(hstar)))
                rhs = (ctx.ginner(xamb, yamb)[:, None] * xiv
                       - ctx.eta_of(yamb)[:, None] * xamb)
                add("t-transport", ctx.gnorm(lhs - rhs), lab)
                add("t-transport-alt-sign", ctx.gnorm(lhs + rhs), lab)
                # normal transport
                lhsn = (ctx.perp(xdom, f_jets[j])
                        - ctx.f_val(nab_star)
                        - ctx.normal_part(ctx.phi_val(hstar))
                        + ctx.h(xdom, t_jets[j]))
                add("f-transport", ctx.gnorm(lhsn), lab)
            # xi reduction and h(X, xi)
            nxi = ctx.nabla_tan(xdom, xi_jet)
            comp = ctx.ginner(nxi, xiv)
            red = nxi - comp[:, None] * ctx.tangential(xiv)
            tx = ctx.t_val(xamb)
            lab = f"X=u{i+1}"
            add("xi-reduction", ctx.gnorm(red + tx), lab)
            add("xi-reduction-alt-sign", ctx.gnorm(red - tx), lab)
            hxi = ctx.h(xdom, xi_jet)
            fx = ctx.f_val(xamb)
            add("h-xi", ctx.gnorm(hxi + fx), lab)
            add("h-xi-alt-sign", ctx.gnorm(hxi - fx), lab)
            # normal-argument transports
            for kidx, Vjet in enumerate(ctx.normal_jets):
                lab = f"X=u{i+1} V=N{kidx+1}"
                b_jet = ctx.b_jet(Vjet)
                c_jet = ctx.c_jet(Vjet)
                perp_star = ctx.perp(xdom, Vjet, star=True)
                a_star = ctx.shape_op(xdom, Vjet, star=True)
                lhs = (ctx.nabla_tan(xdom, b_jet)
                       - ctx.tangential(ctx.phi_val(perp_star))
                       - ctx.shape_op(xdom, c_jet)
                       + ctx.t_val(a_star))
                add("b-transport", ctx.gnorm(lhs), lab)
                lhs = (ctx.perp(xdom, c_jet)
                       - ctx.normal_part(ctx.phi_val(perp_star))
                       + ctx.h(xdom, b_jet)
                       + ctx.f_val(a_star))
                add("c-transport", ctx.gnorm(lhs), lab)
    return res.report(tol)
