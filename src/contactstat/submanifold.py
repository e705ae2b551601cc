"""Embedded-submanifold machinery: induced metric, tangential/normal
projection, Gauss-Weingarten data for a pair of dual connections, the
tangential/normal decomposition of an almost-contact tensor, and the
first-order identity checks that tie them together.

A sample set's contexts come from one batched evaluation: the image
points, the Jacobian, the pulled-back metric and contact fields with their
partials, and the ambient Christoffel values at every image point.  Each
per-point context slices these arrays and carries the fields as first-order
jets in the domain coordinates; the ambient covariant derivative along the
map uses the ambient Christoffel values at the image point, which keeps
every evaluator independent of any choice of ambient extension.  A
non-finite value in the batch is a DomainError that names its expression
and the first failing domain point.
"""

import numpy as np

from .exprlang import Const, DomainError, Expr
from .geometry import (INPUT_ERRORS, ConnField, GeometryError, Grid,
                       MetricField, StatTriple, VectorField, _coerce_expr)
from .jets import Jet, jconst, jinv, jmatmat, jmatvec, jscale, jT, jvecdot
from .report import CheckReport, Tracker
from .sampling import sample_box

__all__ = [
    "RankDropError", "Embedding", "GWData", "TFBCSplit",
    "MapGeometry", "frame_point", "induced_metric", "split",
    "gauss_weingarten", "tfbc", "check_gauss_weingarten",
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


class _Batch:
    """Everything the contexts of one point batch read, evaluated over the
    whole batch at once; domain vector fields are evaluated on first use."""

    def __init__(self, mg, points):
        self.points = points
        self.y, *fields = _checked(mg.grids, points)
        self.fields = list(zip(fields[::2], fields[1::2]))
        _, self.gamma, self.gamma_star = mg.st.gammas(self.y)
        self._vector_fields = {}

    def jets(self, s):
        return [Jet(v[s], d[s]) for v, d in self.fields]

    def vector_field(self, X):
        """Values and partials [k][i] = d_i X^k of X at every point."""
        hit = self._vector_fields.get(id(X))
        if hit is None:
            hit = (X, *_checked([X.grid, X.jac_grid], self.points))
            self._vector_fields[id(X)] = hit
        return hit[1:]


class MapGeometry:
    """Shared symbolic data for one (embedding, ambient statistical
    structure) pair.  Builds the Gauss-Weingarten contexts of a sample set
    from one batched evaluation and remembers them, or the exception that
    stopped the build, for that set."""

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
        """One context per point of a Samples set, built once for the set."""
        return _built_once(self, samples, lambda s: self._build(s.points))

    def context(self, p):
        """The context at one domain point: the same build, on a batch of one."""
        return self._build(np.asarray(p, dtype=float)[None])[0]

    def _build(self, points):
        batch = _Batch(self, points)
        return [GWData(batch, s) for s in range(len(points))]


class GWData:
    """Evaluators at one frame point: the tangent frame (the Jacobian
    columns) and a deterministic g-orthonormal normal frame, ambient
    derivative along the map for both connections, fundamental forms, shape
    operators, normal connections, and the tangential/normal parts of the
    contact tensor."""

    def __init__(self, batch, s):
        self._batch = batch
        self.s = s
        self.p = batch.points[s]
        self.y = batch.y[s]

        self.J, self.G, *contact = batch.jets(s)
        n, m = self.n, self.m = self.J.val.shape
        if np.linalg.matrix_rank(self.J.val, tol=GS_THRESHOLD) < m:
            raise RankDropError(self.p)
        self.Gram = jmatmat(jT(self.J), jmatmat(self.G, self.J))
        self.Gram_inv = jinv(self.Gram)
        self.Pi_tan = jmatmat(self.J, jmatmat(self.Gram_inv,
                                              jmatmat(jT(self.J), self.G)))
        self.Pi_nor = jconst(np.eye(n), m) - self.Pi_tan

        self.gamma, self.gamma_star = batch.gamma[s], batch.gamma_star[s]
        self.phi, self.xi, self.eta = contact or (None, None, None)
        self._jets = {}

        self.normal_jets = self._normal_frame()
        # the value-level frame: gram matrix of the tangent basis, and the
        # normal basis as columns, g-orthonormal
        J, G = self.J.val, self.G.val
        self.normal = (np.stack([f.val for f in self.normal_jets], axis=1)
                       if self.normal_jets else np.zeros((n, 0)))
        self.gram = J.T @ G @ J
        self.gram_inv = np.linalg.inv(self.gram)
        defect = np.abs(J.T @ G @ self.normal).max() if self.normal.size else 0.0
        if defect > 1e-10:
            raise GeometryError(f"tangent/normal orthogonality defect {defect:.2e}")

    # -- construction helpers

    def _gs(self, candidates, against):
        frame = list(against)
        kept = []
        for cand in candidates:
            w = cand
            for f in frame:
                w = w - jscale(f, jvecdot(w, jmatvec(self.G, f)))
            nsq = jvecdot(w, jmatvec(self.G, w))
            if nsq.val <= GS_THRESHOLD ** 2:
                continue
            unit = jscale(w, _jrecip_sqrt(nsq))
            frame.append(unit)
            kept.append(unit)
        return kept

    def _normal_frame(self):
        m, n = self.m, self.n
        tangent_cols = [Jet(self.J.val[:, i], self.J.d[:, i, :]) for i in range(m)]
        tan_on = self._gs(tangent_cols, [])
        if len(tan_on) < m:
            raise RankDropError(self.p)
        basis = [jconst(np.eye(n)[:, a], m) for a in range(n)]
        return self._gs(basis, tan_on)

    # -- value-level helpers

    def tangent_coeffs(self, v):
        """Coefficients of the tangential part of v in the Jacobian columns."""
        return self.gram_inv @ (self.J.val.T @ (self.G.val @ v))

    def normal_coeffs(self, v):
        return self.normal.T @ (self.G.val @ v)

    def tangential(self, v):
        return self.Pi_tan.val @ v

    def normal_part(self, v):
        return self.Pi_nor.val @ v

    def gnorm(self, v):
        return float(np.sqrt(max(0.0, v @ self.G.val @ v)))

    def ginner(self, u, v):
        return float(u @ self.G.val @ v)

    def eta_of(self, v):
        return float(self.eta.val @ v)

    def phi_val(self, v):
        return self.phi.val @ v

    def t_val(self, v):
        return self.tangential(self.phi_val(v))

    def f_val(self, v):
        return self.normal_part(self.phi_val(v))

    def field_val(self, X):
        """A domain vector field's value here, from its batched evaluation."""
        return self._batch.vector_field(X)[0][self.s]

    # -- jet-level field builders (memoised per generator object)

    def domain_jet(self, X):
        key = ("dom", id(X))
        if key not in self._jets:
            vals, d = self._batch.vector_field(X)
            self._jets[key] = Jet(vals[self.s], d[self.s])
        return self._jets[key]

    def push_jet(self, X):
        key = ("push", id(X))
        if key not in self._jets:
            self._jets[key] = jmatvec(self.J, self.domain_jet(X))
        return self._jets[key]

    def t_jet(self, X):
        key = ("t", id(X))
        if key not in self._jets:
            self._jets[key] = jmatvec(
                self.Pi_tan, jmatvec(self.phi, self.push_jet(X)))
        return self._jets[key]

    def f_jet(self, X):
        key = ("f", id(X))
        if key not in self._jets:
            self._jets[key] = jmatvec(
                self.Pi_nor, jmatvec(self.phi, self.push_jet(X)))
        return self._jets[key]

    def b_jet(self, V):
        key = ("b", id(V))
        if key not in self._jets:
            self._jets[key] = (V, jmatvec(self.Pi_tan, jmatvec(self.phi, V)))
        return self._jets[key][1]

    def c_jet(self, V):
        key = ("c", id(V))
        if key not in self._jets:
            self._jets[key] = (V, jmatvec(self.Pi_nor, jmatvec(self.phi, V)))
        return self._jets[key][1]

    # -- the covariant derivative along the map

    def dbar(self, xdom, W, star=False):
        """ambient nabla_X W at this point for a domain direction X (given
        by coefficient values) and a field W given as a jet."""
        gam = self.gamma_star if star else self.gamma
        xdom = np.asarray(xdom, dtype=float)
        xamb = self.J.val @ xdom
        return W.d @ xdom + np.einsum("kab,a,b->k", gam, xamb, W.val)

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
    return Jet(val, -0.5 * s.d / (root * s.val))


def split(ctx, v):
    """Decompose an ambient vector at a context's point into tangent-basis
    and normal-basis coefficients; the reconstruction must close to 1e-10."""
    v = np.asarray(v, dtype=float)
    a = ctx.tangent_coeffs(v)
    b = ctx.normal_coeffs(v)
    recon = ctx.J.val @ a + (ctx.normal @ b if b.size else 0.0)
    if ctx.gnorm(v - recon) > 1e-10 * (1.0 + ctx.gnorm(v)):
        raise GeometryError("degenerate frame: split reconstruction failed")
    return a, b


def frame_point(emb, g_ambient, p):
    """The context at p of the embedding into (g_ambient, flat connection):
    its tangent and normal frames, for splitting ambient vectors."""
    flat = StatTriple(g_ambient, ConnField.flat(g_ambient.dim))
    return MapGeometry(emb, flat).context(p)


def gauss_weingarten(emb, st, ctx_or_p, acs=None):
    """The context at a domain point, or at the point of another context,
    for a statistical ambient structure."""
    p = ctx_or_p.p if isinstance(ctx_or_p, GWData) else ctx_or_p
    return MapGeometry(emb, st, acs=acs).context(p)


class TFBCSplit:
    """Matrices of the tangential/normal parts of the contact tensor in a
    context's frames: T tangent->tangent (Jacobian-column coefficients),
    F tangent->normal, B normal->tangent, C normal->normal."""

    def __init__(self, T, F, B, C):
        self.T = T
        self.F = F
        self.B = B
        self.C = C


def tfbc(acs, ctx, phi_y=None):
    """Decompose phi at a context's point.  `phi_y` overrides the evaluated
    phi matrix (used when the caller already substituted along the map)."""
    if phi_y is None:
        phi_y = acs.phi_at(ctx.y[None])[0]
    m = ctx.m
    k = ctx.normal.shape[1]
    phiJ = phi_y @ ctx.J.val
    phiN = phi_y @ ctx.normal if k else np.zeros((ctx.n, 0))
    T = np.stack([ctx.tangent_coeffs(phiJ[:, i]) for i in range(m)], axis=1)
    F = np.stack([ctx.normal_coeffs(phiJ[:, i]) for i in range(m)], axis=1) \
        if k else np.zeros((0, m))
    B = (np.stack([ctx.tangent_coeffs(phiN[:, j]) for j in range(k)], axis=1)
         if k else np.zeros((m, 0)))
    C = (np.stack([ctx.normal_coeffs(phiN[:, j]) for j in range(k)], axis=1)
         if k else np.zeros((0, 0)))
    return TFBCSplit(T, F, B, C)


# ---------------------------------------------------------------------------
# checks


def _domain_samples(emb, samples=None, **kwargs):
    """`samples` when given, else seeded samples on the domain chart;
    `kwargs` are sample_box's count, seed and box."""
    if samples is not None:
        return samples
    return sample_box(emb.m, **kwargs)


def check_gauss_weingarten(emb, st, samples=None, tol=1e-7, mg=None):
    """Reconstruction of the two derivative decompositions, the pairing of
    shape operators with the opposite fundamental forms, symmetry of h and
    h*, and the dual pairing of the induced connections."""
    samples = _domain_samples(emb, samples)
    if mg is None:
        mg = MapGeometry(emb, st)
    m = emb.m
    ctxs = mg.contexts(samples)
    # d_i gind_jk at every sample, indexed [s, j, k, i]
    [dgind] = _checked([Grid(_partials(induced_metric(emb, st.g).entries, m))],
                       samples.points)

    rep = CheckReport(check="gauss-weingarten",
                      census={"samples": samples.count, "m": m, "n": emb.n})
    t_rank = Tracker()
    t_gauss = Tracker()
    t_gauss_d = Tracker()
    t_wein = Tracker()
    t_wein_d = Tracker()
    t_adj = Tracker()
    t_adj_d = Tracker()
    t_hsym = Tracker()
    t_hsym_d = Tracker()
    t_dual = Tracker()

    frame = [VectorField.coordinate(m, i) for i in range(m)]
    for s, ctx in enumerate(ctxs):
        J = ctx.J.val
        t_rank.add(0.0 if np.linalg.matrix_rank(
            J, tol=GS_THRESHOLD) == m else 1.0, sample=s)
        scale = max(np.abs(J).max(), np.abs(ctx.G.val).max(), 1.0)
        nk = ctx.normal.shape[1]
        hvals = np.zeros((m, m, emb.n))
        hvals_d = np.zeros((m, m, emb.n))
        nab = np.zeros((m, m, emb.n))
        nab_d = np.zeros((m, m, emb.n))
        for i in range(m):
            xdom = np.eye(m)[i]
            for j in range(m):
                for star, sink_t, sink_h in ((False, nab, hvals),
                                             (True, nab_d, hvals_d)):
                    vt, vn = ctx.gauss(xdom, frame[j], star)
                    sink_t[i, j] = vt
                    sink_h[i, j] = vn
                    v = vt + vn
                    a, b = split(ctx, v)
                    recon = J @ a + (ctx.normal @ b if nk else 0.0)
                    (t_gauss_d if star else t_gauss).add(
                        ctx.gnorm(v - recon), sample=s,
                        labels=f"X=u{i+1} Y=u{j+1}", scale=scale)
        for i in range(m):
            xdom = np.eye(m)[i]
            for kidx, Vjet in enumerate(ctx.normal_jets):
                for star, sink in ((False, t_wein), (True, t_wein_d)):
                    v = ctx.dbar(xdom, Vjet, star)
                    a, b = split(ctx, v)
                    recon = J @ a + ctx.normal @ b
                    sink.add(ctx.gnorm(v - recon), sample=s,
                             labels=f"X=u{i+1} V=N{kidx+1}", scale=scale)
                # pairing: g(A_V X, Y) = g(h*(X,Y), V) and the starred twin
                A = ctx.shape_op(xdom, Vjet, star=False)
                A_d = ctx.shape_op(xdom, Vjet, star=True)
                for j in range(m):
                    yamb = J[:, j]
                    t_adj.add(abs(ctx.ginner(A, yamb)
                                  - ctx.ginner(hvals_d[i, j], Vjet.val)),
                              sample=s, labels=f"X=u{i+1} Y=u{j+1} V=N{kidx+1}",
                              scale=scale)
                    t_adj_d.add(abs(ctx.ginner(A_d, yamb)
                                    - ctx.ginner(hvals[i, j], Vjet.val)),
                                sample=s, labels=f"X=u{i+1} Y=u{j+1} V=N{kidx+1}",
                                scale=scale)
        t_hsym.add_batch((hvals - np.transpose(hvals, (1, 0, 2)))[None],
                         scale=scale)
        t_hsym_d.add_batch((hvals_d - np.transpose(hvals_d, (1, 0, 2)))[None],
                           scale=scale)
        # induced duality: d_i gind_jk = gind(nab_i j, k) + gind(j, nab*_i k)
        gram = ctx.gram
        for i in range(m):
            for j in range(m):
                cj = ctx.tangent_coeffs(nab[i, j])
                for kq in range(m):
                    ck = ctx.tangent_coeffs(nab_d[i, kq])
                    lhs = dgind[s, j, kq, i]
                    rhs = cj @ gram[:, kq] + gram[j, :] @ ck
                    t_dual.add(abs(lhs - rhs), sample=s,
                               labels=f"X=u{i+1} Y=u{j+1} Z=u{kq+1}",
                               scale=max(scale, abs(lhs)))

    rep.records.append(t_rank.build(
        "jacobian-rank", "rank J = m at samples", tol))
    rep.records.append(t_gauss.build(
        "gauss-reconstruction",
        "∇̄_X Y = ∇_X Y + h(X,Y)", tol))
    rep.records.append(t_gauss_d.build(
        "gauss-reconstruction-dual",
        "∇̄*_X Y = ∇*_X Y + h*(X,Y)", tol))
    rep.records.append(t_wein.build(
        "weingarten-reconstruction",
        "∇̄_X V = -A_V X + ∇⊥_X V", tol))
    rep.records.append(t_wein_d.build(
        "weingarten-reconstruction-dual",
        "∇̄*_X V = -A*_V X + ∇*⊥_X V", tol))
    rep.records.append(t_adj.build(
        "shape-pairing", "g(A_V X, Y) = g(h*(X,Y), V)", tol))
    rep.records.append(t_adj_d.build(
        "shape-pairing-dual", "g(A*_V X, Y) = g(h(X,Y), V)", tol))
    rep.records.append(t_hsym.build("h-symmetry", "h(X,Y) = h(Y,X)", tol))
    rep.records.append(t_hsym_d.build("hstar-symmetry", "h*(X,Y) = h*(Y,X)", tol))
    rep.records.append(t_dual.build(
        "induced-duality",
        "X g(Y,Z) = g(∇_X Y, Z) + g(Y, ∇*_X Z) on the submanifold",
        tol))
    return rep


def check_structure_identities(emb, st, acs, samples=None, tol=1e-8, mg=None):
    """The algebraic consequences of the tangential/normal splitting of the
    contact tensor: the squared-part identities, the transfer relations,
    skewness and the cross pairing."""
    samples = _domain_samples(emb, samples)
    if mg is None:
        mg = MapGeometry(emb, st, acs=acs)
    rep = CheckReport(check="structure-identities",
                      census={"samples": samples.count, "m": emb.m, "n": emb.n})

    names = ["xi-tangency", "t-squared", "c-squared", "ft-cf", "tb-bc",
             "t-skew", "c-skew", "fb-adjoint"]
    idents = [
        "ξ ∈ TM",
        "T²X = -X + η(X)ξ - BFX",
        "C²V = -V - FBV",
        "FTX = -CFX",
        "TBV = -BCV",
        "g(TX, Y) = -g(X, TY)",
        "g(CU, V) = -g(U, CV)",
        "g(FX, V) = -g(X, BV)",
    ]
    tr = {nm: Tracker() for nm in names}

    for s, ctx in enumerate(mg.contexts(samples)):
        scale = max(np.abs(ctx.phi.val).max(), np.abs(ctx.G.val).max(), 1.0)
        xiv = ctx.xi.val
        xtan = ctx.tangential(xiv)
        tr["xi-tangency"].add(ctx.gnorm(xiv - xtan), sample=s, scale=scale)

        tangents = [ctx.J.val[:, i] for i in range(ctx.m)]
        normals = [ctx.normal[:, j] for j in range(ctx.normal.shape[1])]
        for i, v in enumerate(tangents):
            tv = ctx.t_val(v)
            fv = ctx.f_val(v)
            lhs = (ctx.t_val(tv) + v - ctx.eta_of(v) * xtan
                   + ctx.tangential(ctx.phi_val(fv)))
            tr["t-squared"].add(ctx.gnorm(lhs), sample=s,
                                labels=f"X=u{i+1}", scale=scale)
            ftx = ctx.f_val(tv)
            cfx = ctx.normal_part(ctx.phi_val(fv))
            tr["ft-cf"].add(ctx.gnorm(ftx + cfx), sample=s,
                            labels=f"X=u{i+1}", scale=scale)
            for j, w in enumerate(tangents):
                tr["t-skew"].add(
                    abs(ctx.ginner(tv, w) + ctx.ginner(v, ctx.t_val(w))),
                    sample=s, labels=f"X=u{i+1} Y=u{j+1}", scale=scale)
            for j, nv in enumerate(normals):
                bv = ctx.tangential(ctx.phi_val(nv))
                tr["fb-adjoint"].add(
                    abs(ctx.ginner(fv, nv) + ctx.ginner(v, bv)),
                    sample=s, labels=f"X=u{i+1} V=N{j+1}", scale=scale)
        for j, nv in enumerate(normals):
            bv = ctx.tangential(ctx.phi_val(nv))
            cv = ctx.normal_part(ctx.phi_val(nv))
            lhs = ctx.normal_part(ctx.phi_val(cv)) + nv + ctx.f_val(bv)
            tr["c-squared"].add(ctx.gnorm(lhs), sample=s,
                                labels=f"V=N{j+1}", scale=scale)
            tbv = ctx.t_val(bv)
            bcv = ctx.tangential(ctx.phi_val(cv))
            tr["tb-bc"].add(ctx.gnorm(tbv + bcv), sample=s,
                            labels=f"V=N{j+1}", scale=scale)
            for j2, nw in enumerate(normals):
                cw = ctx.normal_part(ctx.phi_val(nw))
                tr["c-skew"].add(
                    abs(ctx.ginner(cv, nw) + ctx.ginner(nv, cw)),
                    sample=s, labels=f"U=N{j+1} V=N{j2+1}", scale=scale)

    for nm, ident in zip(names, idents):
        rep.records.append(tr[nm].build(nm, ident, tol))
    return rep


def check_transport_identities(emb, sss, samples=None, tol=1e-8, mg=None):
    """First-order transport identities for the tangential/normal parts of
    the contact tensor along a submanifold of a compatible statistical
    ambient space, plus the reduction of the xi-transport to the
    submanifold.  Sign-convention twins are reported informationally."""
    st, acs = sss.st, sss.acs
    samples = _domain_samples(emb, samples)
    if mg is None:
        mg = MapGeometry(emb, st, acs=acs)
    m = emb.m
    rep = CheckReport(check="transport-identities",
                      census={"samples": samples.count, "m": m, "n": emb.n})

    names = ["t-transport", "t-transport-alt-sign", "f-transport",
             "b-transport", "c-transport", "xi-reduction",
             "xi-reduction-alt-sign", "h-xi", "h-xi-alt-sign"]
    tr = {nm: Tracker() for nm in names}
    frame = [VectorField.coordinate(m, i) for i in range(m)]

    for s, ctx in enumerate(mg.contexts(samples)):
        J = ctx.J.val
        scale = max(np.abs(ctx.phi.val).max(), np.abs(ctx.G.val).max(),
                    np.abs(ctx.gamma).max(), 1.0)
        xiv = ctx.xi.val
        xi_jet = ctx.xi
        pushes = [ctx.push_jet(Y) for Y in frame]
        t_jets = [ctx.t_jet(Y) for Y in frame]
        f_jets = [ctx.f_jet(Y) for Y in frame]
        for i in range(m):
            xdom = np.eye(m)[i]
            xamb = J[:, i]
            for j in range(m):
                yamb = J[:, j]
                nab_star = ctx.nabla_tan(xdom, pushes[j], star=True)
                hstar = ctx.h(xdom, pushes[j], star=True)
                lab = f"X=u{i+1} Y=u{j+1}"
                # tangential transport
                lhs = (ctx.nabla_tan(xdom, t_jets[j])
                       - ctx.t_val(nab_star)
                       - ctx.shape_op(xdom, f_jets[j])
                       - ctx.tangential(ctx.phi_val(hstar)))
                rhs = ctx.ginner(xamb, yamb) * xiv - ctx.eta_of(yamb) * xamb
                tr["t-transport"].add(ctx.gnorm(lhs - rhs), sample=s,
                                      labels=lab, scale=scale)
                tr["t-transport-alt-sign"].add(ctx.gnorm(lhs + rhs),
                                               sample=s, labels=lab,
                                               scale=scale)
                # normal transport
                lhsn = (ctx.perp(xdom, f_jets[j])
                        - ctx.f_val(nab_star)
                        - ctx.normal_part(ctx.phi_val(hstar))
                        + ctx.h(xdom, t_jets[j]))
                tr["f-transport"].add(ctx.gnorm(lhsn), sample=s,
                                      labels=lab, scale=scale)
            # xi reduction and h(X, xi)
            nxi = ctx.nabla_tan(xdom, xi_jet)
            comp = ctx.ginner(nxi, xiv)
            red = nxi - comp * ctx.tangential(xiv)
            tx = ctx.t_val(xamb)
            lab = f"X=u{i+1}"
            tr["xi-reduction"].add(ctx.gnorm(red + tx), sample=s,
                                   labels=lab, scale=scale)
            tr["xi-reduction-alt-sign"].add(ctx.gnorm(red - tx), sample=s,
                                            labels=lab, scale=scale)
            hxi = ctx.h(xdom, xi_jet)
            fx = ctx.f_val(xamb)
            tr["h-xi"].add(ctx.gnorm(hxi + fx), sample=s, labels=lab,
                           scale=scale)
            tr["h-xi-alt-sign"].add(ctx.gnorm(hxi - fx), sample=s,
                                    labels=lab, scale=scale)
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
                tr["b-transport"].add(ctx.gnorm(lhs), sample=s, labels=lab,
                                      scale=scale)
                lhs = (ctx.perp(xdom, c_jet)
                       - ctx.normal_part(ctx.phi_val(perp_star))
                       + ctx.h(xdom, b_jet)
                       + ctx.f_val(a_star))
                tr["c-transport"].add(ctx.gnorm(lhs), sample=s, labels=lab,
                                      scale=scale)

    idents = {
        "t-transport":
            "∇_X TY - T∇*_X Y = A_{FY}X + Bh*(X,Y) + g(X,Y)ξ - η(Y)X",
        "t-transport-alt-sign":
            "∇_X TY - T∇*_X Y = A_{FY}X + Bh*(X,Y) + η(Y)X - g(X,Y)ξ",
        "f-transport":
            "∇⊥_X FY - F∇*_X Y = Ch*(X,Y) - h(X, TY)",
        "b-transport":
            "∇_X BV - B∇*⊥_X V = A_{CV}X - TA*_V X",
        "c-transport":
            "∇⊥_X CV - C∇*⊥_X V = -h(X, BV) - FA*_V X",
        "xi-reduction":
            "∇_X ξ - g(∇_X ξ, ξ)ξ = -TX",
        "xi-reduction-alt-sign":
            "∇_X ξ - g(∇_X ξ, ξ)ξ = TX",
        "h-xi": "h(X, ξ) = -FX",
        "h-xi-alt-sign": "h(X, ξ) = FX",
    }
    for nm in names:
        info = nm.endswith("alt-sign")
        rep.records.append(tr[nm].build(
            nm, idents[nm], tol, informational=info,
            note="opposite sign convention" if info else ""))
    return rep
