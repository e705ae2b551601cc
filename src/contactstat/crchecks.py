"""Contact CR-structure verification: distribution classification,
integrability, geodesicity/umbilicity classifiers, and the CR-product
criterion.

Every equivalence theorem is realised as independently computed residual
families; the engine reports co-occurrence of the two sides and never
derives one from the other.  Membership statements "v lies in S" are
scored as the metric norm of v's component orthogonal to S.
"""

from dataclasses import replace

import numpy as np

from .geometry import GeometryError, _built_once
from .jets import jmatvec
from .report import Residuals, labels
from .submanifold import (GWData, _by_pattern, _needs_acs, _over, _scale,
                          _tr, _uniform, along)

__all__ = [
    "CRStructure",
    "check_contact_cr", "check_integrability_D", "check_integrability_Dperp",
    "check_dual_shape_identities", "classify_geodesic",
    "check_mixed_geodesic_consequences", "mixed_geodesic_verdict",
    "check_cr_product",
]


class CRStructure:
    """Submanifold plus the orthogonal splitting of its tangent bundle into
    an invariant distribution (containing the ambient Reeb field) and an
    anti-invariant complement, each kept as a tuple of generator
    VectorFields (`D`, `Dperp`).  `mg` is the submanifold's MapGeometry,
    with the ambient almost-contact structure."""

    def __init__(self, mg, D, Dperp):
        _needs_acs(mg, "a CR structure")
        self.mg = mg
        self.D, self.Dperp = tuple(D), tuple(Dperp)
        m = mg.emb.m
        for name, gens in (("D", self.D), ("Dperp", self.Dperp)):
            if any(g.dim != m for g in gens):
                raise GeometryError(
                    f"{name} generators need {m} components, one per "
                    "submanifold coordinate")

    def contexts(self, samples):
        """A sample set's contexts, one per drop pattern of the shared
        MapGeometry's contexts and of the frames built here, built once for
        the set; a failed build raises the same exception for every later
        request."""
        return _built_once(self, samples, self._build)

    def _build(self, samples):
        contexts = []
        for ctx in self.mg.contexts(samples):
            def build(points, index, ctx=ctx):
                # a part of ctx's points gets its own Gauss-Weingarten context
                if len(index) < len(ctx.index):
                    ctx = GWData(self.mg, points, index)
                return _CRContext(self, ctx)
            contexts += _by_pattern(build, ctx.points, ctx.index)
        return contexts

    def brackets_amb(self, c, kind):
        """The pushed values, at a context's points, of the brackets
        [X, Y] = dY X - dX Y of the generator pairs i < j of D ("D") or of
        D-perp ("Dperp"), from the generators' jets: one row per pair, in
        the (i, j) order of np.triu_indices."""
        jets = [c.ctx.domain_jet(X) for X in getattr(self, kind)]
        vals = [np.matvec(jets[j].d, jets[i].val)
                - np.matvec(jets[i].d, jets[j].val)
                for i, j in zip(*np.triu_indices(len(jets), 1))]
        return np.matvec(c.J[:, None], _as_rows(vals, c.ctx.m, len(c.index)))


def _span_projector(rows, G, name, points):
    """g-orthogonal projector onto the span of the (N, k, n) rows at each
    sample (empty span -> zero).  Dependent rows are a GeometryError that
    names the distribution and the first domain point whose own solve
    fails."""
    if rows.shape[1] == 0:
        return np.zeros(G.shape)
    cols = np.ascontiguousarray(_tr(rows))
    rhs = _tr(cols) @ G
    gram = rhs @ cols
    try:
        return cols @ np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        # slogdet's sign is 0 exactly where the LU factorisation that solve
        # runs meets a zero pivot, which is where solve fails
        singular = np.linalg.slogdet(gram)[0] == 0
        raise GeometryError(
            f"{name} generators are linearly dependent at domain point "
            f"{points[singular.argmax()].tolist()}") from None


def _as_rows(vectors, n, N):
    """Per-sample vectors as the rows of an (N, k, n) stack."""
    return np.stack(vectors, axis=1) if vectors else np.zeros((N, 0, n))


class _CRContext:
    """Working data over a Gauss-Weingarten context's points: the
    generators as (N, rank, m) rows in the domain and (N, rank, n) rows
    along the map, span projectors, the normal-bundle splitting into the
    image of the anti-invariant distribution and its invariant complement,
    and the residual scale.  Generator values come from their batched
    evaluation.  It keeps no reference to the sample set whose memo keeps
    it: that cycle would hold every array of the set's contexts until the
    cyclic garbage collector ran, long after the run ended."""

    def __init__(self, cr, ctx):
        self.ctx = ctx
        self.index = ctx.index
        self.G = ctx.G.val
        self.J = ctx.J.val
        self.scale = _scale(self.G, ctx.phi.val)
        N, n, m = len(ctx.index), ctx.n, ctx.m
        self.d_dom = _as_rows([ctx.domain_jet(g).val for g in cr.D], m, N)
        self.dp_dom = _as_rows([ctx.domain_jet(g).val for g in cr.Dperp], m, N)
        self.d_amb = np.matvec(self.J[:, None], self.d_dom)
        self.dp_amb = np.matvec(self.J[:, None], self.dp_dom)
        self.P_D = _span_projector(self.d_amb, self.G, "D", ctx.points)
        self.P_Dp = _span_projector(self.dp_amb, self.G, "Dperp", ctx.points)
        self.xi = ctx.xi.val
        self.xi_dom = ctx.tangent_coeffs(self.xi)
        # phi X for the D generators X, in domain coefficients
        self.phid_dom = ctx.tangent_coeffs(_as_rows(
            [ctx.t_jet(ctx.push_jet(X)).val for X in cr.D], n, N))
        # D with the Reeb direction removed, for the frame projections
        xi_unit = self.xi / np.maximum(ctx.gnorm(self.xi), 1e-300)[:, None]
        reduced = []
        for v in np.moveaxis(self.d_amb, 1, 0):
            w = v - ctx.ginner(v, xi_unit)[:, None] * xi_unit
            for u in reduced:
                w = w - ctx.ginner(w, u)[:, None] * u
            norm = ctx.gnorm(w)
            if _uniform(norm > 1e-10):
                reduced.append(w / norm[:, None])
        self.P_1 = _span_projector(_as_rows(reduced, n, N), self.G,
                                   "reduced D", ctx.points)
        # normal splitting: the image of phi on Dperp, then its complement
        self.phiZ_jets = [ctx.f_jet(ctx.push_jet(Z)) for Z in cr.Dperp]
        self.fframe = ctx._gs(self.phiZ_jets, [])
        self.nu_jets = ctx._gs(ctx.normal_jets, self.fframe)
        self.nu = _as_rows([f.val for f in self.nu_jets], n, N)
        self.P_nu = _span_projector(self.nu, self.G, "nu", ctx.points)

    def off(self, v, projector):
        """The g-norm of the part of v, (N, labels..., n), off the span."""
        return self.ctx.gnorm(v - np.matvec(_over(projector, v), v))


def check_contact_cr(cr, samples, tol=1e-8):
    """Structural records: generator independence and spanning, mutual
    orthogonality, invariance of D, anti-invariance of its complement, Reeb
    membership, invariance of the nu-subbundle, and the four projection
    identities of the tangential/normal decomposition."""
    res = Residuals(
        "contact-cr", {"samples": samples.count, "rank-D": len(cr.D),
                       "rank-Dperp": len(cr.Dperp)}, {
            "generator-rank": "generators linearly independent",
            "span-completeness": "TM = D ⊕ D⊥",
            "d-dperp-orthogonal": "g(D, D⊥) = 0",
            "d-invariance": "φ(D) ⊆ D",
            "dperp-anti-invariance": "φ(D⊥) ⊆ T⊥M",
            "xi-in-d": "ξ ∈ D",
            "nu-invariance": "φ(ν) ⊆ ν",
            "nu-decomposition": "T⊥M = φD⊥ ⊕ ν, φD⊥ ⊥ ν",
            "projection-decomposition": "X = P₁X + P₂X + η(X)ξ",
            "fp1-zero": "FP₁ = 0",
            "tp2-zero": "TP₂ = 0",
            "f-is-fp2": "F = FP₂",
            "t-is-tp1": "T = TP₁",
        })
    m = cr.mg.emb.m
    rD, rP = len(cr.D), len(cr.Dperp)
    ds, ps, xs = labels("X=D{}", rD), labels("Z=P{}", rP), labels("X=u{}", m)

    for c in cr.contexts(samples):
        ctx = c.ctx
        N, n = len(c.index), ctx.n
        add = res.adder(c.scale, c.index)
        allgens = np.concatenate([c.d_dom, c.dp_dom], axis=1)
        gram = allgens @ ctx.gram @ _tr(allgens)
        rank = np.linalg.matrix_rank(gram, tol=1e-10)
        add("generator-rank", (rD + rP - rank).astype(float))
        add("span-completeness", (m - rank).astype(float))
        add("d-dperp-orthogonal",
            abs(ctx.ginner(c.d_amb[:, :, None], c.dp_amb[:, None])),
            labels("X=D{} Z=P{}", rD, rP))
        add("d-invariance", c.off(ctx.phi_val(c.d_amb), c.P_D), ds)
        add("dperp-anti-invariance", ctx.gnorm(ctx.t_val(c.dp_amb)), ps)
        add("xi-in-d", c.off(c.xi, c.P_D))
        add("nu-invariance", c.off(ctx.phi_val(c.nu), c.P_nu),
            labels("ν{}", len(c.nu_jets)))
        # the normal bundle splits as (phi Dperp) + nu, orthogonally
        missing = ctx.normal.shape[-1] - len(c.fframe) - len(c.nu_jets)
        ff = _as_rows([f.val for f in c.fframe], n, N)
        add("nu-decomposition", np.concatenate(
            [np.full((N, 1), float(missing)),
             abs(ctx.ginner(ff[:, :, None], c.nu[:, None])).reshape(N, -1)],
            axis=1))
        X = ctx.tangents
        p1v = np.matvec(_over(c.P_1, X), X)
        p2v = np.matvec(_over(c.P_Dp, X), X)
        add("projection-decomposition", ctx.gnorm(
            X - p1v - p2v - ctx.eta_of(X)[..., None] * c.xi[:, None]), xs)
        add("fp1-zero", ctx.gnorm(ctx.f_val(p1v)), xs)
        add("tp2-zero", ctx.gnorm(ctx.t_val(p2v)), xs)
        add("f-is-fp2", ctx.gnorm(ctx.f_val(X) - ctx.f_val(p2v)), xs)
        add("t-is-tp1", ctx.gnorm(ctx.t_val(X) - ctx.t_val(p1v)), xs)

    return res.report(tol)


def check_integrability_D(cr, samples, tol=1e-8):
    """Involutivity of the invariant distribution: bracket closure, the
    fundamental-form symmetry criterion, and the bridge identity tying the
    two together."""
    res = Residuals(
        "integrability-d", {"samples": samples.count,
                            "pairs": len(cr.D) * (len(cr.D) - 1) // 2}, {
            "d-bracket-closure": "[X, Y] ∈ D for X, Y ∈ D",
            "d-integrability-criterion": "g(h(X,φY), φZ) = g(h(Y,φX), φZ)",
            "d-integrability-bridge": "F[X,Y] = h(X,φY) - h(Y,φX)",
        })
    ii, jj = np.triu_indices(len(cr.D), 1)
    xy = [f"X=D{i+1} Y=D{j+1}" for i, j in zip(ii, jj)]
    xyz = labels("{} Z=P{}", xy, len(cr.Dperp))

    for c in cr.contexts(samples):
        if not xy:  # one generator makes no pair
            continue
        ctx = c.ctx
        add = res.adder(c.scale, c.index)
        br_amb = cr.brackets_amb(c, "D")
        add("d-bracket-closure", c.off(br_amb, c.P_D), xy)
        # [:, i, j] is h(X_i, phi X_j)
        h = ctx.normal_part(along(
            ctx.nabla([ctx.t_jet(ctx.push_jet(X)) for X in cr.D]), c.d_dom))
        hdiff = h[:, ii, jj] - h[:, jj, ii]
        phz = ctx.f_val(c.dp_amb)
        add("d-integrability-criterion",
            abs(ctx.ginner(hdiff[:, :, None], phz[:, None])), xyz)
        add("d-integrability-bridge", ctx.gnorm(ctx.f_val(br_amb) - hdiff), xy)

    return res.report(tol)


def check_integrability_Dperp(cr, samples, tol=1e-8):
    """Involutivity of the anti-invariant distribution: bracket closure,
    the shape-operator criterion, and its bridge through the tangential
    part of the bracket (sign-convention twin reported informationally)."""
    res = Residuals(
        "integrability-dperp", {"samples": samples.count, "pairs":
                                len(cr.Dperp) * (len(cr.Dperp) - 1) // 2}, {
            "dperp-bracket-closure": "[X, Y] ∈ D⊥ for X, Y ∈ D⊥",
            "dperp-integrability-criterion":
                "A_{φY}X - A_{φX}Y = g(Y,ξ)X - g(X,ξ)Y",
            "dperp-integrability-bridge":
                "A_{φY}X - A_{φX}Y = -T[X,Y] + g(Y,ξ)X - g(X,ξ)Y",
            "dperp-integrability-bridge-alt-sign":
                "A_{φY}X - A_{φX}Y = T[X,Y] + g(Y,ξ)X - g(X,ξ)Y",
        })
    ii, jj = np.triu_indices(len(cr.Dperp), 1)
    xy = [f"X=P{i+1} Y=P{j+1}" for i, j in zip(ii, jj)]

    for c in cr.contexts(samples):
        if not xy:  # one generator makes no pair
            continue
        ctx = c.ctx
        add = res.adder(c.scale, c.index)
        br_amb = cr.brackets_amb(c, "Dperp")
        add("dperp-bracket-closure", c.off(br_amb, c.P_Dp), xy)
        # [:, i, j] is A_{phi Z_j} Z_i
        a = -ctx.tangential(along(ctx.nabla(c.phiZ_jets), c.dp_dom))
        ax, ay = a[:, ii, jj], a[:, jj, ii]
        x_amb, y_amb = c.dp_amb[:, ii], c.dp_amb[:, jj]
        xi = c.xi[:, None]
        rhs = (ctx.ginner(y_amb, xi)[..., None] * x_amb
               - ctx.ginner(x_amb, xi)[..., None] * y_amb)
        add("dperp-integrability-criterion", ctx.gnorm(ax - ay - rhs), xy)
        tbr = ctx.t_val(br_amb)
        add("dperp-integrability-bridge", ctx.gnorm(ax - ay + tbr - rhs), xy)
        add("dperp-integrability-bridge-alt-sign",
            ctx.gnorm(ax - ay - tbr - rhs), xy)

    return res.report(tol)


def check_dual_shape_identities(cr, samples, tol=1e-8):
    """Shape-operator symmetry on the anti-invariant distribution and the
    two transport equivalences between normal-bundle derivatives of the
    F/B/C parts; each equivalence is reported as its two sides."""
    res = Residuals("dual-shape-identities", {"samples": samples.count}, {
        "a-f-symmetric": "A_{FY}Z = A_{FZ}Y on D⊥",
        "a-f-symmetric-dual": "A*_{FY}Z = A*_{FZ}Y on D⊥",
        "b-shape-symmetric": "A*_U BV = A*_V BU",
        "c-perp-parallel": "∇⊥_X CV = C∇*⊥_X V",
        "f-perp-parallel": "∇⊥_X FY = F∇*_X Y",
        "b-perp-parallel": "∇_X BV = B∇*⊥_X V",
    })
    m = cr.mg.emb.m
    # the ordered pairs i != j of D-perp generators
    ii, jj = np.nonzero(~np.eye(len(cr.Dperp), dtype=bool))
    yz = [f"Y=P{i+1} Z=P{j+1}" for i, j in zip(ii, jj)]

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = res.adder(c.scale, c.index)
        nk = len(ctx.normal_jets)
        # A_{FY} Z symmetric in the two anti-invariant slots; [:, j, i] is
        # A_{phi Z_i} Z_j (one generator makes no pair)
        for star, sfx in ((False, ""), (True, "-dual")) if yz else ():
            a = -ctx.tangential(along(ctx.nabla(c.phiZ_jets, star), c.dp_dom))
            add(f"a-f-symmetric{sfx}", ctx.gnorm(a[:, jj, ii] - a[:, ii, jj]),
                yz)
        # A*_U BV = A*_V BU over the normal frame; [:, v, u] is A*_{N_u} BN_v
        bv_jets = [ctx.t_jet(V) for V in ctx.normal_jets]
        nstar = ctx.nabla(ctx.normal_jets, star=True)
        bdom = ctx.tangent_coeffs(_as_rows([b.val for b in bv_jets], ctx.n,
                                           len(c.index)))
        a = -ctx.tangential(along(nstar, bdom))
        iu, iv = np.triu_indices(nk, 1)
        add("b-shape-symmetric", ctx.gnorm(a[:, iv, iu] - a[:, iu, iv]),
            [f"U=N{u+1} V=N{v+1}" for u, v in zip(iu, iv)])
        xv = labels("X=u{} V=N{}", m, nk)
        perp_star = ctx.normal_part(along(nstar))
        lhs = (ctx.normal_part(along(
            ctx.nabla([ctx.f_jet(V) for V in ctx.normal_jets])))
               - ctx.f_val(perp_star))
        add("c-perp-parallel", ctx.gnorm(lhs), xv)
        lhs = ctx.tangential(along(ctx.nabla(bv_jets))) - ctx.t_val(perp_star)
        add("b-perp-parallel", ctx.gnorm(lhs), xv)
        nab_star = ctx.tangential(along(ctx.nabla(ctx.frame, star=True)))
        lhs = (ctx.normal_part(along(
            ctx.nabla([ctx.f_jet(Y) for Y in ctx.frame])))
               - ctx.f_val(nab_star))
        add("f-perp-parallel", ctx.gnorm(lhs),
            labels("X=u{} Y=u{}", m, m))

    return res.report(tol)


def classify_geodesic(cr, samples, tol=1e-8):
    """Geodesicity/umbilicity/foliate classifiers for both fundamental
    forms, with the shape-operator companions of their characterisations."""
    plain = {
        "d-geodesic": "h = 0 on D x D",
        "dperp-geodesic": "h = 0 on D⊥ x D⊥",
        "mixed-geodesic": "h = 0 on D x D⊥",
        "d-umbilic": "h(X,Y) = g(X,Y)L on D x D (fit residual)",
        "umbilic-implies-geodesic": "D-umbilic forces L = 0 (h(ξ,ξ) = 0)",
        "foliate-remark": "h(φX, φY) = -h(X,Y) on D",
        "d-geodesic-shape": "A_V X ∈ D⊥ for X ∈ D",
        "dperp-geodesic-shape": "A_V X ∈ D for X ∈ D⊥",
        "mixed-geodesic-shape":
            "A_V X ∈ D for X ∈ D and A_V X ∈ D⊥ for X ∈ D⊥",
    }
    res = Residuals("geodesic-classifiers", {"samples": samples.count}, {
        **plain,
        # each dual classifier reads h* and A* in place of h and A
        **{f"{nm}-dual": ident.replace("h", "h*").replace("A_V", "A*_V")
           for nm, ident in plain.items()},
        "foliate": "[X, Y] ∈ D for X, Y ∈ D (D involutive)",
        "d-umbilic-factor": "|L| recovered by least squares",
        "d-umbilic-factor-dual": "|L| recovered by least squares (dual)",
    })
    rD, rP = len(cr.D), len(cr.Dperp)
    dd = labels("X=D{} Y=D{}", rD, rD)
    ii, jj = np.triu_indices(rD, 1)
    pairs = [f"X=D{i+1} Y=D{j+1}" for i, j in zip(ii, jj)]

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = res.adder(c.scale, c.index)
        d_push = [ctx.push_jet(X) for X in cr.D]
        dp_push = [ctx.push_jet(Z) for Z in cr.Dperp]
        t_jets = [ctx.t_jet(V) for V in d_push]
        nk = len(ctx.normal_jets)
        # the D-pair Gram matrix and its squared norm, for the umbilic fit
        gij = ctx.ginner(c.d_amb[:, :, None], c.d_amb[:, None])
        denom = (gij ** 2).reshape(len(gij), -1).sum(axis=1)
        for star in (False, True):
            sfx = "-dual" if star else ""
            # [:, i, j] is h(X_i, Y_j)
            h_dd = ctx.normal_part(along(ctx.nabla(d_push, star), c.d_dom))
            add(f"d-geodesic{sfx}", ctx.gnorm(h_dd), dd)
            ndp = ctx.nabla(dp_push, star)
            add(f"dperp-geodesic{sfx}",
                ctx.gnorm(ctx.normal_part(along(ndp, c.dp_dom))),
                labels("X=P{} Y=P{}", rP, rP))
            add(f"mixed-geodesic{sfx}",
                ctx.gnorm(ctx.normal_part(along(ndp, c.d_dom))),
                labels("X=D{} Y=P{}", rD, rP))
            # umbilicity: least-squares normal factor over the D-pairs
            L = (np.einsum("...ij,...ijk->...k", gij, h_dd)
                 / np.maximum(denom, 1e-300)[:, None])
            fit = h_dd - np.einsum("...ij,...k->...ijk", gij, L)
            fit_resid = np.max(ctx.gnorm(fit), axis=(1, 2))
            add(f"d-umbilic{sfx}", fit_resid)
            add(f"d-umbilic-factor{sfx}", ctx.gnorm(L))
            # the umbilic test decides per sample, at that sample's scale
            umbilic = fit_resid <= tol * (1.0 + c.scale)
            add(f"umbilic-implies-geodesic{sfx}",
                np.where(umbilic, ctx.gnorm(L), 0.0))
            # foliate consequence: h(phiX, phiY) = -h(X, Y) on D
            hpp = ctx.normal_part(along(ctx.nabla(t_jets, star), c.phid_dom))
            add(f"foliate-remark{sfx}", ctx.gnorm(hpp + h_dd), dd)
            # shape-operator companions; [:, k, i] is A_{V_k} X_i
            nv = ctx.nabla(ctx.normal_jets, star)
            ad = -ctx.tangential(np.swapaxes(along(nv, c.d_dom), 1, 2))
            ap = -ctx.tangential(np.swapaxes(along(nv, c.dp_dom), 1, 2))
            add(f"d-geodesic-shape{sfx}", c.off(ad, c.P_Dp),
                labels("V=N{} X=D{}", nk, rD))
            add(f"dperp-geodesic-shape{sfx}", c.off(ap, c.P_D),
                labels("V=N{} X=P{}", nk, rP))
            add(f"mixed-geodesic-shape{sfx}",
                np.concatenate([c.off(ad, c.P_D), c.off(ap, c.P_Dp)], axis=2),
                labels("V=N{} X={}", nk,
                       labels("D{}", rD) + labels("P{}", rP)))
        add("foliate", c.off(cr.brackets_amb(c, "D"), c.P_D), pairs)

    return res.report(tol, informational=("d-umbilic-factor",
                                          "d-umbilic-factor-dual"))


def check_mixed_geodesic_consequences(cr, samples, tol=1e-8):
    """Shape/normal-connection transfers that hold on mixed-geodesic
    submanifolds, before their verdict (mixed_geodesic_verdict): every
    record counts, and the census gives the sample count alone."""
    res = Residuals(
        "mixed-geodesic-consequences", {"samples": samples.count}, {
            "shape-transfer": "A_{(φV)⊥}X = φA*_V X on D",
            "shape-transfer-dual": "A*_{(φV)⊥}X = φA_V X on D",
            "perp-transfer": "∇⊥_X (φV)⊥ = φ∇*⊥_X V on D",
            "perp-transfer-dual": "∇*⊥_X (φV)⊥ = φ∇⊥_X V on D",
            "foliate-anticommute": "A*_V φX + φA*_V X = 0 on D",
            "foliate-anticommute-dual": "A_V φX + φA_V X = 0 on D",
        })

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = res.adder(c.scale, c.index)
        xv = labels("X=D{} V=N{}", len(cr.D), len(ctx.normal_jets))
        cv_jets = [ctx.f_jet(V) for V in ctx.normal_jets]
        # each identity pairs one connection's derivative of (phi V)-perp
        # with the opposite connection's of V; [:, i, k] is along X_i of
        # the field of V_k
        for star, sfx in ((False, ""), (True, "-dual")):
            dcv = along(ctx.nabla(cv_jets, star), c.d_dom)
            nv = ctx.nabla(ctx.normal_jets, not star)
            dv = along(nv, c.d_dom)
            phia = ctx.t_val(-ctx.tangential(dv))
            add(f"shape-transfer{sfx}",
                ctx.gnorm(-ctx.tangential(dcv) - phia), xv)
            lhs = ctx.normal_part(dcv) - ctx.phi_val(ctx.normal_part(dv))
            add(f"perp-transfer{sfx}", ctx.gnorm(lhs), xv)
            lhs = -ctx.tangential(along(nv, c.phid_dom)) + phia
            add(f"foliate-anticommute{sfx}", ctx.gnorm(lhs), xv)

    return res.report(tol)


def mixed_geodesic_verdict(rep, geo):
    """The check_mixed_geodesic_consequences report `rep` with the verdict
    of `geo`, the classify_geodesic report on the same samples: its
    mixed-geodesic and foliate verdicts go into the census, and the records
    whose precondition fails become informational with a note.  A report
    that is an engine-precondition record stays one: the classifier's,
    under the consequences' name, before the consequences' own."""
    if geo.records[0].name == "engine-precondition":
        return replace(geo, check=rep.check)
    if rep.records[0].name == "engine-precondition":
        return rep
    mixed = (geo.record("mixed-geodesic").passed,
             geo.record("mixed-geodesic-dual").passed)
    foliate = geo.record("foliate").passed
    # every record needs both mixed-geodesic verdicts; the anticommutation
    # records also need D foliate
    unmet = ()
    if not all(mixed):
        unmet = [r.name for r in rep.records]
    elif not foliate:
        unmet = ["foliate-anticommute", "foliate-anticommute-dual"]
    note = "precondition failed; reported for information"
    return replace(
        rep, census={**rep.census, "mixed-geodesic": bool(mixed[0]),
                     "mixed-geodesic-dual": bool(mixed[1]),
                     "foliate": bool(foliate)},
        records=[replace(r, informational=r.name in unmet,
                         note=note if r.name in unmet else "")
                 for r in rep.records])


def check_cr_product(cr, samples, tol=1e-8):
    """The CR-product criterion and its supporting identities: the shape
    pairing with the anti-invariant image, the leaf-geodesy surrogates for
    both distributions and both connections, the normal-derivative
    antisymmetry inside the image of the anti-invariant distribution, and
    the shape antisymmetry against the invariant normal complement.
    Sign-convention twins are reported informationally."""
    res = Residuals("cr-product", {"samples": samples.count}, {
        "product-criterion": "A_{φU}X = -η(X)U",
        "product-criterion-alt-sign": "A_{φU}X = η(X)U",
        "leaf-pairing": "g(h*(X,U), φZ) = -η(X) g(φZ, φU)",
        "leaf-pairing-alt-sign": "g(h*(X,U), φZ) = η(X) g(φZ, φU)",
        "shape-transport-pairing":
            "g(A_{φZ}U, X) = g(∇*_U Z, φX) - η(X) g(Z,U)",
        "shape-transport-pairing-alt-sign":
            "g(A_{φZ}U, X) = g(∇*_U Z, φX) + η(X) g(Z,U)",
        "phidperp-perp-antisymmetry": "∇⊥_Z φW - ∇⊥_W φZ ∈ φD⊥",
        "nu-shape-antisymmetry": "A*_λ φY = -A_{φλ}Y",
        "dperp-leaf": "∇_Z W ∈ D⊥ for Z, W ∈ D⊥",
        "dperp-leaf-dual": "∇*_Z W ∈ D⊥ for Z, W ∈ D⊥",
        "d-leaf": "∇_X Y ∈ D for X, Y ∈ D",
        "d-leaf-dual": "∇*_X Y ∈ D for X, Y ∈ D",
    })
    m = cr.mg.emb.m
    rD, rP = len(cr.D), len(cr.Dperp)
    # X ranges over the D generators plus the Reeb field explicitly
    xl = labels("X=D{}", rD) + ["X=ξ"]
    ii, jj = np.triu_indices(rP, 1)

    for c in cr.contexts(samples):
        ctx = c.ctx
        N = len(c.index)
        add = res.adder(c.scale, c.index)
        x_dom = np.concatenate([c.d_dom, c.xi_dom[:, None]], axis=1)
        x_amb = np.concatenate([c.d_amb, c.xi[:, None]], axis=1)
        eta_x = ctx.eta_of(x_amb)
        d_pushes = [ctx.push_jet(Z) for Z in cr.Dperp]
        nphi = ctx.nabla(c.phiZ_jets)
        nz = {star: ctx.nabla(d_pushes, star) for star in (False, True)}
        # [:, j, x] is A_{phi U_j} X
        a = -ctx.tangential(np.swapaxes(along(nphi, x_dom), 1, 2))
        eta_u = eta_x[:, None, :, None] * c.dp_amb[:, :, None]
        ux = labels("{1} U=P{0}", rP, xl)
        add("product-criterion", ctx.gnorm(a + eta_u), ux)
        add("product-criterion-alt-sign", ctx.gnorm(a - eta_u), ux)
        # leaf pairing: g(h*(X,U), phi Z) = -eta(X) g(phi Z, phi U), over
        # (X, U, Z)
        hstar = ctx.normal_part(along(nz[True], x_dom))
        phz = _as_rows([f.val for f in c.phiZ_jets], ctx.n, N)
        lhs = ctx.ginner(hstar[:, :, :, None], phz[:, None, None])
        rhs = eta_x[:, :, None, None] * ctx.ginner(phz[:, None, None],
                                                  phz[:, None, :, None])
        xuz = labels("{} U=P{} Z=P{}", xl, rP, rP)
        add("leaf-pairing", abs(lhs + rhs), xuz)
        add("leaf-pairing-alt-sign", abs(lhs - rhs), xuz)
        # shape/transport pairing over the full tangent frame, over (U, Z, X)
        a = -ctx.tangential(along(nphi))[:, :, :, None]
        nst = ctx.tangential(along(nz[True]))[:, :, :, None]
        lhs = ctx.ginner(a, x_amb[:, None, None])
        mid = ctx.ginner(nst, ctx.phi_val(x_amb)[:, None, None])
        gzu = ctx.ginner(c.dp_amb[:, None],
                         ctx.tangents[:, :, None])[..., None]
        uzx = labels("U=u{} Z=P{} {}", m, rP, xl)
        add("shape-transport-pairing",
            abs(lhs - mid + eta_x[:, None, None] * gzu), uzx)
        add("shape-transport-pairing-alt-sign",
            abs(lhs - mid - eta_x[:, None, None] * gzu), uzx)
        # normal-derivative antisymmetry stays inside phi(Dperp); [:, i, j]
        # is the normal derivative along Z_i of phi Z_j
        perp = ctx.normal_part(along(nphi, c.dp_dom))
        lhs = perp[:, ii, jj] - perp[:, jj, ii]
        add("phidperp-perp-antisymmetry",
            ctx.gnorm(np.matvec(_over(c.P_nu, lhs), lhs)),
            [f"Z=P{i+1} W=P{j+1}" for i, j in zip(ii, jj)])
        # shape antisymmetry against the invariant normal complement, over
        # (Y, lambda)
        philams = [jmatvec(ctx.phi, lam) for lam in c.nu_jets]
        a1 = -ctx.tangential(along(ctx.nabla(c.nu_jets, star=True),
                                   c.phid_dom))
        a2 = -ctx.tangential(along(ctx.nabla(philams), c.d_dom))
        add("nu-shape-antisymmetry", ctx.gnorm(a1 + a2),
            labels("Y=D{} λ=ν{}", rD, len(c.nu_jets)))
        # leaf surrogates
        d_push = [ctx.push_jet(X) for X in cr.D]
        for star, d_nm, p_nm in ((False, "d-leaf", "dperp-leaf"),
                                 (True, "d-leaf-dual", "dperp-leaf-dual")):
            nzw = ctx.tangential(along(nz[star], c.dp_dom))
            add(p_nm, c.off(nzw, c.P_Dp),
                labels("Z=P{} W=P{}", rP, rP))
            nxy = ctx.tangential(along(ctx.nabla(d_push, star), c.d_dom))
            add(d_nm, c.off(nxy, c.P_D), labels("X=D{} Y=D{}", rD, rD))

    return res.report(tol)
