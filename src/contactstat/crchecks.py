"""Contact CR-structure verification: distribution classification,
integrability, geodesicity/umbilicity classifiers, and the CR-product
criterion.

Every equivalence theorem is realised as independently computed residual
families; the engine reports co-occurrence of the two sides and never
derives one from the other.  Membership statements "v lies in S" are
scored as the metric norm of v's component orthogonal to S.
"""

import numpy as np

from .geometry import GeometryError, VectorField, lie_bracket
from .jets import jmatvec
from .report import CheckReport, Tracker
from .submanifold import (GWData, _adder, _built_once, _by_pattern, _scale,
                          _tr, _uniform)

__all__ = [
    "Distribution", "CRStructure",
    "check_contact_cr", "check_integrability_D", "check_integrability_Dperp",
    "check_dual_shape_identities", "classify_geodesic",
    "check_mixed_geodesic_consequences", "check_cr_product",
]


class Distribution:
    """A distribution on the domain chart, given by generator fields."""

    def __init__(self, generators):
        self.generators = list(generators)
        self.rank = len(self.generators)
        dims = {g.dim for g in self.generators}
        if len(dims) > 1:
            raise GeometryError("distribution generators of mixed dimension")

    @property
    def dim(self):
        return self.generators[0].dim if self.generators else 0


class CRStructure:
    """Submanifold plus the orthogonal splitting of its tangent bundle into
    an invariant distribution (containing the ambient Reeb field) and an
    anti-invariant complement.  `mg` is the submanifold's MapGeometry, with
    the ambient almost-contact structure."""

    def __init__(self, mg, D, Dperp):
        self.mg = mg
        self.D = D if isinstance(D, Distribution) else Distribution(D)
        self.Dperp = Dperp if isinstance(Dperp, Distribution) else Distribution(Dperp)
        self._brackets = {}
        self._built = None

    def contexts(self, samples):
        """A sample set's contexts, one per drop pattern of the shared
        MapGeometry's contexts and of the frames built here, built once for
        the set; a failed build raises the same exception for every later
        request."""
        return _built_once(self, samples, self._build)

    def context(self, p):
        """The context at one domain point, on a batch of one."""
        return _CRContext(self, self.mg.context(p))

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

    def bracket(self, kind, i, j):
        key = (kind, i, j)
        if key not in self._brackets:
            gens = (self.D if kind == "D" else self.Dperp).generators
            self._brackets[key] = lie_bracket(gens[i], gens[j])
        return self._brackets[key]


def _span_projector(cols, G, name, points):
    """g-orthogonal projector onto the column span at each sample (empty
    span -> zero).  Dependent columns are a GeometryError that names the
    distribution and the first domain point whose own solve fails."""
    if cols.shape[-1] == 0:
        return np.zeros(G.shape)
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


def _as_columns(vectors, n, N):
    """Per-sample vectors as the columns of an (N, n, k) stack."""
    return np.stack(vectors, axis=-1) if vectors else np.zeros((N, n, 0))


class _CRContext:
    """Working data over a Gauss-Weingarten context's points: the pushed
    generators, span projectors, and the normal-bundle splitting into the
    image of the anti-invariant distribution and its invariant complement.
    Generator and bracket values come from their batched evaluation."""

    def __init__(self, cr, ctx):
        self.cr = cr
        self.ctx = ctx
        self.index = ctx.index
        self.G = ctx.G.val
        self.J = ctx.J.val
        N, n = len(ctx.index), ctx.n
        self.d_dom = [ctx.domain_jet(g).val for g in cr.D.generators]
        self.dp_dom = [ctx.domain_jet(g).val for g in cr.Dperp.generators]
        self.d_amb = [np.matvec(self.J, x) for x in self.d_dom]
        self.dp_amb = [np.matvec(self.J, x) for x in self.dp_dom]
        self.P_D = _span_projector(_as_columns(self.d_amb, n, N), self.G, "D",
                                   ctx.points)
        self.P_Dp = _span_projector(_as_columns(self.dp_amb, n, N), self.G,
                                    "Dperp", ctx.points)
        self.xi = ctx.xi.val
        self.xi_dom = ctx.tangent_coeffs(self.xi)
        # D with the Reeb direction removed, for the frame projections
        xi_unit = self.xi / np.maximum(ctx.gnorm(self.xi), 1e-300)[:, None]
        reduced = []
        for v in self.d_amb:
            w = v - ctx.ginner(v, xi_unit)[:, None] * xi_unit
            for u in reduced:
                w = w - ctx.ginner(w, u)[:, None] * u
            norm = ctx.gnorm(w)
            if _uniform(norm > 1e-10):
                reduced.append(w / norm[:, None])
        self.P_1 = _span_projector(_as_columns(reduced, n, N), self.G,
                                   "reduced D", ctx.points)
        # normal splitting: the image of phi on Dperp, then its complement
        self.phiZ_jets = [ctx.f_jet(Z) for Z in cr.Dperp.generators]
        self.fframe = ctx._gs(self.phiZ_jets, [])
        self.nu_jets = ctx._gs(ctx.normal_jets, self.fframe)
        self.P_nu = _span_projector(
            _as_columns([f.val for f in self.nu_jets], n, N), self.G, "nu",
            ctx.points)

    def off(self, v, projector):
        return self.ctx.gnorm(v - np.matvec(projector, v))

    def bracket_amb(self, kind, i, j):
        """The pushed values of the bracket of generators i and j of D
        ("D") or of D-perp ("Dperp")."""
        return np.matvec(
            self.J, self.ctx.domain_jet(self.cr.bracket(kind, i, j)).val)


def check_contact_cr(cr, samples, tol=1e-8):
    """Structural records: generator independence and spanning, mutual
    orthogonality, invariance of D, anti-invariance of its complement, Reeb
    membership, invariance of the nu-subbundle, and the four projection
    identities of the tangential/normal decomposition."""
    rep = CheckReport(check="contact-cr",
                      census={"samples": samples.count,
                              "rank-D": cr.D.rank, "rank-Dperp": cr.Dperp.rank})
    names = ["generator-rank", "span-completeness", "d-dperp-orthogonal",
             "d-invariance", "dperp-anti-invariance", "xi-in-d",
             "nu-invariance", "nu-decomposition", "projection-decomposition",
             "fp1-zero", "tp2-zero", "f-is-fp2", "t-is-tp1"]
    tr = {nm: Tracker() for nm in names}
    m = cr.mg.emb.m

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = _adder(tr, _scale(c.G, ctx.phi.val), c.index)
        allgens = np.stack(c.d_dom + c.dp_dom, axis=-1)
        gram = _tr(allgens) @ ctx.gram @ allgens
        rank = np.linalg.matrix_rank(gram, tol=1e-10)
        add("generator-rank", (cr.D.rank + cr.Dperp.rank - rank).astype(float))
        add("span-completeness", (m - rank).astype(float))
        for i, x in enumerate(c.d_amb):
            for j, z in enumerate(c.dp_amb):
                add("d-dperp-orthogonal", abs(ctx.ginner(x, z)),
                    f"X=D{i+1} Z=P{j+1}")
        for i, x in enumerate(c.d_amb):
            add("d-invariance", c.off(ctx.phi_val(x), c.P_D), f"X=D{i+1}")
        for j, z in enumerate(c.dp_amb):
            add("dperp-anti-invariance",
                ctx.gnorm(ctx.tangential(ctx.phi_val(z))), f"Z=P{j+1}")
        add("xi-in-d", c.off(c.xi, c.P_D))
        for k, lam in enumerate(c.nu_jets):
            philam = ctx.phi_val(lam.val)
            add("nu-invariance", c.off(philam, c.P_nu), f"ν{k+1}")
        # the normal bundle splits as (phi Dperp) + nu, orthogonally
        missing = ctx.normal.shape[-1] - len(c.fframe) - len(c.nu_jets)
        add("nu-decomposition", np.full(len(c.index), float(missing)))
        for f in c.fframe:
            for nu in c.nu_jets:
                add("nu-decomposition", abs(ctx.ginner(f.val, nu.val)))
        for i in range(m):
            v = c.J[:, :, i]
            p1v = np.matvec(c.P_1, v)
            p2v = np.matvec(c.P_Dp, v)
            lab = f"X=u{i+1}"
            add("projection-decomposition",
                ctx.gnorm(v - p1v - p2v - ctx.eta_of(v)[:, None] * c.xi), lab)
            add("fp1-zero", ctx.gnorm(ctx.f_val(p1v)), lab)
            add("tp2-zero", ctx.gnorm(ctx.t_val(p2v)), lab)
            add("f-is-fp2", ctx.gnorm(ctx.f_val(v) - ctx.f_val(p2v)), lab)
            add("t-is-tp1", ctx.gnorm(ctx.t_val(v) - ctx.t_val(p1v)), lab)

    idents = {
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
    }
    for nm in names:
        rep.records.append(tr[nm].build(nm, idents[nm], tol))
    return rep


def check_integrability_D(cr, samples, tol=1e-8):
    """Involutivity of the invariant distribution: bracket closure, the
    fundamental-form symmetry criterion, and the bridge identity tying the
    two together."""
    rep = CheckReport(check="integrability-d",
                      census={"samples": samples.count, "pairs":
                              cr.D.rank * (cr.D.rank - 1) // 2})
    names = ["d-bracket-closure", "d-integrability-criterion",
             "d-integrability-bridge"]
    tr = {nm: Tracker() for nm in names}
    rD = cr.D.rank

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = _adder(tr, _scale(c.G, ctx.phi.val), c.index)
        t_jets = [ctx.t_jet(X) for X in cr.D.generators]
        for i in range(rD):
            for j in range(i + 1, rD):
                br_amb = c.bracket_amb("D", i, j)
                lab = f"X=D{i+1} Y=D{j+1}"
                add("d-bracket-closure", c.off(br_amb, c.P_D), lab)
                hxphiy = ctx.h(c.d_dom[i], t_jets[j])
                hyphix = ctx.h(c.d_dom[j], t_jets[i])
                for k, z in enumerate(c.dp_amb):
                    phz = ctx.f_val(z)
                    add("d-integrability-criterion",
                        abs(ctx.ginner(hxphiy - hyphix, phz)),
                        f"{lab} Z=P{k+1}")
                fbr = ctx.f_val(br_amb)
                add("d-integrability-bridge",
                    ctx.gnorm(fbr - (hxphiy - hyphix)), lab)

    idents = {
        "d-bracket-closure": "[X, Y] ∈ D for X, Y ∈ D",
        "d-integrability-criterion": "g(h(X,φY), φZ) = g(h(Y,φX), φZ)",
        "d-integrability-bridge": "F[X,Y] = h(X,φY) - h(Y,φX)",
    }
    for nm in names:
        rep.records.append(tr[nm].build(nm, idents[nm], tol))
    return rep


def check_integrability_Dperp(cr, samples, tol=1e-8):
    """Involutivity of the anti-invariant distribution: bracket closure,
    the shape-operator criterion, and its bridge through the tangential
    part of the bracket (sign-convention twin reported informationally)."""
    rep = CheckReport(check="integrability-dperp",
                      census={"samples": samples.count, "pairs":
                              cr.Dperp.rank * (cr.Dperp.rank - 1) // 2})
    names = ["dperp-bracket-closure", "dperp-integrability-criterion",
             "dperp-integrability-bridge",
             "dperp-integrability-bridge-alt-sign"]
    tr = {nm: Tracker() for nm in names}
    rP = cr.Dperp.rank

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = _adder(tr, _scale(c.G, ctx.phi.val), c.index)
        for i in range(rP):
            for j in range(i + 1, rP):
                br_amb = c.bracket_amb("Dperp", i, j)
                lab = f"X=P{i+1} Y=P{j+1}"
                add("dperp-bracket-closure", c.off(br_amb, c.P_Dp), lab)
                ax = ctx.shape_op(c.dp_dom[i], c.phiZ_jets[j])
                ay = ctx.shape_op(c.dp_dom[j], c.phiZ_jets[i])
                x_amb, y_amb = c.dp_amb[i], c.dp_amb[j]
                rhs = (ctx.ginner(y_amb, c.xi)[:, None] * x_amb
                       - ctx.ginner(x_amb, c.xi)[:, None] * y_amb)
                add("dperp-integrability-criterion",
                    ctx.gnorm(ax - ay - rhs), lab)
                tbr = ctx.t_val(br_amb)
                add("dperp-integrability-bridge",
                    ctx.gnorm(ax - ay + tbr - rhs), lab)
                add("dperp-integrability-bridge-alt-sign",
                    ctx.gnorm(ax - ay - tbr - rhs), lab)

    idents = {
        "dperp-bracket-closure": "[X, Y] ∈ D⊥ for X, Y ∈ D⊥",
        "dperp-integrability-criterion":
            "A_{φY}X - A_{φX}Y = g(Y,ξ)X - g(X,ξ)Y",
        "dperp-integrability-bridge":
            "A_{φY}X - A_{φX}Y = -T[X,Y] + g(Y,ξ)X - g(X,ξ)Y",
        "dperp-integrability-bridge-alt-sign":
            "A_{φY}X - A_{φX}Y = T[X,Y] + g(Y,ξ)X - g(X,ξ)Y",
    }
    for nm in names:
        rep.records.append(tr[nm].build(nm, idents[nm], tol))
    return rep


def check_dual_shape_identities(cr, samples, tol=1e-8):
    """Shape-operator symmetry on the anti-invariant distribution and the
    two transport equivalences between normal-bundle derivatives of the
    F/B/C parts; each equivalence is reported as its two sides."""
    rep = CheckReport(check="dual-shape-identities",
                      census={"samples": samples.count})
    names = ["a-f-symmetric", "a-f-symmetric-dual", "b-shape-symmetric",
             "c-perp-parallel", "f-perp-parallel", "b-perp-parallel"]
    tr = {nm: Tracker() for nm in names}
    m = cr.mg.emb.m
    rP = cr.Dperp.rank
    frame_fields = [VectorField.coordinate(m, j) for j in range(m)]

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = _adder(tr, _scale(c.G, ctx.phi.val), c.index)
        # A_{FY} Z symmetric in the two anti-invariant slots
        for i in range(rP):
            for j in range(rP):
                if i == j:
                    continue
                lab = f"Y=P{i+1} Z=P{j+1}"
                a1 = ctx.shape_op(c.dp_dom[j], c.phiZ_jets[i])
                a2 = ctx.shape_op(c.dp_dom[i], c.phiZ_jets[j])
                add("a-f-symmetric", ctx.gnorm(a1 - a2), lab)
                a1 = ctx.shape_op(c.dp_dom[j], c.phiZ_jets[i], star=True)
                a2 = ctx.shape_op(c.dp_dom[i], c.phiZ_jets[j], star=True)
                add("a-f-symmetric-dual", ctx.gnorm(a1 - a2), lab)
        # A*_U BV = A*_V BU over the normal frame
        bvals = [ctx.b_jet(V) for V in ctx.normal_jets]
        for iu, U in enumerate(ctx.normal_jets):
            for iv, V in enumerate(ctx.normal_jets):
                if iu >= iv:
                    continue
                bu = ctx.tangent_coeffs(bvals[iu].val)
                bv = ctx.tangent_coeffs(bvals[iv].val)
                a1 = ctx.shape_op(bv, U, star=True)
                a2 = ctx.shape_op(bu, V, star=True)
                add("b-shape-symmetric", ctx.gnorm(a1 - a2),
                    f"U=N{iu+1} V=N{iv+1}")
        for i in range(m):
            xdom = np.eye(m)[i]
            for kidx, V in enumerate(ctx.normal_jets):
                lab = f"X=u{i+1} V=N{kidx+1}"
                perp_star = ctx.perp(xdom, V, star=True)
                lhs = (ctx.perp(xdom, ctx.c_jet(V))
                       - ctx.normal_part(ctx.phi_val(perp_star)))
                add("c-perp-parallel", ctx.gnorm(lhs), lab)
                lhs = (ctx.nabla_tan(xdom, ctx.b_jet(V))
                       - ctx.tangential(ctx.phi_val(perp_star)))
                add("b-perp-parallel", ctx.gnorm(lhs), lab)
            for j, Y in enumerate(frame_fields):
                nab_star = ctx.nabla_tan(xdom, ctx.push_jet(Y), star=True)
                lhs = (ctx.perp(xdom, ctx.f_jet(Y)) - ctx.f_val(nab_star))
                add("f-perp-parallel", ctx.gnorm(lhs), f"X=u{i+1} Y=u{j+1}")

    idents = {
        "a-f-symmetric": "A_{FY}Z = A_{FZ}Y on D⊥",
        "a-f-symmetric-dual": "A*_{FY}Z = A*_{FZ}Y on D⊥",
        "b-shape-symmetric": "A*_U BV = A*_V BU",
        "c-perp-parallel": "∇⊥_X CV = C∇*⊥_X V",
        "f-perp-parallel": "∇⊥_X FY = F∇*_X Y",
        "b-perp-parallel": "∇_X BV = B∇*⊥_X V",
    }
    for nm in names:
        rep.records.append(tr[nm].build(nm, idents[nm], tol))
    return rep


def classify_geodesic(cr, samples, tol=1e-8):
    """Geodesicity/umbilicity/foliate classifiers for both fundamental
    forms, with the shape-operator companions of their characterisations."""
    rep = CheckReport(check="geodesic-classifiers",
                      census={"samples": samples.count})
    flag_names = []
    for suffix in ("", "-dual"):
        flag_names += [f"d-geodesic{suffix}", f"dperp-geodesic{suffix}",
                       f"mixed-geodesic{suffix}", f"d-umbilic{suffix}",
                       f"umbilic-implies-geodesic{suffix}",
                       f"foliate-remark{suffix}",
                       f"d-geodesic-shape{suffix}",
                       f"dperp-geodesic-shape{suffix}",
                       f"mixed-geodesic-shape{suffix}"]
    flag_names.append("foliate")
    factor_names = ["d-umbilic-factor", "d-umbilic-factor-dual"]
    tr = {nm: Tracker() for nm in flag_names + factor_names}
    rD, rP = cr.D.rank, cr.Dperp.rank

    for c in cr.contexts(samples):
        ctx = c.ctx
        scale = _scale(c.G, ctx.phi.val)
        add = _adder(tr, scale, c.index)
        d_push = [ctx.push_jet(X) for X in cr.D.generators]
        dp_push = [ctx.push_jet(Z) for Z in cr.Dperp.generators]
        for star in (False, True):
            sfx = "-dual" if star else ""
            h_dd = {}
            for i in range(rD):
                for j in range(rD):
                    h_dd[(i, j)] = ctx.h(c.d_dom[i], d_push[j], star)
                    add(f"d-geodesic{sfx}", ctx.gnorm(h_dd[(i, j)]),
                        f"X=D{i+1} Y=D{j+1}")
            for i in range(rP):
                for j in range(rP):
                    add(f"dperp-geodesic{sfx}",
                        ctx.gnorm(ctx.h(c.dp_dom[i], dp_push[j], star)),
                        f"X=P{i+1} Y=P{j+1}")
            for i in range(rD):
                for j in range(rP):
                    add(f"mixed-geodesic{sfx}",
                        ctx.gnorm(ctx.h(c.d_dom[i], dp_push[j], star)),
                        f"X=D{i+1} Y=P{j+1}")
            # umbilicity: least-squares normal factor over the D-pairs
            gij = np.stack([np.stack([ctx.ginner(c.d_amb[i], c.d_amb[j])
                                      for j in range(rD)], axis=-1)
                            for i in range(rD)], axis=-2)
            hstack = np.stack([np.stack([h_dd[(i, j)] for j in range(rD)],
                                        axis=1) for i in range(rD)], axis=1)
            denom = (gij ** 2).reshape(len(gij), -1).sum(axis=1)
            L = (np.einsum("...ij,...ijk->...k", gij, hstack)
                 / np.maximum(denom, 1e-300)[:, None])
            fit = hstack - np.einsum("...ij,...k->...ijk", gij, L)
            fit_resid = np.max([ctx.gnorm(fit[:, i, j]) for i in range(rD)
                                for j in range(rD)], axis=0)
            add(f"d-umbilic{sfx}", fit_resid)
            add(f"d-umbilic-factor{sfx}", ctx.gnorm(L))
            # the umbilic test decides per sample, at that sample's scale
            umbilic = fit_resid <= tol * (1.0 + scale)
            add(f"umbilic-implies-geodesic{sfx}",
                np.where(umbilic, ctx.gnorm(L), 0.0))
            # foliate consequence: h(phiX, phiY) = -h(X, Y) on D
            t_jets = [ctx.t_jet(X) for X in cr.D.generators]
            for i in range(rD):
                ti_dom = ctx.tangent_coeffs(t_jets[i].val)
                for j in range(rD):
                    hpp = ctx.h(ti_dom, t_jets[j], star)
                    add(f"foliate-remark{sfx}", ctx.gnorm(hpp + h_dd[(i, j)]),
                        f"X=D{i+1} Y=D{j+1}")
            # shape-operator companions
            for kidx, V in enumerate(ctx.normal_jets):
                for i in range(rD):
                    av = ctx.shape_op(c.d_dom[i], V, star)
                    lab = f"V=N{kidx+1} X=D{i+1}"
                    add(f"d-geodesic-shape{sfx}", c.off(av, c.P_Dp), lab)
                    add(f"mixed-geodesic-shape{sfx}", c.off(av, c.P_D), lab)
                for i in range(rP):
                    av = ctx.shape_op(c.dp_dom[i], V, star)
                    lab = f"V=N{kidx+1} X=P{i+1}"
                    add(f"dperp-geodesic-shape{sfx}", c.off(av, c.P_D), lab)
                    add(f"mixed-geodesic-shape{sfx}", c.off(av, c.P_Dp), lab)
        for i in range(rD):
            for j in range(i + 1, rD):
                br_amb = c.bracket_amb("D", i, j)
                add("foliate", c.off(br_amb, c.P_D), f"X=D{i+1} Y=D{j+1}")

    idents = {
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
        "foliate": "[X, Y] ∈ D for X, Y ∈ D (D involutive)",
    }
    for nm in flag_names:
        base = nm[:-5] if nm.endswith("-dual") else nm
        ident = idents[base]
        if nm.endswith("-dual"):
            ident = ident.replace("h", "h*").replace("A_V", "A*_V")
        rep.records.append(tr[nm].build(nm, ident, tol))
    rep.records.append(tr["d-umbilic-factor"].build(
        "d-umbilic-factor", "|L| recovered by least squares", tol,
        informational=True))
    rep.records.append(tr["d-umbilic-factor-dual"].build(
        "d-umbilic-factor-dual", "|L| recovered by least squares (dual)", tol,
        informational=True))
    return rep


def check_mixed_geodesic_consequences(cr, samples, tol=1e-8, geo=None):
    """Shape/normal-connection transfers that hold on mixed-geodesic
    submanifolds; when the precondition fails the records are emitted as
    informational with the precondition status attached.  `geo` is the
    classify_geodesic report on the same samples and tolerance; it is
    computed here when not given."""
    if geo is None:
        geo = classify_geodesic(cr, samples, tol)
    mixed_ok = {False: geo.record("mixed-geodesic").passed,
                True: geo.record("mixed-geodesic-dual").passed}
    foliate_ok = geo.record("foliate").passed
    rep = CheckReport(check="mixed-geodesic-consequences",
                      census={"samples": samples.count,
                              "mixed-geodesic": bool(mixed_ok[False]),
                              "mixed-geodesic-dual": bool(mixed_ok[True]),
                              "foliate": bool(foliate_ok)})
    names = ["shape-transfer", "shape-transfer-dual", "perp-transfer",
             "perp-transfer-dual", "foliate-anticommute",
             "foliate-anticommute-dual"]
    tr = {nm: Tracker() for nm in names}
    rD = cr.D.rank

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = _adder(tr, _scale(c.G, ctx.phi.val), c.index)
        t_jets = [ctx.t_jet(X) for X in cr.D.generators]
        for i in range(rD):
            xdom = c.d_dom[i]
            phix_dom = ctx.tangent_coeffs(t_jets[i].val)
            for kidx, V in enumerate(ctx.normal_jets):
                lab = f"X=D{i+1} V=N{kidx+1}"
                cv = ctx.c_jet(V)
                a_cv = ctx.shape_op(xdom, cv)
                a_star = ctx.shape_op(xdom, V, star=True)
                add("shape-transfer",
                    ctx.gnorm(a_cv - ctx.tangential(ctx.phi_val(a_star))), lab)
                a_cv_d = ctx.shape_op(xdom, cv, star=True)
                a_plain = ctx.shape_op(xdom, V)
                add("shape-transfer-dual",
                    ctx.gnorm(a_cv_d - ctx.tangential(ctx.phi_val(a_plain))),
                    lab)
                lhs = (ctx.perp(xdom, cv)
                       - ctx.phi_val(ctx.perp(xdom, V, star=True)))
                add("perp-transfer", ctx.gnorm(lhs), lab)
                lhs = (ctx.perp(xdom, cv, star=True)
                       - ctx.phi_val(ctx.perp(xdom, V)))
                add("perp-transfer-dual", ctx.gnorm(lhs), lab)
                a_phix_star = ctx.shape_op(phix_dom, V, star=True)
                lhs = a_phix_star + ctx.tangential(ctx.phi_val(a_star))
                add("foliate-anticommute", ctx.gnorm(lhs), lab)
                a_phix = ctx.shape_op(phix_dom, V)
                lhs = a_phix + ctx.tangential(ctx.phi_val(a_plain))
                add("foliate-anticommute-dual", ctx.gnorm(lhs), lab)

    conds = {
        "shape-transfer": mixed_ok[False] and mixed_ok[True],
        "shape-transfer-dual": mixed_ok[False] and mixed_ok[True],
        "perp-transfer": mixed_ok[False] and mixed_ok[True],
        "perp-transfer-dual": mixed_ok[False] and mixed_ok[True],
        "foliate-anticommute": foliate_ok and mixed_ok[False] and mixed_ok[True],
        "foliate-anticommute-dual": foliate_ok and mixed_ok[False] and mixed_ok[True],
    }
    idents = {
        "shape-transfer": "A_{(φV)⊥}X = φA*_V X on D",
        "shape-transfer-dual": "A*_{(φV)⊥}X = φA_V X on D",
        "perp-transfer": "∇⊥_X (φV)⊥ = φ∇*⊥_X V on D",
        "perp-transfer-dual": "∇*⊥_X (φV)⊥ = φ∇⊥_X V on D",
        "foliate-anticommute": "A*_V φX + φA*_V X = 0 on D",
        "foliate-anticommute-dual": "A_V φX + φA_V X = 0 on D",
    }
    for nm in names:
        ok = conds[nm]
        rep.records.append(tr[nm].build(
            nm, idents[nm], tol, informational=not ok,
            note="" if ok else "precondition failed; reported for information"))
    return rep


def check_cr_product(cr, samples, tol=1e-8):
    """The CR-product criterion and its supporting identities: the shape
    pairing with the anti-invariant image, the leaf-geodesy surrogates for
    both distributions and both connections, the normal-derivative
    antisymmetry inside the image of the anti-invariant distribution, and
    the shape antisymmetry against the invariant normal complement.
    Sign-convention twins are reported informationally."""
    rep = CheckReport(check="cr-product", census={"samples": samples.count})
    names = ["product-criterion", "product-criterion-alt-sign",
             "leaf-pairing", "leaf-pairing-alt-sign",
             "shape-transport-pairing", "shape-transport-pairing-alt-sign",
             "phidperp-perp-antisymmetry", "nu-shape-antisymmetry",
             "dperp-leaf", "dperp-leaf-dual", "d-leaf", "d-leaf-dual"]
    tr = {nm: Tracker() for nm in names}
    m = cr.mg.emb.m
    rD, rP = cr.D.rank, cr.Dperp.rank

    for c in cr.contexts(samples):
        ctx = c.ctx
        add = _adder(tr, _scale(c.G, ctx.phi.val), c.index)
        # X ranges over the D generators plus the Reeb field explicitly
        xs = [(f"D{i+1}", c.d_dom[i], c.d_amb[i]) for i in range(rD)]
        xs.append(("ξ", c.xi_dom, c.xi))
        d_pushes = [ctx.push_jet(Z) for Z in cr.Dperp.generators]
        for j in range(rP):
            u_amb = c.dp_amb[j]
            for xlab, xdom, xamb in xs:
                lab = f"X={xlab} U=P{j+1}"
                a = ctx.shape_op(xdom, c.phiZ_jets[j])
                eta_u = ctx.eta_of(xamb)[:, None] * u_amb
                add("product-criterion", ctx.gnorm(a + eta_u), lab)
                add("product-criterion-alt-sign", ctx.gnorm(a - eta_u), lab)
        # leaf pairing: g(h*(X,U), phi Z) = -eta(X) g(phi Z, phi U)
        for xlab, xdom, xamb in xs:
            eta_x = ctx.eta_of(xamb)
            for ju in range(rP):
                hstar = ctx.h(xdom, d_pushes[ju], star=True)
                for jz in range(rP):
                    phz = c.phiZ_jets[jz].val
                    phu = c.phiZ_jets[ju].val
                    lab = f"X={xlab} U=P{ju+1} Z=P{jz+1}"
                    lhs = ctx.ginner(hstar, phz)
                    rhs = eta_x * ctx.ginner(phz, phu)
                    add("leaf-pairing", abs(lhs + rhs), lab)
                    add("leaf-pairing-alt-sign", abs(lhs - rhs), lab)
        # shape/transport pairing over the full tangent frame
        for iu in range(m):
            udom = np.eye(m)[iu]
            uamb = c.J[:, :, iu]
            for jz in range(rP):
                a = ctx.shape_op(udom, c.phiZ_jets[jz])
                nst = ctx.nabla_tan(udom, d_pushes[jz], star=True)
                z_amb = c.dp_amb[jz]
                for xlab, xdom, xamb in xs:
                    lab = f"U=u{iu+1} Z=P{jz+1} X={xlab}"
                    lhs = ctx.ginner(a, xamb)
                    mid = ctx.ginner(nst, ctx.phi_val(xamb))
                    gzu = ctx.ginner(z_amb, uamb)
                    eta_x = ctx.eta_of(xamb)
                    add("shape-transport-pairing",
                        abs(lhs - mid + eta_x * gzu), lab)
                    add("shape-transport-pairing-alt-sign",
                        abs(lhs - mid - eta_x * gzu), lab)
        # normal-derivative antisymmetry stays inside phi(Dperp)
        for i in range(rP):
            for j in range(i + 1, rP):
                lhs = (ctx.perp(c.dp_dom[i], c.phiZ_jets[j])
                       - ctx.perp(c.dp_dom[j], c.phiZ_jets[i]))
                add("phidperp-perp-antisymmetry",
                    ctx.gnorm(np.matvec(c.P_nu, lhs)), f"Z=P{i+1} W=P{j+1}")
        # shape antisymmetry against the invariant normal complement
        t_jets = [ctx.t_jet(X) for X in cr.D.generators]
        for i in range(rD):
            phix_dom = ctx.tangent_coeffs(t_jets[i].val)
            for k, lam in enumerate(c.nu_jets):
                philam = jmatvec(ctx.phi, lam)
                a1 = ctx.shape_op(phix_dom, lam, star=True)
                a2 = ctx.shape_op(c.d_dom[i], philam)
                add("nu-shape-antisymmetry", ctx.gnorm(a1 + a2),
                    f"Y=D{i+1} λ=ν{k+1}")
        # leaf surrogates
        for star, d_nm, p_nm in ((False, "d-leaf", "dperp-leaf"),
                                 (True, "d-leaf-dual", "dperp-leaf-dual")):
            for i in range(rP):
                for j in range(rP):
                    nzw = ctx.nabla_tan(c.dp_dom[i], d_pushes[j], star)
                    add(p_nm, c.off(nzw, c.P_Dp), f"Z=P{i+1} W=P{j+1}")
            d_push = [ctx.push_jet(X) for X in cr.D.generators]
            for i in range(rD):
                for j in range(rD):
                    nxy = ctx.nabla_tan(c.d_dom[i], d_push[j], star)
                    add(d_nm, c.off(nxy, c.P_D), f"X=D{i+1} Y=D{j+1}")

    idents = {
        "product-criterion": "A_{φU}X = -η(X)U",
        "product-criterion-alt-sign": "A_{φU}X = η(X)U",
        "leaf-pairing":
            "g(h*(X,U), φZ) = -η(X) g(φZ, φU)",
        "leaf-pairing-alt-sign":
            "g(h*(X,U), φZ) = η(X) g(φZ, φU)",
        "shape-transport-pairing":
            "g(A_{φZ}U, X) = g(∇*_U Z, φX) - η(X) g(Z,U)",
        "shape-transport-pairing-alt-sign":
            "g(A_{φZ}U, X) = g(∇*_U Z, φX) + η(X) g(Z,U)",
        "phidperp-perp-antisymmetry":
            "∇⊥_Z φW - ∇⊥_W φZ ∈ φD⊥",
        "nu-shape-antisymmetry": "A*_λ φY = -A_{φλ}Y",
        "dperp-leaf": "∇_Z W ∈ D⊥ for Z, W ∈ D⊥",
        "dperp-leaf-dual": "∇*_Z W ∈ D⊥ for Z, W ∈ D⊥",
        "d-leaf": "∇_X Y ∈ D for X, Y ∈ D",
        "d-leaf-dual": "∇*_X Y ∈ D for X, Y ∈ D",
    }
    for nm in names:
        rep.records.append(tr[nm].build(nm, idents[nm], tol))
    return rep
