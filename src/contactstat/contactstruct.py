"""Almost-contact metric structures and the Sasakian / Sasakian-statistical
check ladder.

Convention notes, fixed once for the whole engine:

* The exterior derivative of the contact form is taken without the 1/2
  factor, dη(X,Y) = Xη(Y) - Yη(X) - η([X,Y]).  The report
  also carries the 1/2-convention residual as an informational record so a
  normalisation mismatch in the inputs is visible rather than silent.

* The Sasakian axioms used are ∇̂_X ξ = -φX and
  (∇̂_X φ)Y = g(X,Y)ξ - η(Y)X.  The
  statistical-transport identities are counted in the sign convention that
  is forced by these axioms together with K(X,φY) + φK(X,Y) = 0
  (expand ∇ = ∇̂ + K and the K-terms cancel).  The opposite
  sign variant, which matches the axioms with φ replaced by -φ,
  is emitted as an informational record.
"""

from dataclasses import dataclass

import numpy as np

from .exprlang import Const, Expr
from .geometry import (ConnField, GeometryError, Grid, OneFormField,
                       StatTriple, VectorField, _coerce_expr, levi_civita)
from .report import CheckReport, Tracker

__all__ = [
    "AlmostContact", "SasakiStatStructure",
    "check_almost_contact", "check_contact_metric", "check_sasakian",
    "check_sasakian_statistical", "lambda_family",
]


class AlmostContact:
    """The (phi, xi, eta) triple as expression fields; phi rows index the
    output component."""

    def __init__(self, phi, xi, eta):
        self.xi = xi if isinstance(xi, VectorField) else VectorField(xi)
        dim = self.xi.dim
        self.dim = dim
        self.eta = eta if isinstance(eta, OneFormField) else OneFormField(eta, dim)
        if self.eta.dim != dim:
            raise GeometryError("eta dimension mismatch")
        self.phi = tuple(
            tuple(_coerce_expr(phi[a][b], dim) for b in range(dim))
            for a in range(dim))
        self._phi = Grid(self.phi)
        self._dphi = None

    def phi_at(self, points):
        return self._phi.at(points)

    def dphi_at(self, points):
        """d[n, i, a, b] = partial_i phi^a_b."""
        if self._dphi is None:
            self._dphi = Grid(tuple(
                tuple(tuple(self.phi[a][b].diff(i) for b in range(self.dim))
                      for a in range(self.dim))
                for i in range(self.dim)))
        return self._dphi.at(points)


@dataclass
class SasakiStatStructure:
    """A statistical triple compatible with an almost contact structure."""

    st: StatTriple
    acs: AlmostContact
    lam: float | None = None

    @property
    def g(self):
        return self.st.g

    @property
    def dim(self):
        return self.st.dim


def _gnorm(gv, vecs):
    """g-norms of a batch of vectors; vecs[..., k] indexed like gv rows."""
    q = np.einsum("n...k,nkl,n...l->n...", vecs, gv, vecs)
    return np.sqrt(np.maximum(q, 0.0))


def check_almost_contact(acs, g, samples, tol=1e-8):
    """Residuals of the almost-contact-metric axioms over the coordinate
    frame: phi^2 = -id + eta (x) xi, g(., xi) = eta, the phi-compatibility
    of the metric, unit xi, phi xi = 0, eta o phi = 0 and eta(xi) = 1; plus
    the corank-one property of phi."""
    pts = samples.points
    n, d = pts.shape
    rep = CheckReport(check="almost-contact",
                      census={"samples": samples.count, "dim": d})

    gv = g.at(pts)
    phi = acs.phi_at(pts)
    xiv = acs.xi.at(pts)
    etav = acs.eta.at(pts)
    eye = np.eye(d)
    scale = float(max(np.abs(gv).max(), np.abs(phi).max(), 1.0))

    t = Tracker()
    phisq = np.einsum("nac,ncb->nab", phi, phi)
    t.add(phisq + eye[None] - np.einsum("na,nb->nab", xiv, etav), scale=scale)
    rep.records.append(t.build(
        "phi-square", "φ²X = -X + η(X)ξ", tol))

    t = Tracker()
    t.add(np.einsum("nab,nb->na", gv, xiv) - etav, scale=scale)
    rep.records.append(t.build("metric-xi-pairing", "g(X, ξ) = η(X)", tol))

    t = Tracker()
    compat = (np.einsum("nca,ncd,ndb->nab", phi, gv, phi) - gv
              + np.einsum("na,nb->nab", etav, etav))
    t.add(compat, scale=scale)
    rep.records.append(t.build(
        "phi-compatibility",
        "g(φX, φY) = g(X,Y) - η(X)η(Y)", tol))

    t = Tracker()
    t.add(np.einsum("nab,na,nb->n", gv, xiv, xiv) - 1.0, scale=scale)
    rep.records.append(t.build("unit-xi", "g(ξ, ξ) = 1", tol))

    t = Tracker()
    t.add(np.einsum("nab,nb->na", phi, xiv), scale=scale)
    rep.records.append(t.build("phi-xi", "φξ = 0", tol))

    t = Tracker()
    t.add(np.einsum("na,nab->nb", etav, phi), scale=scale)
    rep.records.append(t.build("eta-phi", "η ∘ φ = 0", tol))

    t = Tracker()
    t.add(np.einsum("na,na->n", etav, xiv) - 1.0, scale=scale)
    rep.records.append(t.build("eta-xi", "η(ξ) = 1", tol))

    # corank exactly one: smallest singular value ~ 0, second-smallest
    # bounded away from zero
    sv = np.linalg.svd(phi, compute_uv=False)
    smin = sv[:, -1]
    ratio = sv[:, -2] / np.maximum(sv[:, 0], 1e-300)
    t = Tracker()
    t.add(np.maximum(smin, np.maximum(0.0, 1e-8 - ratio)), scale=scale)
    rep.records.append(t.build(
        "phi-rank", "rank φ = dim - 1 (kernel = span ξ)", tol,
        note="residual mixes the smallest singular value with the corank gap"))
    return rep


def check_contact_metric(acs, g, samples, tol=1e-8):
    """dη pairing residuals over coordinate-frame pairs, in the engine's
    no-half convention, plus the 1/2-convention value as an informational
    record."""
    pts = samples.points
    rep = CheckReport(check="contact-metric",
                      census={"samples": samples.count, "dim": g.dim})

    gv = g.at(pts)
    phi = acs.phi_at(pts)
    deta_j = acs.eta.jac_at(pts)                       # [n, a, i] = d_i eta_a
    deta = np.transpose(deta_j, (0, 2, 1)) - deta_j    # [n, i, j] = d_i eta_j - d_j eta_i
    pair = np.einsum("nik,nkj->nij", gv, phi)          # g(e_i, phi e_j)
    scale = float(max(np.abs(deta).max(), np.abs(pair).max(), 1.0))

    t = Tracker()
    t.add(deta - pair, scale=scale)
    rep.records.append(t.build(
        "deta-pairing", "dη(X,Y) = g(X, φY)", tol))

    t = Tracker()
    t.add(deta + np.einsum("nki,nkj->nij", phi, gv), scale=scale)
    rep.records.append(t.build(
        "deta-pairing-skew", "dη(X,Y) = -g(φX, Y)", tol))

    t = Tracker()
    t.add(0.5 * deta - pair, scale=scale)
    rep.records.append(t.build(
        "deta-pairing-half",
        "½(Xη(Y) - Yη(X) - η([X,Y])) = g(X, φY)",
        tol, informational=True,
        note="alternative exterior-derivative normalisation"))
    return rep


def check_sasakian(acs, g, samples, tol=1e-8):
    """Residuals of the two Sasakian axioms with the Levi-Civita connection
    of g, over coordinate-frame arguments."""
    pts = samples.points
    n, d = pts.shape
    rep = CheckReport(check="sasakian",
                      census={"samples": samples.count, "dim": d})

    gv = g.at(pts)
    gam = levi_civita(g, pts)
    phi = acs.phi_at(pts)
    dphi = acs.dphi_at(pts)
    xiv = acs.xi.at(pts)
    dxi = acs.xi.jac_at(pts)      # [n, k, i]
    etav = acs.eta.at(pts)
    eye = np.eye(d)
    scale = float(max(np.abs(gv).max(), np.abs(phi).max(), np.abs(gam).max(), 1.0))

    # nabla-hat_i xi + phi e_i
    nxi = np.transpose(dxi, (0, 2, 1)) + np.einsum("nkil,nl->nik", gam, xiv)
    defect = nxi + np.transpose(phi, (0, 2, 1))        # [n, i, k]
    t = Tracker()
    t.add(_gnorm(gv, defect), scale=scale)
    rep.records.append(t.build(
        "xi-derivative", "∇̂_X ξ = -φX", tol))

    # (nabla-hat_i phi) e_j - g_ij xi + eta_j e_i
    nphi = (np.transpose(dphi, (0, 2, 1, 3))
            + np.einsum("nkil,nlj->nkij", gam, phi)
            - np.einsum("nkl,nlij->nkij", phi, gam))   # [n, k, i, j]
    defect = (nphi - np.einsum("nij,nk->nkij", gv, xiv)
              + np.einsum("nj,ki->nkij", etav, eye))
    t = Tracker()
    t.add(_gnorm(gv, np.transpose(defect, (0, 2, 3, 1))), scale=scale)
    rep.records.append(t.build(
        "phi-derivative",
        "(∇̂_X φ)Y = g(X,Y)ξ - η(Y)X", tol))
    return rep


def _transport_records(rep, prefix, gam_a, gam_b, gv, phi, dphi, xiv, dxi,
                       etav, tol, scale):
    """phi- and xi-transport residuals for one (nabla_a, nabla_b) ordering."""
    n, d = gv.shape[:2]
    eye = np.eye(d)
    # nabla^a_i (phi e_j) - phi nabla^b_i e_j
    lhs = (np.transpose(dphi, (0, 2, 1, 3))
           + np.einsum("nkil,nlj->nkij", gam_a, phi)
           - np.einsum("nkl,nlij->nkij", phi, gam_b))
    rhs = (np.einsum("nij,nk->nkij", gv, xiv)
           - np.einsum("nj,ki->nkij", etav, eye))
    t = Tracker()
    t.add(_gnorm(gv, np.transpose(lhs - rhs, (0, 2, 3, 1))), scale=scale)
    rep.records.append(t.build(
        f"{prefix}phi-transport",
        "∇_X(φY) - φ∇*_X Y = g(X,Y)ξ - η(Y)X"
        if not prefix else
        "∇*_X(φY) - φ∇_X Y = g(X,Y)ξ - η(Y)X",
        tol))
    t = Tracker()
    t.add(_gnorm(gv, np.transpose(lhs + rhs, (0, 2, 3, 1))), scale=scale)
    rep.records.append(t.build(
        f"{prefix}phi-transport-alt-sign",
        "∇_X(φY) - φ∇*_X Y = η(Y)X - g(X,Y)ξ"
        if not prefix else
        "∇*_X(φY) - φ∇_X Y = η(Y)X - g(X,Y)ξ",
        tol))

    # nabla^a_i xi, tangentially corrected by its xi-component
    nxi = np.transpose(dxi, (0, 2, 1)) + np.einsum("nkil,nl->nik", gam_a, xiv)
    comp = np.einsum("nik,nkl,nl->ni", nxi, gv, xiv)
    corrected = nxi - np.einsum("ni,nk->nik", comp, xiv)
    phicols = np.transpose(phi, (0, 2, 1))
    t = Tracker()
    t.add(_gnorm(gv, corrected + phicols), scale=scale)
    rep.records.append(t.build(
        f"{prefix}xi-transport",
        "∇_X ξ - g(∇_X ξ, ξ)ξ = -φX"
        if not prefix else
        "∇*_X ξ - g(∇*_X ξ, ξ)ξ = -φX",
        tol))
    t = Tracker()
    t.add(_gnorm(gv, corrected - phicols), scale=scale)
    rep.records.append(t.build(
        f"{prefix}xi-transport-alt-sign",
        "∇_X ξ - g(∇_X ξ, ξ)ξ = φX"
        if not prefix else
        "∇*_X ξ - g(∇*_X ξ, ξ)ξ = φX",
        tol))


def check_sasakian_statistical(sss, samples, tol=1e-8):
    """What a Sasakian statistical structure adds to the statistical,
    almost-contact and Sasakian axioms (each its own check): the K-phi
    anticommutation and the first-order transport identities for both
    connections (with the opposite-sign variants reported
    informationally)."""
    st, acs = sss.st, sss.acs
    g = st.g
    pts = samples.points
    rep = CheckReport(check="sasakian-statistical",
                      census={"samples": samples.count, "dim": g.dim})

    gv = g.at(pts)
    phi = acs.phi_at(pts)
    dphi = acs.dphi_at(pts)
    xiv = acs.xi.at(pts)
    dxi = acs.xi.jac_at(pts)
    etav = acs.eta.at(pts)
    lc, gam, gam_star = st.gammas(pts)
    kt = gam - lc
    del lc  # only K is needed from here; free a full batch
    scale = float(max(np.abs(gv).max(), np.abs(phi).max(),
                      np.abs(gam).max(), np.abs(gam_star).max(), 1.0))

    t = Tracker()
    anticomm = (np.einsum("nkil,nlj->nkij", kt, phi)
                + np.einsum("nkl,nlij->nkij", phi, kt))
    t.add(_gnorm(gv, np.transpose(anticomm, (0, 2, 3, 1))), scale=scale)
    rep.records.append(t.build(
        "k-phi-anticommute", "K(X, φY) + φK(X, Y) = 0", tol))

    _transport_records(rep, "", gam, gam_star, gv, phi, dphi, xiv, dxi,
                       etav, tol, scale)
    _transport_records(rep, "dual-", gam_star, gam, gv, phi, dphi, xiv, dxi,
                       etav, tol, scale)
    return rep


def lambda_family(g, acs, lam):
    """The one-parameter family of statistical structures compatible with a
    Sasakian structure: K = lam * (eta (x) eta (x) xi), so
    nabla = levi_civita(g) + K, whose dual is the same shift with -lam."""
    d = g.dim
    K = ConnField(d, [[[Const(float(lam)) * acs.eta.comps[i] * acs.eta.comps[j]
                        * acs.xi.comps[k] for j in range(d)] for i in range(d)]
                      for k in range(d)])
    return SasakiStatStructure(st=StatTriple(g, K), acs=acs, lam=float(lam))
