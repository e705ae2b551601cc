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

from .exprlang import Const
from .geometry import (ConnField, GeometryError, Grid, StatTriple,
                       VectorField, _coerce_expr)
from .report import Residuals

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
        self.eta = (eta if isinstance(eta, VectorField)
                    else VectorField(eta, dim))
        if self.eta.dim != dim:
            raise GeometryError("eta dimension mismatch")
        self.phi = Grid(tuple(
            tuple(_coerce_expr(phi[a][b], dim) for b in range(dim))
            for a in range(dim)), dim)

    @property
    def is_constant(self):
        return (self.phi.is_constant and self.xi.is_constant
                and self.eta.is_constant)


@dataclass
class SasakiStatStructure:
    """A statistical triple compatible with an almost contact structure."""

    st: StatTriple
    acs: AlmostContact


def _gnorm(gv, vecs):
    """g-norms of a batch of vectors; vecs[..., k] indexed like gv rows."""
    q = np.einsum("n...k,nkl,n...l->n...", vecs, gv, vecs)
    return np.sqrt(np.maximum(q, 0.0))


def _nabla_phi_xi(gam_a, gam_b, phi, dphi, xiv, dxi):
    """nabla^a_i (phi e_j) - phi nabla^b_i e_j, [n, k, i, j], and
    nabla^a_i xi, [n, i, k], for connection coefficients gam_a and gam_b."""
    nphi = np.moveaxis(dphi, -1, 2) + np.einsum("nkil,nlj->nkij", gam_a, phi)
    nphi -= np.einsum("nkl,nlij->nkij", phi, gam_b)
    nxi = np.transpose(dxi, (0, 2, 1)) + np.einsum("nkil,nl->nik", gam_a, xiv)
    return nphi, nxi


def check_almost_contact(acs, g, samples, tol=1e-8):
    """Residuals of the almost-contact-metric axioms over the coordinate
    frame: phi^2 = -id + eta (x) xi, g(., xi) = eta, the phi-compatibility
    of the metric, unit xi, phi xi = 0, eta o phi = 0 and eta(xi) = 1; plus
    the corank-one property of phi."""
    pts = samples.points
    d = pts.shape[1]
    res = Residuals("almost-contact", {"samples": samples.count, "dim": d}, {
        "phi-square": "φ²X = -X + η(X)ξ",
        "metric-xi-pairing": "g(X, ξ) = η(X)",
        "phi-compatibility": "g(φX, φY) = g(X,Y) - η(X)η(Y)",
        "unit-xi": "g(ξ, ξ) = 1",
        "phi-xi": "φξ = 0",
        "eta-phi": "η ∘ φ = 0",
        "eta-xi": "η(ξ) = 1",
        "phi-rank": "rank φ = dim - 1 (kernel = span ξ)",
    })

    gv = g.at(pts)
    phi = acs.phi.at(pts)
    xiv = acs.xi.at(pts)
    etav = acs.eta.at(pts)
    eye = np.eye(d)
    add = res.adder(float(max(np.abs(gv).max(), np.abs(phi).max(), 1.0)))

    phisq = np.einsum("nac,ncb->nab", phi, phi)
    add("phi-square", phisq + eye[None] - np.einsum("na,nb->nab", xiv, etav))
    add("metric-xi-pairing", np.einsum("nab,nb->na", gv, xiv) - etav)
    add("phi-compatibility", np.einsum("nca,ncd,ndb->nab", phi, gv, phi) - gv
        + np.einsum("na,nb->nab", etav, etav))
    add("unit-xi", np.einsum("nab,na,nb->n", gv, xiv, xiv) - 1.0)
    add("phi-xi", np.einsum("nab,nb->na", phi, xiv))
    add("eta-phi", np.einsum("na,nab->nb", etav, phi))
    add("eta-xi", np.einsum("na,na->n", etav, xiv) - 1.0)

    # corank exactly one: smallest singular value ~ 0, second-smallest
    # bounded away from zero
    sv = np.linalg.svd(phi, compute_uv=False)
    smin = sv[:, -1]
    ratio = sv[:, -2] / np.maximum(sv[:, 0], 1e-300)
    add("phi-rank", np.maximum(smin, np.maximum(0.0, 1e-8 - ratio)))
    return res.report(tol, notes={"phi-rank": "residual mixes the smallest "
                                  "singular value with the corank gap"})


def check_contact_metric(acs, g, samples, tol=1e-8):
    """dη pairing residuals over coordinate-frame pairs, in the engine's
    no-half convention, plus the 1/2-convention value as an informational
    record."""
    pts = samples.points
    res = Residuals(
        "contact-metric", {"samples": samples.count, "dim": g.dim}, {
            "deta-pairing": "dη(X,Y) = g(X, φY)",
            "deta-pairing-skew": "dη(X,Y) = -g(φX, Y)",
            "deta-pairing-half": "½(Xη(Y) - Yη(X) - η([X,Y])) = g(X, φY)",
        })

    gv = g.at(pts)
    phi = acs.phi.at(pts)
    deta_j = acs.eta.partials.at(pts)                  # [n, a, i] = d_i eta_a
    deta = np.transpose(deta_j, (0, 2, 1)) - deta_j    # [n, i, j] = d_i eta_j - d_j eta_i
    pair = np.einsum("nik,nkj->nij", gv, phi)          # g(e_i, phi e_j)
    add = res.adder(float(max(np.abs(deta).max(), np.abs(pair).max(), 1.0)))

    add("deta-pairing", deta - pair)
    add("deta-pairing-skew", deta + np.einsum("nki,nkj->nij", phi, gv))
    add("deta-pairing-half", 0.5 * deta - pair)
    return res.report(tol, informational=("deta-pairing-half",), notes={
        "deta-pairing-half": "alternative exterior-derivative normalisation"})


def check_sasakian(acs, g, samples, tol=1e-8):
    """Residuals of the two Sasakian axioms with the Levi-Civita connection
    of g (the set's shared batch, `MetricField.christoffel`), over
    coordinate-frame arguments."""
    pts = samples.points
    d = pts.shape[1]
    res = Residuals("sasakian", {"samples": samples.count, "dim": d}, {
        "xi-derivative": "∇̂_X ξ = -φX",
        "phi-derivative": "(∇̂_X φ)Y = g(X,Y)ξ - η(Y)X",
    })

    gv = g.at(pts)
    gam = g.christoffel(samples)
    phi = acs.phi.at(pts)
    dphi = acs.phi.partials.at(pts)  # [n, a, b, i] = d_i phi^a_b
    xiv = acs.xi.at(pts)
    dxi = acs.xi.partials.at(pts)    # [n, k, i]
    etav = acs.eta.at(pts)
    eye = np.eye(d)
    add = res.adder(float(max(np.abs(gv).max(), np.abs(phi).max(),
                              np.abs(gam).max(), 1.0)))

    nphi, nxi = _nabla_phi_xi(gam, gam, phi, dphi, xiv, dxi)
    # nabla-hat_i xi + phi e_i
    defect = nxi + np.transpose(phi, (0, 2, 1))        # [n, i, k]
    add("xi-derivative", _gnorm(gv, defect))

    # (nabla-hat_i phi) e_j - g_ij xi + eta_j e_i
    defect = (nphi - np.einsum("nij,nk->nkij", gv, xiv)
              + np.einsum("nj,ki->nkij", etav, eye))
    add("phi-derivative", _gnorm(gv, np.transpose(defect, (0, 2, 3, 1))))
    return res.report(tol)


def _transport_records(add, prefix, gam_a, gam_b, gv, phi, dphi, xiv, dxi,
                       etav):
    """phi- and xi-transport residuals for one (nabla_a, nabla_b) ordering,
    into the families named with `prefix`."""
    eye = np.eye(gv.shape[1])
    lhs, nxi = _nabla_phi_xi(gam_a, gam_b, phi, dphi, xiv, dxi)
    # nabla^a_i xi, tangentially corrected by its xi-component; its arrays
    # are freed before the larger phi-transport ones are built
    comp = np.einsum("nik,nkl,nl->ni", nxi, gv, xiv)
    corrected = nxi - np.einsum("ni,nk->nik", comp, xiv)
    phicols = np.transpose(phi, (0, 2, 1))
    add(f"{prefix}xi-transport", _gnorm(gv, corrected + phicols))
    add(f"{prefix}xi-transport-alt-sign", _gnorm(gv, corrected - phicols))
    del nxi, comp, corrected

    rhs = np.einsum("nij,nk->nkij", gv, xiv)
    rhs -= np.einsum("nj,ki->nkij", etav, eye)
    add(f"{prefix}phi-transport",
        _gnorm(gv, np.transpose(lhs - rhs, (0, 2, 3, 1))))
    add(f"{prefix}phi-transport-alt-sign",
        _gnorm(gv, np.transpose(lhs + rhs, (0, 2, 3, 1))))


def check_sasakian_statistical(sss, samples, tol=1e-8):
    """What a Sasakian statistical structure adds to the statistical,
    almost-contact and Sasakian axioms (each its own check): the K-phi
    anticommutation and the first-order transport identities for both
    connections (with the opposite-sign variants reported
    informationally)."""
    st, acs = sss.st, sss.acs
    g = st.g
    pts = samples.points
    res = Residuals(
        "sasakian-statistical", {"samples": samples.count, "dim": g.dim}, {
            "k-phi-anticommute": "K(X, φY) + φK(X, Y) = 0",
            "phi-transport": "∇_X(φY) - φ∇*_X Y = g(X,Y)ξ - η(Y)X",
            "phi-transport-alt-sign": "∇_X(φY) - φ∇*_X Y = η(Y)X - g(X,Y)ξ",
            "xi-transport": "∇_X ξ - g(∇_X ξ, ξ)ξ = -φX",
            "xi-transport-alt-sign": "∇_X ξ - g(∇_X ξ, ξ)ξ = φX",
            "dual-phi-transport": "∇*_X(φY) - φ∇_X Y = g(X,Y)ξ - η(Y)X",
            "dual-phi-transport-alt-sign":
                "∇*_X(φY) - φ∇_X Y = η(Y)X - g(X,Y)ξ",
            "dual-xi-transport": "∇*_X ξ - g(∇*_X ξ, ξ)ξ = -φX",
            "dual-xi-transport-alt-sign": "∇*_X ξ - g(∇*_X ξ, ξ)ξ = φX",
        })

    gv = g.at(pts)
    phi = acs.phi.at(pts)
    dphi = acs.phi.partials.at(pts)
    xiv = acs.xi.at(pts)
    dxi = acs.xi.partials.at(pts)
    etav = acs.eta.at(pts)
    lc, gam, gam_star = st.connections(samples)
    kt = gam - lc
    add = res.adder(float(max(np.abs(gv).max(), np.abs(phi).max(),
                              np.abs(gam).max(), np.abs(gam_star).max(), 1.0)))

    anticomm = (np.einsum("nkil,nlj->nkij", kt, phi)
                + np.einsum("nkl,nlij->nkij", phi, kt))
    add("k-phi-anticommute", _gnorm(gv, np.transpose(anticomm, (0, 2, 3, 1))))
    del kt, anticomm  # the set's batch stays alive; free two of ours

    _transport_records(add, "", gam, gam_star, gv, phi, dphi, xiv, dxi, etav)
    _transport_records(add, "dual-", gam_star, gam, gv, phi, dphi, xiv, dxi,
                       etav)
    return res.report(tol)


def lambda_family(g, acs, lam):
    """The one-parameter family of statistical structures compatible with a
    Sasakian structure: K = lam * (eta (x) eta (x) xi), so
    nabla = levi_civita(g) + K, whose dual is the same shift with -lam."""
    d = g.dim
    K = ConnField(d, [[[Const(float(lam)) * acs.eta.comps[i] * acs.eta.comps[j]
                        * acs.xi.comps[k] for j in range(d)] for i in range(d)]
                      for k in range(d)])
    return SasakiStatStructure(st=StatTriple(g, K), acs=acs)
