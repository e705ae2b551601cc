import numpy as np
import pytest

from conftest import euclid_r7, koszul_fd, sasaki_r3
from contactstat.contactstruct import (
    AlmostContact, SasakiStatStructure, check_almost_contact,
    check_contact_metric, check_sasakian, check_sasakian_statistical,
    lambda_family,
)
from contactstat.geometry import (
    ConnField, GeometryError, MetricField, StatTriple, VectorField,
    check_statistical, levi_civita, metric_samples,
)
from contactstat.exprlang import Const
from contactstat.sampling import sample_box


class TestAlmostContact:
    def test_r7_all_residuals_tiny(self):
        g, acs = euclid_r7()
        rep = check_almost_contact(acs, g, metric_samples(g, count=100))
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-12, rec.name

    def test_r3_passes(self):
        g, acs = sasaki_r3()
        rep = check_almost_contact(acs, g, metric_samples(g))
        assert rep.passed

    def test_degenerate_structure_fails_on_phi_square(self):
        g = MetricField.euclidean(3)
        acs = AlmostContact(phi=[["0"] * 3] * 3,
                            xi=VectorField(["0"] * 3, 3), eta=["0"] * 3)
        rep = check_almost_contact(acs, g, metric_samples(g))
        rec = rep.record("phi-square")
        assert rec.status == "FAIL"
        assert rec.residual == pytest.approx(1.0)

    def test_rescaled_metric_breaks_compatibility(self):
        g, acs = euclid_r7()
        g2 = MetricField(7, {(i, i): Const(2.0) for i in range(7)})
        rep = check_almost_contact(acs, g2, metric_samples(g2))
        assert rep.record("phi-compatibility").status == "FAIL"
        assert rep.record("unit-xi").residual == pytest.approx(1.0)

    def test_eta_needs_one_component_per_coordinate(self):
        with pytest.raises(GeometryError, match="component count"):
            AlmostContact(phi=[["0", "1", "0"], ["-1", "0", "0"], ["0"] * 3],
                          xi=VectorField(["0", "0", "1"], 3), eta=["x1"])

    def test_phi_rank_is_corank_one(self):
        g, acs = sasaki_r3()
        rep = check_almost_contact(acs, g, metric_samples(g))
        assert rep.record("phi-rank").status == "PASS"


class TestContactMetric:
    def test_r7_fails_with_unit_residual(self):
        # constant eta makes the exterior derivative vanish while the
        # pairing g(X, phi Y) does not; the engine reports, never assumes
        g, acs = euclid_r7()
        rep = check_contact_metric(acs, g, metric_samples(g))
        rec = rep.record("deta-pairing")
        assert rec.status == "FAIL"
        assert rec.residual == pytest.approx(1.0)

    def test_vacuous_structure_passes(self):
        g = MetricField.euclidean(3)
        acs = AlmostContact(phi=[["0"] * 3] * 3,
                            xi=VectorField(["0", "0", "1"], 3),
                            eta=["0", "0", "1"])
        rep = check_contact_metric(acs, g, metric_samples(g))
        assert rep.record("deta-pairing").residual == 0.0

    def test_r3_half_convention_matches(self):
        # the control fixture is normalised for the 1/2 convention: the
        # informational record vanishes and the no-half record is exactly
        # the d-eta magnitude mismatch of 1/4
        g, acs = sasaki_r3()
        rep = check_contact_metric(acs, g, metric_samples(g))
        half = rep.record("deta-pairing-half")
        assert half.informational and half.residual < 1e-12
        rec = rep.record("deta-pairing")
        assert rec.status == "FAIL"
        assert rec.residual == pytest.approx(0.25, abs=1e-12)


class TestSasakian:
    def test_r3_control_is_sasakian(self):
        g, acs = sasaki_r3()
        rep = check_sasakian(acs, g, metric_samples(g))
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-7, rec.name

    def test_r3_against_independent_koszul_oracle(self):
        # same axioms, Christoffels from finite differences of the metric
        g, acs = sasaki_r3()
        pts = sample_box(3, count=32).points
        gam = koszul_fd(g, pts)
        gv = g.at(pts)
        phi = acs.phi.at(pts)
        xiv = acs.xi.at(pts)
        nxi = np.einsum("nkil,nl->nik", gam, xiv)  # xi is constant
        defect = nxi + np.transpose(phi, (0, 2, 1))
        assert np.abs(defect).max() < 1e-6

    def test_r7_fails_xi_derivative_with_unit_residual(self):
        g, acs = euclid_r7()
        rep = check_sasakian(acs, g, metric_samples(g))
        rec = rep.record("xi-derivative")
        assert rec.status == "FAIL"
        assert rec.residual == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_phi_isolates_the_two_records(self):
        g = MetricField.euclidean(3)
        acs = AlmostContact(phi=[["0"] * 3] * 3,
                            xi=VectorField(["0", "0", "1"], 3),
                            eta=["0", "0", "1"])
        rep = check_sasakian(acs, g, metric_samples(g))
        assert rep.record("xi-derivative").residual == 0.0
        rec = rep.record("phi-derivative")
        assert rec.status == "FAIL"
        assert rec.residual > 0.9


class TestSasakianStatistical:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.5])
    def test_r3_lambda_family_passes(self, lam):
        g, acs = sasaki_r3()
        sss = lambda_family(g, acs, lam)
        samples = metric_samples(g)
        # the ladder below the Sasakian statistical records is checked by
        # the three checks of its own
        for rep in (check_statistical(sss.st, samples),
                    check_almost_contact(acs, g, samples),
                    check_sasakian(acs, g, samples),
                    check_sasakian_statistical(sss, samples)):
            assert rep.passed, [r.name for r in rep.records
                                if r.passed is False]
            for rec in rep.records:
                if not rec.informational:
                    assert rec.residual < 1e-7, rec.name

    def test_r3_alt_sign_records_fail_loudly(self):
        # the opposite-sign transport variants cannot also hold: their
        # residual is twice the right-hand side's magnitude
        g, acs = sasaki_r3()
        rep = check_sasakian_statistical(lambda_family(g, acs, 1.0),
                                         metric_samples(g))
        for name in ("phi-transport-alt-sign", "xi-transport-alt-sign",
                     "dual-phi-transport-alt-sign", "dual-xi-transport-alt-sign"):
            assert rep.record(name).residual > 0.5, name

    def test_r7_anticommutation_tiny(self):
        g, acs = euclid_r7()
        sss = lambda_family(g, acs, 1.0)
        rep = check_sasakian_statistical(sss, metric_samples(g))
        assert rep.record("k-phi-anticommute").residual < 1e-12

    def test_r7_xi_transport_fails(self):
        # the flat ambient is not Sasakian, and the transport identities
        # inherit that failure
        g, acs = euclid_r7()
        sss = lambda_family(g, acs, 1.0)
        rep = check_sasakian_statistical(sss, metric_samples(g))
        assert rep.record("xi-transport").status == "FAIL"
        assert rep.record("xi-transport").residual == pytest.approx(1.0, abs=1e-9)

    def test_broken_k_fails_anticommutation(self):
        # K(X,Y) = g(X,Y) xi violates the anticommutation identity
        g, acs = sasaki_r3()
        d = 3
        coeffs = [[[g.entries[i][j] * acs.xi.comps[k] for j in range(d)]
                   for i in range(d)] for k in range(d)]
        sss = SasakiStatStructure(st=StatTriple(g, ConnField(d, coeffs)),
                                  acs=acs)
        rep = check_sasakian_statistical(sss, metric_samples(g))
        rec = rep.record("k-phi-anticommute")
        assert rec.status == "FAIL"
        assert rec.residual > 0.1

    def test_duality_symmetry_of_the_definition(self):
        # if the structure passes, so does the one with the dual connection
        # in the primary role: the dual-* records are exactly that swap
        g, acs = sasaki_r3()
        rep = check_sasakian_statistical(lambda_family(g, acs, 1.5),
                                         metric_samples(g))
        assert rep.record("dual-phi-transport").status == "PASS"
        assert rep.record("dual-xi-transport").status == "PASS"


class TestLambdaFamily:
    def test_lambda_zero_is_levi_civita(self):
        g, acs = sasaki_r3()
        sss = lambda_family(g, acs, 0.0)
        pts = sample_box(3, count=16).points
        assert np.abs(sss.st.gammas(pts)[1]
                      - levi_civita(g, pts)).max() == 0.0

    def test_k_on_xi_pair_is_xi(self):
        g, acs = sasaki_r3()
        for lam in (-1.0, 0.5, 2.0):
            sss = lambda_family(g, acs, lam)
            pts = sample_box(3, count=8).points
            xv = acs.xi.at(pts)
            kxx = np.einsum("nkij,ni,nj->nk", sss.st.K.gamma_at(pts), xv, xv)
            assert np.abs(kxx - lam * xv).max() < 1e-12

    def test_k_vanishes_off_xi(self):
        g, acs = sasaki_r3()
        sss = lambda_family(g, acs, 1.0)
        pts = sample_box(3, count=8).points
        # d/dy is g-orthogonal to xi on this chart
        yv = np.zeros((8, 3))
        yv[:, 1] = 1.0
        kyy = np.einsum("nkij,ni,nj->nk", sss.st.K.gamma_at(pts), yv, yv)
        assert np.abs(kyy).max() == 0.0

    def test_statistical_across_lambda_range(self):
        g, acs = sasaki_r3()
        for lam in np.linspace(-2.0, 2.0, 9):
            rep = check_statistical(lambda_family(g, acs, lam).st,
                                    metric_samples(g))
            assert rep.passed, lam
