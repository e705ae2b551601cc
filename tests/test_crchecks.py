import numpy as np
import pytest

from conftest import (cr5_structure, cr5_submanifold, e7_structure,
                      e7_submanifold, euclid_r7, map_geometry, r7nu_structure,
                      r7nu_submanifold)
from contactstat.crchecks import (
    CRStructure, Distribution, check_contact_cr, check_cr_product,
    check_dual_shape_identities, check_integrability_D,
    check_integrability_Dperp, check_mixed_geodesic_consequences,
    classify_geodesic,
)
from contactstat.geometry import GeometryError, VectorField
from contactstat.sampling import sample_box, samples_from_points
from contactstat.submanifold import Embedding


def e7_cr(frame_orthonormal=False, lam=1.0):
    emb, d_gens, dp_gens = e7_submanifold()
    sss = e7_structure(lam=lam, frame_orthonormal=frame_orthonormal)
    return CRStructure(map_geometry(emb, sss), d_gens, dp_gens)


def cr5():
    emb, d_gens, dp_gens = cr5_submanifold()
    return CRStructure(map_geometry(emb, cr5_structure()), d_gens, dp_gens)


def r7nu():
    emb, d_gens, dp_gens = r7nu_submanifold()
    return CRStructure(map_geometry(emb, r7nu_structure()), d_gens, dp_gens)


SAMPLES5 = sample_box(5, count=24)
SAMPLES4 = sample_box(4, count=24)


class TestContactCR:
    def test_e7_structure_records(self):
        rep = check_contact_cr(e7_cr(), SAMPLES5)
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-12, rec.name

    def test_cr5_structure_records(self):
        rep = check_contact_cr(cr5(), SAMPLES4)
        assert rep.passed

    def test_r7nu_has_invariant_normal_complement(self):
        rep = check_contact_cr(r7nu(), SAMPLES4)
        assert rep.passed
        assert rep.record("nu-invariance").residual < 1e-10

    def test_xi_moved_to_dperp_fails_membership(self):
        emb, d_gens, dp_gens = e7_submanifold()
        sss = e7_structure()
        broken = CRStructure(map_geometry(emb, sss),
                             [d_gens[0], d_gens[1]], dp_gens + [d_gens[2]])
        rep = check_contact_cr(broken, SAMPLES5)
        assert rep.record("xi-in-d").status == "FAIL"
        assert rep.record("xi-in-d").residual == pytest.approx(1.0)

    def test_e3_moved_into_d_fails_invariance(self):
        emb, d_gens, dp_gens = e7_submanifold()
        sss = e7_structure()
        broken = CRStructure(map_geometry(emb, sss), d_gens + [dp_gens[0]],
                             [dp_gens[1]])
        rep = check_contact_cr(broken, SAMPLES5)
        rec = rep.record("d-invariance")
        assert rec.status == "FAIL"
        # phi e3 is wholly normal; its euclidean length is sqrt(2)
        assert rec.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestIntegrability:
    def test_e7_d_integrable(self):
        rep = check_integrability_D(e7_cr(), SAMPLES5)
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-9, rec.name

    def test_e7_dperp_integrable(self):
        rep = check_integrability_Dperp(e7_cr(), SAMPLES5)
        assert rep.passed
        for rec in rep.records:
            if not rec.informational:
                assert rec.residual < 1e-9, rec.name

    def test_synthetic_noninvolutive_distribution(self):
        # inside the flat 3-chart in 4-space, D = span(d1, d2 + u1 d3) has
        # [d1, d2 + u1 d3] = d3, which leaves D
        emb = Embedding(["x1", "x2", "x3", "0"], 3)
        g, acs = euclid_r7()
        import conftest
        from contactstat.contactstruct import AlmostContact, lambda_family
        from contactstat.geometry import MetricField
        g4 = MetricField.euclidean(4)
        phi = [["0"] * 4 for _ in range(4)]
        phi[1][0] = "1"
        phi[0][1] = "-1"
        acs4 = AlmostContact(phi=phi, xi=VectorField(["0", "0", "0", "1"], 4),
                             eta=["0", "0", "0", "1"])
        sss = lambda_family(g4, acs4, 0.0)
        D = [VectorField.coordinate(3, 0),
             VectorField(["0", "1", "x1"], 3)]
        Dp = [VectorField(["0", "-x1", "1"], 3)]
        cr = CRStructure(map_geometry(emb, sss), D, Dp)
        rep = check_integrability_D(cr, sample_box(3, count=16))
        rec = rep.record("d-bracket-closure")
        assert rec.status == "FAIL"
        assert rec.residual > 0.5

    def test_cr5_rank_one_dperp_vacuous(self):
        rep = check_integrability_Dperp(cr5(), SAMPLES4)
        assert rep.passed
        assert rep.census["pairs"] == 0

    def test_criterion_and_closure_co_occur_per_sample(self):
        # equivalence asserted as co-occurrence on fixtures, sample by sample
        for cr, pts in ((e7_cr(), sample_box(5, count=12).points),
                        (cr5(), sample_box(4, count=12).points)):
            for p in pts:
                one = samples_from_points(p[None])
                d_rep = check_integrability_D(cr, one)
                assert (d_rep.record("d-bracket-closure").passed
                        == d_rep.record("d-integrability-criterion").passed)
                p_rep = check_integrability_Dperp(cr, one)
                assert (p_rep.record("dperp-bracket-closure").passed
                        == p_rep.record("dperp-integrability-criterion").passed)


class TestDualShapeIdentities:
    def test_cr5_pairs_all_pass(self):
        rep = check_dual_shape_identities(cr5(), SAMPLES4)
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-6, rec.name

    def test_e7_pairs_pass(self):
        rep = check_dual_shape_identities(e7_cr(), SAMPLES5)
        assert rep.passed

    def test_equivalence_sides_co_occur_per_sample(self):
        for p in sample_box(4, count=8).points:
            one = samples_from_points(p[None])
            rep = check_dual_shape_identities(cr5(), one)
            assert (rep.record("b-shape-symmetric").passed
                    == rep.record("c-perp-parallel").passed)
            assert (rep.record("f-perp-parallel").passed
                    == rep.record("b-perp-parallel").passed)


class TestClassifyGeodesic:
    def test_e7_all_flags_pass(self):
        rep = classify_geodesic(e7_cr(), SAMPLES5)
        assert rep.passed
        for rec in rep.records:
            if not rec.informational:
                assert rec.residual < 1e-10, rec.name

    def test_e7_umbilic_factor_zero(self):
        rep = classify_geodesic(e7_cr(), SAMPLES5)
        assert rep.record("d-umbilic-factor").residual < 1e-12

    def test_circle_control_not_geodesic(self):
        # degenerate no-contact control: flags only, h has unit length
        from contactstat.contactstruct import AlmostContact, lambda_family
        from contactstat.geometry import MetricField
        g2 = MetricField.euclidean(2)
        phi = [["0", "0"], ["0", "0"]]
        acs2 = AlmostContact(phi=phi, xi=VectorField(["0", "1"], 2),
                             eta=["0", "1"])
        sss = lambda_family(g2, acs2, 0.0)
        emb = Embedding(["cos(x1)", "sin(x1)"], 1)
        cr = CRStructure(map_geometry(emb, sss),
                         [VectorField.coordinate(1, 0)], [])
        rep = classify_geodesic(cr, sample_box(1, count=8, box=(-3, 3)))
        rec = rep.record("d-geodesic")
        assert rec.status == "FAIL"
        assert rec.residual == pytest.approx(1.0, abs=1e-8)

    def test_cr5_thm_pairs_co_occur_per_sample(self):
        cr = cr5()
        for p in sample_box(4, count=12).points:
            rep = classify_geodesic(cr, samples_from_points(p[None]))
            for flag, shape in (("d-geodesic", "d-geodesic-shape"),
                                ("d-geodesic-dual", "d-geodesic-shape-dual"),
                                ("mixed-geodesic", "mixed-geodesic-shape"),
                                ("mixed-geodesic-dual", "mixed-geodesic-shape-dual")):
                assert rep.record(flag).passed == rep.record(shape).passed, \
                    (flag, rep.record(flag).residual, rep.record(shape).residual)

    def test_cr5_mixed_fails_with_reeb_witness(self):
        # h(xi, Z) = -FZ never vanishes on a proper fixture
        rep = classify_geodesic(cr5(), SAMPLES4)
        rec = rep.record("mixed-geodesic")
        assert rec.status == "FAIL"
        assert rec.residual == pytest.approx(0.5, abs=1e-9)

    def test_cr5_d_geodesic_and_foliate(self):
        rep = classify_geodesic(cr5(), SAMPLES4)
        assert rep.record("d-geodesic").status == "PASS"
        assert rep.record("foliate").status == "PASS"
        assert rep.record("foliate-remark").status == "PASS"


class TestMixedGeodesicConsequences:
    def test_e7_transfers_pass(self):
        rep = check_mixed_geodesic_consequences(e7_cr(), SAMPLES5)
        assert rep.census["mixed-geodesic"] is True
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-10, rec.name

    def test_cr5_reported_informationally(self):
        rep = check_mixed_geodesic_consequences(cr5(), SAMPLES4)
        assert rep.census["mixed-geodesic"] is False
        for rec in rep.records:
            assert rec.informational
        assert rep.passed  # informational records never flip the verdict

    def test_unmet_foliate_marks_only_the_anticommutation_records(self):
        cr = e7_cr()
        geo = classify_geodesic(cr, SAMPLES5)
        geo.record("foliate").residual = 1.0
        rep = check_mixed_geodesic_consequences(cr, SAMPLES5, geo=geo)
        assert rep.census["foliate"] is False
        assert [(r.name, r.status, r.note) for r in rep.records] == [
            ("shape-transfer", "PASS", ""),
            ("shape-transfer-dual", "PASS", ""),
            ("perp-transfer", "PASS", ""),
            ("perp-transfer-dual", "PASS", ""),
            ("foliate-anticommute", "INFO",
             "precondition failed; reported for information"),
            ("foliate-anticommute-dual", "INFO",
             "precondition failed; reported for information"),
        ]


class TestCRProduct:
    def test_e7_criterion_fails_at_reeb_witness(self):
        rep = check_cr_product(e7_cr(), SAMPLES5)
        rec = rep.record("product-criterion")
        assert rec.status == "FAIL"
        # A = 0 leaves |eta(X) e3| at a Reeb-direction witness (the third
        # D generator pushes to the Reeb field); euclidean length sqrt(2)
        assert rec.residual == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert rec.witness["labels"] in ("X=D3 U=P1", "X=ξ U=P1")

    def test_e7_frame_orthonormal_witness_length(self):
        rep = check_cr_product(e7_cr(frame_orthonormal=True), SAMPLES5)
        rec = rep.record("product-criterion")
        assert rec.residual == pytest.approx(1.0, abs=1e-9)

    def test_cr5_is_a_product(self):
        rep = check_cr_product(cr5(), SAMPLES4)
        assert rep.passed
        for rec in rep.records:
            if not rec.informational:
                assert rec.residual < 1e-6, rec.name

    def test_cr5_alt_sign_fails_loudly(self):
        rep = check_cr_product(cr5(), SAMPLES4)
        assert rep.record("product-criterion-alt-sign").residual > 0.5
        assert rep.record("leaf-pairing-alt-sign").residual > 0.1

    def test_cr5_criterion_and_leaves_co_occur_per_sample(self):
        cr = cr5()
        for p in sample_box(4, count=12).points:
            rep = check_cr_product(cr, samples_from_points(p[None]))
            names = ["product-criterion", "leaf-pairing",
                     "shape-transport-pairing", "dperp-leaf", "d-leaf",
                     "dperp-leaf-dual", "d-leaf-dual"]
            assert all(rep.record(nm).passed for nm in names)

    def test_r7nu_exercises_nu_records(self):
        rep = check_cr_product(r7nu(), SAMPLES4)
        assert rep.record("nu-shape-antisymmetry").residual < 1e-9
        assert rep.record("product-criterion").status == "PASS"

    def test_vanishing_eta_slot_on_pure_d_witness(self):
        # with A = 0 and eta(X) = 0 the criterion residual vanishes at that
        # witness: the e7 fixture at X = D1 gives exactly zero
        rep = check_cr_product(e7_cr(), SAMPLES5)
        rec = rep.record("product-criterion")
        assert rec.witness["labels"] != "X=D1 U=P1"


class TestStructuralProperties:
    def test_trivial_invariant_case_d_equals_tm(self):
        # D = TM with an empty complement: the bracket record reduces to
        # involutivity of the whole tangent bundle and passes vacuously
        from conftest import sasaki_r3
        from contactstat.contactstruct import lambda_family
        g, acs = sasaki_r3()
        sss = lambda_family(g, acs, 1.0)
        emb = Embedding(["x1", "x2", "x3"], 3)
        D = [VectorField.coordinate(3, 0), VectorField.coordinate(3, 1),
             VectorField(["0", "0", "2"], 3)]
        cr = CRStructure(map_geometry(emb, sss), D, [])
        rep = check_integrability_D(cr, sample_box(3, count=8))
        assert rep.passed
        assert rep.record("d-bracket-closure").residual < 1e-12
        crrep = check_contact_cr(cr, sample_box(3, count=8))
        assert crrep.record("d-invariance").status == "PASS"

    def test_generator_permutation_leaves_max_residuals(self):
        emb, d_gens, dp_gens = e7_submanifold()
        sss = e7_structure()
        mg = map_geometry(emb, sss)
        a = CRStructure(mg, d_gens, dp_gens)
        b = CRStructure(mg, [d_gens[2], d_gens[0], d_gens[1]],
                        [dp_gens[1], dp_gens[0]])
        pts = sample_box(5, count=12)
        for check in (check_contact_cr, check_cr_product, classify_geodesic):
            ra, rb = check(a, pts), check(b, pts)
            for rec_a, rec_b in zip(ra.records, rb.records):
                assert rec_a.name == rec_b.name
                assert rec_a.residual == pytest.approx(rec_b.residual,
                                                       abs=1e-12), rec_a.name

    def test_dependent_generators_name_the_first_failing_point(self):
        # the third D generator vanishes where x1 = 0
        emb, d_gens, dp_gens = cr5_submanifold()
        d_gens[2] = VectorField(["0", "0", "x1", "0"], 4)
        cr = CRStructure(map_geometry(emb, cr5_structure()), d_gens, dp_gens)
        pts = samples_from_points([[0.5, 0.1, 0.2, 0.3], [0.0, 0.4, 0.5, 0.6],
                                   [0.0, 0.7, 0.8, 0.9]])
        with pytest.raises(GeometryError) as err:
            cr.contexts(pts)
        assert str(err.value) == ("D generators are linearly dependent at "
                                  "domain point [0.0, 0.4, 0.5, 0.6]")

    @pytest.mark.parametrize("kind", ["D", "Dperp"])
    def test_a_generator_of_the_wrong_dimension_is_a_geometry_error(self,
                                                                     kind):
        # a 5-component generator on the 4-dim fix-cr5 submanifold
        emb, d_gens, dp_gens = cr5_submanifold()
        wide = VectorField(["0", "0", "0", "1", "0"])
        if kind == "D":
            d_gens = [wide]
        else:
            dp_gens = [wide]
        with pytest.raises(GeometryError) as err:
            CRStructure(map_geometry(emb, cr5_structure()), d_gens, dp_gens)
        assert str(err.value) == (f"{kind} generators need 4 components, "
                                  "one per submanifold coordinate")

    def test_phi_rank_on_d_drops_by_one(self):
        # phi kills exactly the Reeb direction inside D
        for cr, m in ((e7_cr(), 5), (cr5(), 4)):
            for p in sample_box(m, count=6).points:
                c = cr.context(p)
                cols = np.stack([c.ctx.phi_val(v)[0]
                                 for v in np.moveaxis(c.d_amb, 1, 0)], axis=1)
                assert np.linalg.matrix_rank(cols, tol=1e-8) == cr.D.rank - 1
                # and the anti-invariant image meets the tangent space only at 0
                for z in np.moveaxis(c.dp_amb, 1, 0):
                    tang = c.ctx.tangential(c.ctx.phi_val(z))
                    assert c.ctx.gnorm(tang)[0] < 1e-10
