import numpy as np
import pytest

from contactstat.contactstruct import (check_almost_contact, check_sasakian,
                                       check_sasakian_statistical)
from contactstat.crchecks import check_contact_cr
from contactstat.fixtures import fixture_doc, fixture_names
from contactstat.geometry import (VectorField, check_statistical,
                                  metric_samples)
from contactstat.sampling import sample_box
from contactstat.specfile import SpecError, from_doc
from contactstat.submanifold import Embedding


def test_registry_contents():
    names = fixture_names()
    assert "paper-r7-euclidean" in names
    assert "paper-r7-frame-orthonormal" in names
    assert "fix-s3" in names
    assert "fix-cr5" in names


def test_docs_are_deep_copies():
    a = fixture_doc("fix-s3")
    a["ambient"]["dim"] = 99
    assert fixture_doc("fix-s3")["ambient"]["dim"] == 3


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture_doc("nope")


@pytest.mark.parametrize("name", fixture_names())
def test_all_fixtures_load(name):
    spec = from_doc(fixture_doc(name), origin=name)
    assert spec.sss.st.g.dim == spec.sss.acs.xi.dim


def test_paper_r7_shape():
    spec = from_doc(fixture_doc("paper-r7-euclidean"))
    assert spec.sss.st.g.dim == 7
    assert spec.embedding.m == 5
    assert len(spec.d_gens) == 3 and len(spec.dperp_gens) == 2


def _sasaki_chart(npairs, pts):
    """g, phi, xi and eta at `pts` of the standard Sasakian chart on
    R^(2n+1), from its definition: coordinates (x1, y1, ..., xn, yn, z),
    eta = (dz - sum yi dxi)/2, xi = 2 d/dz,
    g = eta (x) eta + (1/4) sum (dxi^2 + dyi^2),
    phi d/dxi = -d/dyi and phi d/dyi = d/dxi + yi d/dz."""
    n, d = len(pts), 2 * npairs + 1
    x, y, z = list(range(0, d - 1, 2)), list(range(1, d - 1, 2)), d - 1
    eta = np.zeros((n, d))
    eta[:, x] = -pts[:, y] / 2
    eta[:, z] = 0.5
    xi = np.zeros((n, d))
    xi[:, z] = 2.0
    g = eta[:, :, None] * eta[:, None, :] + np.diag([0.25] * (d - 1) + [0.0])
    phi = np.zeros((n, d, d))  # phi[:, a, b] is component a of phi(e_b)
    phi[:, y, x] = -1.0
    phi[:, x, y] = 1.0
    phi[:, z, y] = pts[:, y]
    return g, phi, xi, eta


def _flat7_chart(frame_orthonormal, pts):
    """g, phi, xi and eta at `pts` of the flat 7-chart, from its definition:
    rotation pairs phi d/dx1 = d/dx2, phi d/dx2 = -d/dx1 (and so for
    (x3, x4) and (x5, x6)), xi = d/dx7, eta = dx7, and
    g = diag(1, 1, w, w, w, w, 1) with w = 1/2 for the frame-orthonormal
    variant, else 1."""
    n = len(pts)
    w = 0.5 if frame_orthonormal else 1.0
    phi = np.zeros((7, 7))
    for a, b in ((0, 1), (2, 3), (4, 5)):
        phi[b, a], phi[a, b] = 1.0, -1.0
    e7 = np.broadcast_to(np.eye(7)[6], (n, 7))
    return (np.broadcast_to(np.diag([1.0, 1.0, w, w, w, w, 1.0]), (n, 7, 7)),
            np.broadcast_to(phi, (n, 7, 7)), e7, e7)


def _assert_doc_matches_chart(name, chart):
    """The fixture document's g, phi, xi, eta and K equal the chart's, value
    for value, with K = lambda eta (x) eta (x) xi at lambda = 1, the value
    every fixture takes."""
    sss = from_doc(fixture_doc(name)).sss
    st, acs = sss.st, sss.acs
    pts = sample_box(st.g.dim, count=16).points
    g, phi, xi, eta = chart(pts)
    K = np.einsum("ni,nj,nk->nkij", eta, eta, xi)
    for got, want in ((st.g.at(pts), g), (acs.phi.at(pts), phi),
                      (acs.xi.at(pts), xi), (acs.eta.at(pts), eta),
                      (st.K.gamma_at(pts), K)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-15


class TestDocsMatchHandBuiltStructures:
    """The fixture documents, which every other test reads its charts from,
    must reproduce the structures computed here in numpy from the charts'
    definitions, value for value."""

    @pytest.mark.parametrize("name,npairs", [
        pytest.param(name, npairs, id=name)
        for name, npairs in (("fix-s3", 1), ("fix-cr5", 2),
                             ("sasaki-r7-cr", 3))])
    def test_sasaki_ambients(self, name, npairs):
        _assert_doc_matches_chart(name,
                                  lambda pts: _sasaki_chart(npairs, pts))

    @pytest.mark.parametrize("name,ortho", [
        ("paper-r7-euclidean", False),
        ("paper-r7-frame-orthonormal", True),
    ])
    def test_flat_ambients(self, name, ortho):
        _assert_doc_matches_chart(name, lambda pts: _flat7_chart(ortho, pts))

    def test_embeddings_match(self):
        # fix-cr5 is the y2 = 0 slice (u1, u2, u3, u4) ->
        # (x1, y1, x2, y2, z) = (u1, u2, u4, 0, u3), with D spanned by
        # d/du1, d/du2 and the Reeb field 2 d/du3, and D-perp by d/du4
        spec = from_doc(fixture_doc("fix-cr5"))
        emb = Embedding(["x1", "x2", "x4", "0", "x3"], 4)
        d_gens = [VectorField.coordinate(4, 0), VectorField.coordinate(4, 1),
                  VectorField(["0", "0", "2", "0"], 4)]
        dp_gens = [VectorField.coordinate(4, 3)]
        pts = sample_box(4, count=8).points
        assert np.abs(spec.embedding.at(pts) - emb.at(pts)).max() < 1e-15
        assert (len(spec.d_gens), len(spec.dperp_gens)) == (3, 1)
        for a, b in zip(spec.d_gens + spec.dperp_gens, d_gens + dp_gens):
            assert np.abs(a.at(pts) - b.at(pts)).max() < 1e-15


class TestFixtureAdmission:
    """Positive controls are admitted only after passing their validation
    suites at the stated tolerances."""

    def test_fix_s3_is_sasakian_statistical(self):
        sss = from_doc(fixture_doc("fix-s3")).sss
        g, acs = sss.st.g, sss.acs
        samples = metric_samples(g, count=64)
        rep = check_sasakian(acs, g, samples)
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-7
        assert check_statistical(sss.st, samples).passed
        assert check_almost_contact(acs, g, samples).passed
        rep = check_sasakian_statistical(sss, samples)
        assert rep.passed

    def test_fix_cr5_ambient_and_cr(self):
        spec = from_doc(fixture_doc("fix-cr5"))
        sss = spec.sss
        g, acs = sss.st.g, sss.acs
        samples = metric_samples(g, count=32)
        assert check_statistical(sss.st, samples).passed
        assert check_almost_contact(acs, g, samples).passed
        assert check_sasakian(acs, g, samples).passed
        rep = check_sasakian_statistical(sss, samples)
        assert rep.passed
        cr = spec.cr_structure()
        crrep = check_contact_cr(cr, sample_box(4, count=32))
        assert crrep.passed

    def test_sasaki_r7_cr_ambient_and_cr(self):
        spec = from_doc(fixture_doc("sasaki-r7-cr"))
        sss = spec.sss
        g, acs = sss.st.g, sss.acs
        samples = metric_samples(g, count=16)
        assert check_statistical(sss.st, samples).passed
        assert check_almost_contact(acs, g, samples).passed
        assert check_sasakian(acs, g, samples).passed
        assert check_sasakian_statistical(sss, samples).passed
        cr = spec.cr_structure()
        assert check_contact_cr(cr, sample_box(4, count=16)).passed


class TestSpecValidation:
    def test_wrong_phi_shape_reported(self):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["phi"]["9 1"] = "1"
        with pytest.raises(SpecError, match="phi"):
            from_doc(doc)

    def test_out_of_range_variable_reported_with_location(self):
        doc = fixture_doc("paper-r7-euclidean")
        doc["ambient"]["eta"][0] = "x8"
        with pytest.raises(SpecError) as err:
            from_doc(doc)
        assert any("eta" in d and "x8" in d for d in err.value.diagnostics)

    def test_unknown_key_rejected(self):
        doc = fixture_doc("fix-s3")
        doc["extra"] = 1
        with pytest.raises(SpecError, match="unknown key"):
            from_doc(doc)

    def test_diagnostics_aggregate(self):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["eta"][0] = "x9"
        doc["ambient"]["xi"][1] = "sin("
        with pytest.raises(SpecError) as err:
            from_doc(doc)
        assert len(err.value.diagnostics) >= 2

    def test_generator_count_mismatch(self):
        doc = fixture_doc("fix-cr5")
        doc["submanifold"]["Dperp"] = []
        with pytest.raises(SpecError, match="generators"):
            from_doc(doc)

    def test_lower_triangle_metric_entry_rejected(self):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["metric"]["3 1"] = "1"
        with pytest.raises(SpecError, match="upper triangle"):
            from_doc(doc)

    def test_explicit_k_coefficients(self):
        doc = fixture_doc("paper-r7-euclidean")
        doc["ambient"]["K"] = {"coefficients": {"7 7 7": "1"}}
        spec = from_doc(doc)
        pts = sample_box(7, count=4).points
        kt = spec.sss.st.K.gamma_at(pts)
        assert kt[0, 6, 6, 6] == 1.0
        assert np.abs(kt).sum() == pts.shape[0]
