import numpy as np
import pytest

import conftest
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
    assert spec.g.dim == spec.acs.dim


def test_paper_r7_shape():
    spec = from_doc(fixture_doc("paper-r7-euclidean"))
    assert spec.g.dim == 7
    assert spec.embedding.m == 5
    assert len(spec.d_gens) == 3 and len(spec.dperp_gens) == 2


class TestDocsMatchHandBuiltStructures:
    """The fixture documents must reproduce the independently hand-built
    structures used throughout the unit tests, value for value."""

    @pytest.mark.parametrize("name,builder", [
        ("fix-s3", conftest.sasaki_r3),
        ("fix-cr5", conftest.sasaki_r5),
        ("sasaki-r7-cr", conftest.sasaki_r7),
    ])
    def test_sasaki_ambients(self, name, builder):
        spec = from_doc(fixture_doc(name))
        g, acs = builder()
        pts = sample_box(g.dim, count=16).points
        assert np.abs(spec.g.at(pts) - g.at(pts)).max() < 1e-15
        assert np.abs(spec.acs.phi_at(pts) - acs.phi_at(pts)).max() < 1e-15
        assert np.abs(spec.acs.xi.at(pts) - acs.xi.at(pts)).max() < 1e-15
        assert np.abs(spec.acs.eta.at(pts) - acs.eta.at(pts)).max() < 1e-15

    @pytest.mark.parametrize("name,ortho", [
        ("paper-r7-euclidean", False),
        ("paper-r7-frame-orthonormal", True),
    ])
    def test_flat_ambients(self, name, ortho):
        spec = from_doc(fixture_doc(name))
        g, acs = conftest.euclid_r7(frame_orthonormal=ortho)
        pts = sample_box(7, count=8).points
        assert np.abs(spec.g.at(pts) - g.at(pts)).max() < 1e-15
        assert np.abs(spec.acs.phi_at(pts) - acs.phi_at(pts)).max() < 1e-15
        assert np.abs(spec.sss.st.gammas(pts)[1]
                      - conftest.e7_structure(
                          frame_orthonormal=ortho).st.gammas(pts)[1]
                      ).max() < 1e-15

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
        spec = from_doc(fixture_doc("fix-s3"))
        samples = metric_samples(spec.g, count=64)
        rep = check_sasakian(spec.acs, spec.g, samples)
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-7
        assert check_statistical(spec.sss.st, samples).passed
        assert check_almost_contact(spec.acs, spec.g, samples).passed
        rep = check_sasakian_statistical(spec.sss, samples)
        assert rep.passed

    def test_fix_cr5_ambient_and_cr(self):
        spec = from_doc(fixture_doc("fix-cr5"))
        samples = metric_samples(spec.g, count=32)
        assert check_statistical(spec.sss.st, samples).passed
        assert check_almost_contact(spec.acs, spec.g, samples).passed
        assert check_sasakian(spec.acs, spec.g, samples).passed
        rep = check_sasakian_statistical(spec.sss, samples)
        assert rep.passed
        cr = spec.cr_structure()
        crrep = check_contact_cr(cr, sample_box(4, count=32))
        assert crrep.passed

    def test_sasaki_r7_cr_ambient_and_cr(self):
        spec = from_doc(fixture_doc("sasaki-r7-cr"))
        samples = metric_samples(spec.g, count=16)
        assert check_statistical(spec.sss.st, samples).passed
        assert check_almost_contact(spec.acs, spec.g, samples).passed
        assert check_sasakian(spec.acs, spec.g, samples).passed
        assert check_sasakian_statistical(spec.sss, samples).passed
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
