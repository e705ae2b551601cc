"""Golden reports: the structured and the text report of every built-in
fixture, and of the edge specs in conftest, are pinned by their sha256, so
a change to the engine that moves any byte of a residual, witness, status
or census shows here; of the bent specs in conftest, only the verdicts
are.  The structured digests were written from the engine before the
submanifold and CR checks were batched over the sample axis, the text
digests before every check took one calling convention, the edge-spec
digests before the residual families took a label axis, the bent-spec
verdicts before the Christoffel values were contracted with the Jacobian
first; a change that moves a report on purpose says so in CHANGES.md and
rewrites the digest it moved."""

import hashlib
import json

import pytest

from conftest import BENT_SPECS, EDGE_SPECS
from contactstat.cli import main
from contactstat.fixtures import fixture_doc

# (fixture, seed) -> (sha256 of the structured stdout, exit code), at 64
# samples; every run writes nothing to stderr
GOLDEN = {
    # rewritten when nabla-bar W became one (N, n, m) array per field: the
    # t-transport residual (a PASS) moved by round-off, 1.5032255657823297e-16
    # -> 1.5026789493427702e-16, with the same witness
    ("fix-cr5", 42): (
        "648c813d7fa3de3cc87c67ba39faf2de1d6b9731497c35c6eaab9bd1b97e607b", 1),
    ("fix-cr5", 7): (
        "82d7bd45c0aa15b9f11f1dfefe6354bc1358ba88b0990b80ed08520e6825c034", 1),
    ("fix-s3", 42): (
        "88223a137d711888853aacde1eaf2dcd6df0044565b0fb9569ff6cec43736c46", 1),
    ("fix-s3", 7): (
        "bd47c1c67b894f3a4415416642e54b47e63560e18a3dfbeaa672afb50317b268", 1),
    ("paper-r7-euclidean", 42): (
        "5410739edc3283af94e13df3592cad9802c7ea0d91f5173c3bdaddf767397cf8", 1),
    ("paper-r7-euclidean", 7): (
        "ef995aae2ca4d40f0293c1f4b417a9e2dcf4575e774648dbecbfdade5a606001", 1),
    ("paper-r7-frame-orthonormal", 42): (
        "aedbed00c3a89447d6e78f3b0a8ddeb4447f1df8a4776d97cd2b5dbffb60ce2d", 1),
    ("paper-r7-frame-orthonormal", 7): (
        "97044d37b5f8aae1b98a7f9cf95d6419108189e58adc6b9252b3df17cbea0376", 1),
    ("sasaki-r7-cr", 42): (
        "7c415e1ce7379aee3fd02136c01a857c277877be12d39975ea83f60914934f6c", 1),
    ("sasaki-r7-cr", 7): (
        "904100fbcb2c50f2f917f3e4ff3207c79caad9bc1a6e06f58c3ed658f01d97d0", 1),
    # the specs of conftest.EDGE_SPECS, whose normal frame or D-perp is empty
    ("cr5-identity", 42): (
        "de5338cc232ad636e1e500e354a24a30f86e120f1ee2557626107f8e8daa3684", 1),
    ("cr5-identity", 7): (
        "0ad20d4862f1070fd512385f6aacdf1fe6618d4efeea334d01cd42d813da23a5", 1),
    ("cr5-reeb-curve", 42): (
        "fb8a3ca834862fbe1ea5472db3edca1cf9043cfdfb9b50e9433f8bb643a45e33", 1),
    ("cr5-reeb-curve", 7): (
        "558f95d426d3d8887f4889ed81a6a2f6b270a6ee88381461edeba3f50cb95a9e", 1),
}


# (fixture, seed) -> sha256 of the text stdout, at 64 samples; the exit
# code and the empty stderr are those of the structured run
GOLDEN_TEXT = {
    ("fix-cr5", 7):
        "391b5382d9fa561005de1f7034c39b69cb239fbe64d93397086c95d47aeae5ae",
    ("fix-cr5", 42):
        "530071ad1eaa2bbdaae24fede2e2f9ba83a3ac5c2f49874e9a7afcadb9fbe4e9",
    ("fix-s3", 7):
        "2ce4e4b582609bb97665ed46ee1fa66dc39264390f93c62e336097495e393974",
    ("fix-s3", 42):
        "71a52a516f6e7e1bdf4257018f041a2c85861affcc39747029c060199cbcfb10",
    ("paper-r7-euclidean", 7):
        "84e91f3b4125dab27522e7ecc0db59d8c07c75f52db131722d338e92dc191cea",
    ("paper-r7-euclidean", 42):
        "cc23caf937175b884d304aae22599c26cdf646c26e471354b651a5504e1178a3",
    ("paper-r7-frame-orthonormal", 7):
        "89080434b48b455b61118ffa8ae2f5e37d923a7f24df4f4cdd865e01d0df753b",
    ("paper-r7-frame-orthonormal", 42):
        "3c472de4dfd499c8f802601882aa0788eb550d81ade7f430e7bc884bddc2d7e4",
    ("sasaki-r7-cr", 7):
        "38594262bd2bac9aa772f0cd743687216bb0e74de2de97adb6f2f5ce8dfcedce",
    ("sasaki-r7-cr", 42):
        "bdb175858bb31bd3a433b2c9fd664ac2732453a595c34a4ab266bf696f5c47c3",
    ("cr5-identity", 7):
        "8ffcc1632093cac9a2fcfd268444917355307e3d798ae36881bda1a47fd736d1",
    ("cr5-identity", 42):
        "2d6f1b8bf45f8ce22da13b1d1720406c3652dce6bd6d2bc1d0873bedd688ee80",
    ("cr5-reeb-curve", 7):
        "c0f6238e167d43a3309acc0167f6c05d8515269eb0a7a6e4075c511191010ca0",
    ("cr5-reeb-curve", 42):
        "e75b742e20ac66b55665340ac35018256846e58f7c8ed7ec90cbc0293a20b15d",
}


# (bent spec, seed) -> (sha256 of the JSON list of (suite, check, record,
# status) rows in report order, exit code), at 64 samples.  The specs of
# conftest.BENT_SPECS are the only inputs on which the Jacobian varies with
# the point, so a change in the order of a contraction moves their
# residuals and witnesses at round-off; only the verdicts are pinned.  The
# three fix-cr5 bends give the same verdicts.
GOLDEN_VERDICTS = {
    ("fix-cr5-bent0", 42): (
        "2a4b8460abae16f93af87c09db7e3c752f54917ff922a95ad4045561899fb89f", 1),
    ("fix-cr5-bent0", 7): (
        "2a4b8460abae16f93af87c09db7e3c752f54917ff922a95ad4045561899fb89f", 1),
    ("fix-cr5-bent1", 42): (
        "2a4b8460abae16f93af87c09db7e3c752f54917ff922a95ad4045561899fb89f", 1),
    ("fix-cr5-bent1", 7): (
        "2a4b8460abae16f93af87c09db7e3c752f54917ff922a95ad4045561899fb89f", 1),
    ("fix-cr5-bent2", 42): (
        "2a4b8460abae16f93af87c09db7e3c752f54917ff922a95ad4045561899fb89f", 1),
    ("fix-cr5-bent2", 7): (
        "2a4b8460abae16f93af87c09db7e3c752f54917ff922a95ad4045561899fb89f", 1),
    ("sasaki-r7-cr-bent3", 42): (
        "09b0896018a05e85cd148f85fe529f3c3f941edaa4b918b7061ab7176f799e72", 1),
    ("sasaki-r7-cr-bent3", 7): (
        "09b0896018a05e85cd148f85fe529f3c3f941edaa4b918b7061ab7176f799e72", 1),
}


def _spec(name, tmp_path):
    """A fixture name, or the path of an edge or bent spec written out as
    JSON."""
    doc = EDGE_SPECS.get(name) or BENT_SPECS.get(name)
    if doc is None:
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_structured_report_is_golden(capsys, tmp_path, name, seed):
    code = main(["check", "--spec", _spec(name, tmp_path), "--samples", "64",
                 "--seed", str(seed), "--format", "structured"])
    out = capsys.readouterr()
    digest = hashlib.sha256(out.out.encode()).hexdigest()
    assert (digest, code) == GOLDEN[(name, seed)]
    assert out.err == ""


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_TEXT))
def test_text_report_is_golden(capsys, tmp_path, name, seed):
    code = main(["check", "--spec", _spec(name, tmp_path), "--samples", "64",
                 "--seed", str(seed), "--format", "text"])
    out = capsys.readouterr()
    digest = hashlib.sha256(out.out.encode()).hexdigest()
    assert (digest, code) == (GOLDEN_TEXT[(name, seed)], GOLDEN[(name, seed)][1])
    assert out.err == ""


def test_a_non_finite_k_entry_is_golden(capsys, tmp_path):
    # fix-cr5 with a K grid that mixes a non-constant entry and the
    # non-finite constant 1/0: every check that reads the connection, and
    # every domain check, whose contexts read it, is one engine-precondition
    # record naming 1/0 at the first ambient sample or, for a domain check,
    # at the image of the first domain sample; the checks that do not read
    # K keep their records
    doc = fixture_doc("fix-cr5")
    doc["ambient"]["K"] = {"coefficients": {"5 1 1": "x2", "5 2 2": "1/0"}}
    path = tmp_path / "k-inf.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--spec", str(path), "--samples", "8",
                 "--format", "structured"])
    out = capsys.readouterr()
    assert (hashlib.sha256(out.out.encode()).hexdigest(), code) == (
        "9b4efc3ab921f7bec0540742656aa7e4a3973ee58255b2fca6f5cda1e51c96b1", 1)
    assert out.err == ""


# samples -> sha256 of the structured stdout of paper-r7-euclidean with a K
# that varies with the point, at seed 42: the metric is constant, so Γ̂ is
# zero, but neither sample set collapses to one point, and 1025 samples are
# checked in blocks
VARYING_K = {
    64: "c7f1a53b66056d3f5ea20ff80aca3d356279ef2626ac9d0d5bc62340a51b1ada",
    1025: "434806eb6bd8b6433b08d5057e0287d1d234209f93b6b02eb874fa0b007ea40b",
}


@pytest.mark.parametrize("samples", sorted(VARYING_K))
def test_a_constant_metric_with_a_varying_k_is_golden(capsys, tmp_path,
                                                      samples):
    doc = fixture_doc("paper-r7-euclidean")
    doc["name"] = "paper-r7-varying-k"
    doc["ambient"]["K"] = {"coefficients": {
        "7 7 7": "x1", "1 7 7": "x2/3", "7 1 7": "x2/3", "7 7 1": "x2/3"}}
    path = tmp_path / "varying-k.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--spec", str(path), "--samples", str(samples),
                 "--seed", "42", "--format", "structured"])
    out = capsys.readouterr()
    assert (hashlib.sha256(out.out.encode()).hexdigest(), code) == (
        VARYING_K[samples], 1)
    assert out.err == ""


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_VERDICTS))
def test_bent_spec_verdicts_are_golden(capsys, tmp_path, name, seed):
    code = main(["check", "--spec", _spec(name, tmp_path), "--samples", "64",
                 "--seed", str(seed), "--format", "structured"])
    out = capsys.readouterr()
    rows = [[suite, check["check"], rec["name"], rec["status"]]
            for suite, doc in json.loads(out.out)["suites"].items()
            for check in doc["checks"] for rec in check["records"]]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (digest, code) == GOLDEN_VERDICTS[(name, seed)]
    assert out.err == ""
