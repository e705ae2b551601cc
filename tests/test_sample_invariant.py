"""Sample sets checked in part: at their first point, or in blocks.

When every field a group of suites reads is the same at every point,
`cli.run` checks the group's sample set at its first point only
(`Samples.collapsed`).  The reports must be those of the whole set: the
properties below run the CLI with `collapsed` replaced by the identity and
require the same stdout, stderr and exit code.

A set of more than `cli.BLOCK` samples is checked block by block, the
ambient set by the ambient and contact checks and the domain set by the
submanifold, CR and product checks, and each check's block reports merge
into its report on the whole set.  The properties below shrink the block
and require the reports of one block.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EDGE_SPECS
from contactstat import cli
from contactstat.cli import main, run
from contactstat.crchecks import classify_geodesic
from contactstat.fixtures import fixture_doc, fixture_names
from contactstat.report import merge_blocks
from contactstat.sampling import Samples, sample_box
from contactstat.specfile import from_doc

PAPER_R7 = ("paper-r7-euclidean", "paper-r7-frame-orthonormal")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


@st.composite
def _invariant_docs(draw):
    """A paper-r7 fixture document, or a variant that keeps every field
    constant: a random SPD metric, a random lambda or constant K
    coefficients, and an affine rescale and shift of each embedding
    component."""
    doc = fixture_doc(draw(st.sampled_from(PAPER_R7)))
    if not draw(st.booleans()):
        return doc
    amb, sub = doc["ambient"], doc["submanifold"]
    dim = amb["dim"]
    if draw(st.booleans()):
        a = np.array(draw(st.lists(st.floats(-1, 1), min_size=dim * dim,
                                   max_size=dim * dim))).reshape(dim, dim)
        g = a @ a.T + np.eye(dim)
        amb["metric"] = {f"{i + 1} {j + 1}": repr(float(g[i, j]))
                         for i in range(dim) for j in range(i, dim)}
    if draw(st.booleans()):
        amb["K"] = {"lambda": draw(st.floats(-2, 2))}
    else:
        keys = st.tuples(*[st.integers(1, dim)] * 3).map(
            lambda kij: "{} {} {}".format(*kij))
        amb["K"] = {"coefficients": draw(st.dictionaries(
            keys, _number(-2, 2), max_size=6))}
    sub["embedding"] = [
        f"{draw(_number(0.5, 2))}*({c})+{draw(_number(-1, 1))}"
        for c in sub["embedding"]]
    return doc


@st.composite
def _sampling(draw, doc):
    """CLI arguments and the sampling block: seeded with a seed and a
    count in [1, 300], or listed points."""
    if draw(st.booleans()):
        return ["--seed", str(draw(st.integers(0, 2**16))),
                "--samples", str(draw(st.integers(1, 300)))], doc["sampling"]

    def points(dim):
        return st.lists(st.lists(st.floats(-1, 1), min_size=dim,
                                 max_size=dim), min_size=1, max_size=4)
    return [], {"mode": "points",
                "ambient": draw(points(doc["ambient"]["dim"])),
                "domain": draw(points(doc["submanifold"]["dim"]))}


def _spied(mp, argv):
    """The exit code, stdout and stderr of one CLI run, and the sample
    counts of the sets it collapsed."""
    calls = []
    collapsed = Samples.collapsed

    def spy(self):
        calls.append(self.count)
        return collapsed(self)

    mp.setattr(Samples, "collapsed", spy)
    return _cli(argv), calls


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_collapsed_sets_report_as_the_whole_set(data):
    doc = data.draw(_invariant_docs())
    args, doc["sampling"] = data.draw(_sampling(doc))
    fmt = data.draw(st.sampled_from(["text", "structured"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        argv = ["check", "--spec", str(path), "--format", fmt, *args]
        with pytest.MonkeyPatch.context() as mp:
            folded, calls = _spied(mp, argv)
            mp.setattr(Samples, "collapsed", lambda self: self)
            whole = _cli(argv)
    # the ambient and the domain set were both collapsed
    assert len(calls) == 2
    assert folded == whole


def _checks(doc):
    return [check for suite in doc["suites"].values()
            for check in suite["checks"]]


def _blocked_and_whole(doc, suites, seed, count, block):
    """run() on a fresh spec of `doc` in blocks of `block` samples and in
    one block, and the number of block reports of each merged check."""
    merged = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BLOCK", block)
        mp.setattr(cli, "merge_blocks",
                   lambda reports, starts: merged.append(len(reports))
                   or merge_blocks(reports, starts))
        blocked = run(from_doc(doc), suites, seed, count)
        mp.setattr(cli, "BLOCK", count)
        whole = run(from_doc(doc), suites, seed, count)
    return blocked, whole, merged


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(fixture_names()), count=st.integers(1, 300),
       seed=st.integers(0, 2**16), block=st.integers(1, 64))
def test_blocked_sets_report_as_the_whole_set(name, count, seed, block):
    # a fresh spec each time, so that its grids are first compiled by the
    # block workers
    blocked, whole, merged = _blocked_and_whole(
        fixture_doc(name), ["ambient", "contact"], seed, count, block)
    assert _checks(blocked[0]) == _checks(whole[0])
    assert blocked[2] == whole[2]
    # the five checks were merged from blocks, unless the set is one block
    # or was collapsed to its first point
    blocks = -(-count // block)
    one_block = blocks == 1 or name in PAPER_R7
    assert merged == ([] if one_block else 5 * [blocks])


@pytest.mark.parametrize("name", ["fix-cr5", "sasaki-r7-cr", *EDGE_SPECS])
@settings(max_examples=6, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_every_suite_reports_in_blocks_as_the_whole_set(name, data, seed):
    # auto runs every suite the spec has: the ambient set's five checks,
    # then the domain set's submanifold, CR and product checks, on sets
    # that are never collapsed.  A domain block costs tens of milliseconds,
    # so a set has at most 24 blocks.
    count = data.draw(st.integers(1, 300), label="count")
    block = data.draw(st.integers(-(-count // 24), 64), label="block")
    doc = EDGE_SPECS[name] if name in EDGE_SPECS else fixture_doc(name)
    blocked, whole, merged = _blocked_and_whole(doc, "auto", seed, count,
                                                block)
    assert blocked[0] == whole[0]
    assert blocked[2] == whole[2]
    checks = len(_checks(whole[0]))
    assert checks == 15
    blocks = -(-count // block)
    assert merged == ([] if blocks == 1 else checks * [blocks])


def test_input_errors_in_later_blocks_report_as_the_whole_set(tmp_path):
    # fix-s3 with g_22 = x1^2/4, singular where x1 = 0, and g_33 =
    # (x3^2/x3^2)/4, NaN where x3 = 0: of three blocks of four listed
    # points, the second has a singular metric and the third a NaN one.
    # Every check reads the metric before it inverts it, so the whole set
    # fails at the NaN in a later block than the first block that raises.
    doc = fixture_doc("fix-s3")
    doc["ambient"]["metric"].update({"2 2": "x1^2/4", "3 3": "x3^2/x3^2/4"})
    pts = sample_box(3, count=12, seed=5, box=(0.5, 1.0)).points
    pts[5, 0] = 0.0
    pts[9, 2] = 0.0
    doc["sampling"] = {"mode": "points", "ambient": pts.tolist()}
    path = tmp_path / "later.json"
    path.write_text(json.dumps(doc))
    argv = ["check", "--spec", str(path), "--suites", "ambient,contact",
            "--format", "structured"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BLOCK", 4)
        blocked = _cli(argv)
        mp.setattr(cli, "BLOCK", 12)
        whole = _cli(argv)
    assert blocked == whole
    code, out, err = whole
    assert (code, err) == (1, "")
    notes = {check["check"]: check["records"][0]["note"]
             for check in _checks(json.loads(out))}
    assert notes == dict.fromkeys(
        ["statistical", "almost-contact", "contact-metric", "sasakian",
         "sasakian-statistical"],
        f"DomainError: non-finite result: x3^2/x3^2/4.0 at point "
        f"{pts[9].tolist()}")


def test_a_nan_of_the_arithmetic_in_a_later_block_reports_as_the_whole_set(
        tmp_path):
    # fix-s3 with g_33 = 5e307 x3^2: every value and partial is finite at
    # the listed points, but at point 9 (x3 = 1) the Koszul sum
    # d_3 g_33 + d_3 g_33 overflows and the Levi-Civita symbols read NaN.
    # A check whose record reads NaN in a block is checked again on the
    # whole set, whose scales are taken over the NaN too.
    doc = fixture_doc("fix-s3")
    doc["ambient"]["metric"]["3 3"] = "5e307*x3^2"
    pts = sample_box(3, count=12, seed=5, box=(0.1, 0.3)).points
    pts[9] = 1.0
    doc["sampling"] = {"mode": "points", "ambient": pts.tolist()}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    argv = ["check", "--spec", str(path), "--suites", "ambient,contact",
            "--format", "structured"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BLOCK", 4)
        blocked = _cli(argv)
        mp.setattr(cli, "BLOCK", 12)
        whole = _cli(argv)
    assert blocked == whole
    code, out, err = whole
    assert (code, err) == (1, "")
    records = [rec for check in _checks(json.loads(out))
               for rec in check["records"]]
    assert not any(rec["name"] == "engine-precondition" for rec in records)
    assert any(rec["residual"] != rec["residual"]
               and rec["witness"] == {"sample": 9} for rec in records)


def _domain_run(tmp_path, doc, pts, block):
    """The CLI on the listed domain points, in blocks of `block` samples
    and in one block."""
    doc["sampling"] = {"mode": "points", "domain": pts.tolist()}
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    argv = ["check", "--spec", str(path), "--suites",
            "submanifold,cr,product", "--format", "structured"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BLOCK", block)
        blocked = _cli(argv)
        mp.setattr(cli, "BLOCK", len(pts))
        whole = _cli(argv)
    return blocked, whole


def test_input_errors_in_later_domain_blocks_report_as_the_whole_set(
        tmp_path):
    # fix-cr5 with the image x1^3 (a Jacobian rank drop where x1 = 0) and
    # sqrt(x2) (non-finite where x2 < 0): of three blocks of four listed
    # points, the second drops rank and the third leaves the domain.  The
    # whole set's contexts read every value before they test the rank, so
    # every domain check fails at the third block, not the second.
    doc = fixture_doc("fix-cr5")
    doc["submanifold"]["embedding"][0] = "x1^3"
    doc["submanifold"]["embedding"][3] = "sqrt(x2)"
    pts = sample_box(4, count=12, seed=5, box=(0.5, 1.0)).points
    pts[5, 0] = 0.0
    pts[9, 1] = -0.5
    blocked, whole = _domain_run(tmp_path, doc, pts, 4)
    assert blocked == whole
    code, out, err = whole
    assert (code, err) == (1, "")
    checks = _checks(json.loads(out))
    assert len(checks) == 10
    assert {check["records"][0]["note"] for check in checks} == {
        "DomainError: non-finite result: sqrt(x2) at point "
        f"{pts[9].tolist()}"}


def test_consequences_take_the_whole_sets_verdict(tmp_path):
    # paper-r7-euclidean bent by x1*x3*x4, whose D/D-perp second
    # derivatives x4 and x3 vanish where x3 = x4 = 0: there the submanifold
    # is mixed geodesic, and elsewhere it is not.  In blocks of four the
    # first block is mixed geodesic and the second is not, and the
    # consequences report the whole set's verdict.
    doc = fixture_doc("paper-r7-euclidean")
    doc["submanifold"]["embedding"][3] = "x1*x3*x4"
    pts = sample_box(5, count=8, seed=4).points
    pts[:4, 2:4] = 0.0
    cr = from_doc(doc).cr_structure()
    verdicts = [classify_geodesic(cr, Samples(points=part)).record(
        "mixed-geodesic").passed for part in (pts[:4], pts[4:])]
    assert verdicts == [True, False]
    blocked, whole = _domain_run(tmp_path, doc, pts, 4)
    assert blocked == whole
    [cons] = [check for check in _checks(json.loads(whole[1]))
              if check["check"] == "mixed-geodesic-consequences"]
    assert cons["census"] == {"samples": 8, "mixed-geodesic": False,
                              "mixed-geodesic-dual": False, "foliate": True}
    assert {(r["status"], r["note"]) for r in cons["records"]} == {
        ("INFO", "precondition failed; reported for information")}


def _collapses(monkeypatch, spec, *args):
    return _spied(monkeypatch, ["check", "--spec", spec, "--samples", "8",
                                *args])[1]


@pytest.mark.parametrize("name", ["fix-cr5", "sasaki-r7-cr", *EDGE_SPECS])
def test_sample_dependent_specs_are_never_collapsed(monkeypatch, tmp_path,
                                                    name):
    spec = name
    if name in EDGE_SPECS:
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(EDGE_SPECS[name]))
    assert _collapses(monkeypatch, str(spec)) == []


@pytest.mark.parametrize("name", PAPER_R7)
def test_paper_r7_sets_are_collapsed(monkeypatch, name):
    # the ambient set, then the domain set
    assert _collapses(monkeypatch, name) == [8, 8]
    assert _collapses(monkeypatch, name, "--suites", "cr") == [8]


def test_collapsed_keeps_the_count_and_the_first_point():
    s = sample_box(3, count=5, seed=1)
    s = Samples(points=s.points, resampled=2)
    c = s.collapsed()
    assert (c.count, c.resampled, c.points.shape[1]) == (5, 2, 3)
    np.testing.assert_array_equal(c.points, s.points[:1])
    assert c.collapsed().count == 5
