"""Sample sets over sample-invariant geometry.

When every field a group of suites reads is the same at every point,
`cli.run` checks the group's sample set at its first point only
(`Samples.collapsed`).  The reports must be those of the whole set: the
properties below run the CLI with `collapsed` replaced by the identity and
require the same stdout, stderr and exit code.
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
from contactstat.cli import main
from contactstat.fixtures import fixture_doc
from contactstat.sampling import Samples, sample_box

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
    assert (c.count, c.resampled, c.dim) == (5, 2, 3)
    np.testing.assert_array_equal(c.points, s.points[:1])
    assert c.collapsed().count == 5
