import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from contactstat.report import (CheckReport, Record, Residuals, Tracker,
                                labels, merge_blocks)


class TestNonFiniteResiduals:
    def test_nan_after_finite_value_is_kept(self):
        t = Tracker()
        t.add([0.1], index=[0])
        t.add([float("nan")], index=[1])
        t.add([5.0], index=[2])
        rec = t.build("r", "x = 0", 1e-8)
        assert math.isnan(rec.residual)
        assert rec.witness == {"sample": 1}
        assert rec.status == "FAIL"

    def test_nan_in_a_later_batch_is_kept(self):
        t = Tracker()
        t.add([0.1, 0.2])
        t.add([0.0, float("nan"), float("nan")], labels="X=u1")
        t.add([3.0])
        rec = t.build("r", "x = 0", 1e-8)
        assert math.isnan(rec.residual)
        assert rec.witness == {"sample": 1, "labels": "X=u1"}
        assert rec.status == "FAIL"

    def test_infinite_residual_fails_at_any_scale(self):
        rec = Record("r", "x = 0", residual=math.inf, scale=math.inf,
                     tolerance=1e-8)
        assert rec.status == "FAIL"


class TestWitness:
    def test_ties_resolve_to_the_first_sample_then_the_first_call(self):
        t = Tracker()
        t.add([0.5, 2.0], labels="a", index=[4, 6])
        t.add([2.0, 2.0], labels="b", index=[5, 6])
        t.add([2.0], labels="c", index=[5])
        t.add([1.0, 2.0], labels="d", index=[1, 7])
        rec = t.build("r", "x = 0", 1e-8)
        assert rec.residual == 2.0
        assert rec.witness == {"sample": 5, "labels": "b"}


# few distinct magnitudes, so that exact ties are common, and NaN
_ENTRIES = st.sampled_from([0.0, -0.0, 0.5, 2.0, -2.0, math.inf, math.nan])


@st.composite
def _label_axis_calls(draw):
    """Earlier single-label calls, then one (N, L, ...) batch with its
    labels, per-sample or overall scale and sample numbers."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(0, 4))
    trailing = draw(st.sampled_from([(), (2,), (2, 3)]))
    values = draw(hnp.arrays(float, (n, count) + trailing, elements=_ENTRIES))
    scale = draw(st.one_of(
        st.floats(0.0, 10.0),
        hnp.arrays(float, (n,), elements=st.floats(0.0, 10.0))))
    index = draw(st.one_of(st.none(), st.lists(
        st.integers(0, 9), min_size=n, max_size=n)))
    earlier = draw(st.lists(st.tuples(
        hnp.arrays(float, (2,), elements=_ENTRIES),
        st.sampled_from([None, "e1", "e2"]),
        st.lists(st.integers(0, 9), min_size=2, max_size=2)), max_size=2))
    names = [f"L{k}" for k in range(count)]
    return earlier, values, names, scale, index


def _state(t):
    return (repr(t.residual), t.scale, t.witness)


class TestLabelAxis:
    @settings(max_examples=300, deadline=None)
    @given(_label_axis_calls())
    def test_one_call_is_the_calls_one_label_at_a_time(self, calls):
        earlier, values, names, scale, index = calls
        batched, one_by_one = Tracker(), Tracker()
        for t in (batched, one_by_one):
            for v, lab, idx in earlier:
                t.add(v, lab, 1.0, idx)
        batched.add(values, names, scale, index)
        for k, name in enumerate(names):
            one_by_one.add(values[:, k], name, scale, index)
        assert _state(batched) == _state(one_by_one)

    def test_an_empty_label_list_changes_nothing(self):
        t = Tracker()
        t.add([1.0, 3.0], "a", 2.0, [4, 5])
        before = _state(t)
        t.add(np.zeros((2, 0)), [], 99.0)
        assert _state(t) == before

    def test_ties_go_to_the_lowest_sample_then_the_first_label(self):
        t = Tracker()
        t.add([[0.0, 2.0, 2.0], [2.0, 2.0, 0.0]], ["a", "b", "c"],
              index=[7, 3])
        assert (t.residual, t.witness) == (2.0, {"sample": 3, "labels": "a"})

    def test_labels_list_the_product_of_the_axes_in_c_order(self):
        assert labels("X=u{} V=N{}", 2, 1) == ["X=u1 V=N1", "X=u2 V=N1"]
        assert labels("X=u{0} Y=u{2} V=N{1}", 1, 2, 2) == [
            "X=u1 Y=u1 V=N1", "X=u1 Y=u2 V=N1",
            "X=u1 Y=u1 V=N2", "X=u1 Y=u2 V=N2"]
        assert labels("{} U=P{}", ["X=D1", "X=ξ"], 1) == [
            "X=D1 U=P1", "X=ξ U=P1"]
        assert labels("X=D{}", 0) == []


class TestResiduals:
    def test_records_come_out_in_declaration_order(self):
        res = Residuals("c", {"samples": 2}, {"b": "b = 0", "a": "a = 0",
                                              "c": "c = 0"})
        res.add("c", [1.0, 0.0])
        res.add("a", [0.0, 2.0])
        rep = res.report(1e-8)
        assert rep.check == "c"
        assert rep.census == {"samples": 2}
        assert [(r.name, r.identity) for r in rep.records] == [
            ("b", "b = 0"), ("a", "a = 0"), ("c", "c = 0")]
        assert rep.record("a").residual == 2.0
        assert rep.record("a").witness == {"sample": 1}

    def test_an_undeclared_name_is_a_key_error(self):
        res = Residuals("c", {}, {"a": "a = 0"})
        with pytest.raises(KeyError):
            res.add("b", [0.0])
        with pytest.raises(KeyError):
            res.adder(1.0)("b", [0.0])

    def test_informational_and_notes_apply_to_the_named_records_only(self):
        res = Residuals("c", {}, {"a": "a = 0", "b": "b = 0", "c": "c = 0"})
        for name in "abc":
            res.add(name, [1.0])
        rep = res.report(1e-8, informational=("b",), notes={"c": "why"})
        assert [r.status for r in rep.records] == ["FAIL", "INFO", "FAIL"]
        assert [r.note for r in rep.records] == ["", "", "why"]

    def test_an_alt_sign_name_is_informational(self):
        res = Residuals("c", {}, {"a": "a = 0", "a-alt-sign": "a = 1"})
        res.add("a-alt-sign", [1.0])
        rep = res.report(1e-8)
        rec = rep.record("a-alt-sign")
        assert rec.informational
        assert rec.note == "opposite sign convention"
        assert not rep.record("a").informational
        assert rep.passed

    def test_adder_gives_the_witness_of_direct_tracker_calls(self):
        calls = [([0.5, 3.0], "X=u1", [1.0, 2.0], [4, 9]),
                 ([3.0, 0.1], "X=u2", 5.0, [2, 3]),
                 ([1.0], None, 0.0, [0])]
        t = Tracker()
        res = Residuals("c", {}, {"a": "a = 0"})
        for values, labels, scale, index in calls:
            t.add(values, labels, scale, index)
            res.adder(scale, index)("a", values, labels)
        assert res.report(1e-8).records == [t.build("a", "a = 0", 1e-8)]


@st.composite
def _blocked_families(draw):
    """Per-sample arrays of one family over N samples, as one check adds
    them in a few calls (each with its labels and per-sample scale), with
    planted ties and NaN, and the starts of the blocks that split the
    samples."""
    n = draw(st.integers(1, 12))
    calls = []
    for c in range(draw(st.integers(1, 3))):
        count = draw(st.integers(0, 3))
        values = draw(hnp.arrays(float, (n, count, 2), elements=_ENTRIES))
        scale = draw(hnp.arrays(float, (n,), elements=st.floats(0.0, 10.0)))
        calls.append((values, labels(f"c{c} X=u{{}}", count), scale))
    cuts = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n - 1))
    return n, calls, [0, *sorted(cuts)]


class TestMergeBlocks:
    @settings(max_examples=200, deadline=None)
    @given(_blocked_families())
    def test_merged_blocks_are_one_tracker_over_the_whole_set(self, family):
        n, calls, starts = family
        whole = Tracker()
        for values, names, scale in calls:
            whole.add(values, names, scale)
        reports = []
        for start, stop in zip(starts, [*starts[1:], n]):
            t = Tracker()
            for values, names, scale in calls:
                t.add(values[start:stop], names, scale[start:stop])
            reports.append(CheckReport("c", [t.build("r", "r = 0", 1e-8)],
                                       {"samples": n}))
        merged = merge_blocks(reports, starts)
        assert (merged.check, merged.census) == ("c", {"samples": n})
        [rec] = merged.records
        assert (repr(rec.residual), rec.scale, rec.witness) == _state(whole)
        assert rec.status == whole.build("r", "r = 0", 1e-8).status

    def test_a_tie_goes_to_the_earlier_block(self):
        first, second = Tracker(), Tracker()
        first.add([1.0, 2.0], "a")
        second.add([2.0, 0.5], "b", scale=3.0)
        reports = [CheckReport("c", [t.build("r", "r = 0", 1e-8)])
                   for t in (first, second)]
        [rec] = merge_blocks(reports, [0, 2]).records
        assert (rec.residual, rec.scale, rec.witness) == (
            2.0, 3.0, {"sample": 1, "labels": "a"})
