import math

import pytest

from contactstat.report import Record, Residuals, Tracker


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
