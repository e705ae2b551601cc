import math

from contactstat.report import Record, Tracker


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
