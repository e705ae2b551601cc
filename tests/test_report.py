import math

from contactstat.report import Record, Tracker


class TestNonFiniteResiduals:
    def test_nan_after_finite_value_is_kept(self):
        t = Tracker()
        t.add(0.1, sample=0)
        t.add(float("nan"), sample=1)
        t.add(5.0, sample=2)
        rec = t.build("r", "x = 0", 1e-8)
        assert math.isnan(rec.residual)
        assert rec.witness == {"sample": 1}
        assert rec.status == "FAIL"

    def test_nan_in_a_later_batch_is_kept(self):
        t = Tracker()
        t.add_batch([0.1, 0.2])
        t.add_batch([0.0, float("nan"), float("nan")], labels="X=u1")
        t.add_batch([3.0])
        rec = t.build("r", "x = 0", 1e-8)
        assert math.isnan(rec.residual)
        assert rec.witness == {"sample": 1, "labels": "X=u1"}
        assert rec.status == "FAIL"

    def test_infinite_residual_fails_at_any_scale(self):
        rec = Record("r", "x = 0", residual=math.inf, scale=math.inf,
                     tolerance=1e-8)
        assert rec.status == "FAIL"
