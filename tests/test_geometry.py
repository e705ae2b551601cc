import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactstat.exprlang import Bin, Const, DomainError, Expr, Un, Var, parse
from contactstat.geometry import (
    ConnField, Grid, MetricField, SingularMetricError, StatTriple, VectorField,
    check_statistical, levi_civita, lie_bracket, metric_samples,
)
from contactstat.sampling import Samples, sample_box
from contactstat.specfile import load_spec
from contactstat.submanifold import _checked


def koszul_fd(g, pts, h=1e-6):
    """Independent Christoffel oracle: finite differences of the metric."""
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    dg = np.empty((n, d, d, d))
    for k in range(d):
        hi = pts.copy()
        lo = pts.copy()
        hi[:, k] += h
        lo[:, k] -= h
        dg[:, k] = (g.at(hi) - g.at(lo)) / (2 * h)
    ginv = np.linalg.inv(g.at(pts))
    lower = 0.5 * (np.transpose(dg, (0, 1, 2, 3))
                   + np.transpose(dg, (0, 2, 1, 3))
                   - np.transpose(dg, (0, 2, 3, 1)))
    return np.einsum("nkl,nijl->nkij", ginv, lower)


def e7_structure():
    """Flat 7-chart with the eta (x) eta (x) xi difference tensor; the
    ambient structure of the built-in 7-dimensional fixtures.  The metric is
    flat, so K is also the coefficient grid of the connection."""
    g = MetricField.euclidean(7)
    zero = Const(0.0)
    one = Const(1.0)
    xi = VectorField([zero] * 6 + [one], 7)
    eta = VectorField([zero] * 6 + [one], 7)
    coeffs = [[[eta.comps[i] * eta.comps[j] * xi.comps[k] for j in range(7)]
               for i in range(7)] for k in range(7)]
    return g, ConnField(7, coeffs), xi, eta


class TestLeviCivita:
    def test_euclidean_is_flat(self, monkeypatch):
        g = MetricField.euclidean(7)
        # a constant metric is never inverted to find its zero symbols
        monkeypatch.setattr(g, "inverse_at", None)
        pts = sample_box(7, count=8).points
        assert np.abs(levi_civita(g, pts)).max() == 0.0

    def test_surface_of_revolution_chart(self):
        # g = diag(1, x1^2) on (0, inf) x R; the nonzero symbols are
        # gamma^2_12 = gamma^2_21 = 1/x1 and gamma^1_22 = -x1
        g = MetricField(2, {(0, 0): "1", (1, 1): "x1^2"})
        pts = sample_box(2, count=16, box=(0.5, 2.0)).points
        gam = levi_civita(g, pts)
        # oracle first: the finite-difference Koszul values
        assert np.abs(gam - koszul_fd(g, pts)).max() < 1e-8
        x1 = pts[:, 0]
        expect = np.zeros_like(gam)
        expect[:, 1, 0, 1] = 1.0 / x1
        expect[:, 1, 1, 0] = 1.0 / x1
        expect[:, 0, 1, 1] = -x1
        assert np.abs(gam - expect).max() < 1e-12

    def test_rescaling_leaves_symbols_unchanged(self):
        g1 = MetricField(2, {(0, 0): "1", (1, 1): "x1^2"})
        g2 = MetricField(2, {(0, 0): "3", (1, 1): "3*x1^2"})
        pts = sample_box(2, count=10, box=(0.5, 2.0)).points
        assert np.abs(levi_civita(g1, pts)
                      - levi_civita(g2, pts)).max() < 1e-12

    def test_metric_compatibility(self):
        g = MetricField(3, {(0, 0): "1 + x2^2/4", (0, 2): "-x2/4",
                            (1, 1): "1/4", (2, 2): "1/4"})
        pts = sample_box(3, count=32).points
        gam = levi_civita(g, pts)
        gv = g.at(pts)
        dgv = np.moveaxis(g.partials.at(pts), -1, 1)
        compat = (dgv
                  - np.einsum("nlki,nlj->nkij", gam, gv)
                  - np.einsum("nlkj,nil->nkij", gam, gv))
        assert np.abs(compat).max() < 1e-8

    def test_singular_metric_reports_point(self):
        g = MetricField(2, {(0, 0): "x1", (1, 1): "x1"})
        with pytest.raises(SingularMetricError):
            levi_civita(g, np.array([[0.0, 0.3]]))


class TestDualConnection:
    def test_flat_euclidean_fixed_point(self):
        g = MetricField.euclidean(3)
        dual = StatTriple(g, ConnField.flat(3)).dual()
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    assert dual.K.coeff(k, i, j) == Const(0.0)

    def test_dual_of_k_shift_flips_k(self):
        g, K, xi, eta = e7_structure()
        st = StatTriple(g, K)
        pts = sample_box(7, count=8).points
        lc, gam, gam_star = st.gammas(pts)
        assert np.abs(gam_star - (lc - (gam - lc))).max() == 0.0
        assert np.abs(st.dual().gammas(pts)[1] - gam_star).max() == 0.0

    def test_involution_structural(self):
        g, K, _, _ = e7_structure()
        dd = StatTriple(g, K).dual().dual()
        for k in range(7):
            for i in range(7):
                for j in range(7):
                    assert dd.K.coeff(k, i, j) == K.coeff(k, i, j)

    def test_duality_identity_brute_force(self):
        # both sides of the pairing evaluated independently over the frame
        g, K, _, _ = e7_structure()
        pts = sample_box(7, count=64).points
        gv = g.at(pts)
        dgv = np.moveaxis(g.partials.at(pts), -1, 1)
        _, gam, gams = StatTriple(g, K).gammas(pts)
        lhs = dgv
        rhs = (np.einsum("nlij,nlk->nijk", gam, gv)
               + np.einsum("nlik,njl->nijk", gams, gv))
        assert np.abs(lhs - rhs).max() < 1e-9


def nabla_at(gam, X, Y, pts):
    """(∇_X Y)^k = X^i ∂_i Y^k + X^i Y^j Γ^k_ij at each point, from
    connection coefficients [n, k, i, j] evaluated at the same points."""
    xv, yv = X.at(pts), Y.at(pts)
    return (np.einsum("ni,nki->nk", xv, Y.partials.at(pts))
            + np.einsum("ni,nj,nkij->nk", xv, yv, gam))


class TestCovariantDerivative:
    def test_flat_constant_fields(self):
        flat = ConnField.flat(2)
        X = VectorField.coordinate(2, 0)
        Y = VectorField.coordinate(2, 1)
        pts = sample_box(2, count=4).points
        out = nabla_at(flat.gamma_at(pts), X, Y, pts)
        assert np.all(out == 0.0)

    def test_flat_directional_derivative(self):
        flat = ConnField.flat(2)
        X = VectorField.coordinate(2, 0)
        Y = VectorField(["0", "x1"], 2)
        pts = sample_box(2, count=4).points
        out = nabla_at(flat.gamma_at(pts), X, Y, pts)
        assert np.all(out[:, 0] == 0.0)
        assert np.all(out[:, 1] == 1.0)

    def test_k_shift_on_xi(self):
        # with the eta (x) eta (x) xi correction, nabla_xi xi = xi
        g, K, xi, _ = e7_structure()
        pts = sample_box(7, count=4).points
        vals = nabla_at(K.gamma_at(pts), xi, xi, pts)
        assert np.abs(vals - xi.at(pts)).max() < 1e-15

    def test_numeric_backend_agrees_with_symbolic(self):
        g = MetricField(2, {(0, 0): "1", (1, 1): "x1^2"})
        X = VectorField(["x2", "x1"], 2)
        Y = VectorField(["x1*x2", "1"], 2)
        pts = sample_box(2, count=8, box=(0.5, 2.0)).points
        lc = StatTriple(g, ConnField.flat(2)).gammas(pts)[0]
        got = nabla_at(lc, X, Y, pts)
        expect = nabla_at(koszul_fd(g, pts), X, Y, pts)
        assert np.abs(got - expect).max() < 1e-7


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        X = VectorField.coordinate(3, 0)
        Y = VectorField.coordinate(3, 2)
        out = lie_bracket(X, Y)
        assert all(c == Const(0.0) for c in out.comps)

    def test_textbook_pair(self):
        # [x2 d1, d2] = -d1, by direct formula evaluation
        X = VectorField(["x2", "0"], 2)
        Y = VectorField.coordinate(2, 1)
        out = lie_bracket(X, Y)
        pts = sample_box(2, count=16).points
        vals = np.stack([c.eval_many(pts) for c in out.comps], axis=1)
        expect = np.zeros_like(vals)
        expect[:, 0] = -1.0
        assert np.abs(vals - expect).max() == 0.0

    def test_jacobi_identity_spot_check(self):
        X = VectorField(["x2*x3", "0", "x1"], 3)
        Y = VectorField(["0", "x1*x1", "x2"], 3)
        Z = VectorField(["x3", "x1", "0"], 3)
        total = None
        for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
            term = lie_bracket(A, lie_bracket(B, C))
            total = term if total is None else VectorField(
                [a + b for a, b in zip(total.comps, term.comps)], 3)
        pts = sample_box(3, count=16).points
        vals = np.stack([c.eval_many(pts) for c in total.comps], axis=1)
        assert np.abs(vals).max() < 1e-12


class TestCheckStatistical:
    def test_e7_structure_passes(self):
        g, K, xi, eta = e7_structure()
        st = StatTriple(g, K)
        rep = check_statistical(st, metric_samples(g))
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-9, rec.name

    def test_e7_codazzi_hand_value(self):
        # (nabla_X g)(Y,Z) = -2 eta(X) eta(Y) eta(Z): the expansion at the
        # frame gives exactly -2 on the (z,z,z) slot and 0 elsewhere
        g, K, xi, eta = e7_structure()
        pts = sample_box(7, count=8).points
        gv, dgv = g.at(pts), np.moveaxis(g.partials.at(pts), -1, 1)
        gam = StatTriple(g, K).gammas(pts)[1]
        nabla_g = (dgv
                   - np.einsum("nlij,nlk->nijk", gam, gv)
                   - np.einsum("nlik,njl->nijk", gam, gv))
        ev = eta.at(pts)
        expect = -2.0 * np.einsum("ni,nj,nk->nijk", ev, ev, ev)
        assert np.abs(nabla_g - expect).max() < 1e-15

    def test_k_zero_trivially_statistical(self):
        g = MetricField.euclidean(3)
        st = StatTriple(g, ConnField.flat(3))
        rep = check_statistical(st, metric_samples(g))
        assert rep.passed
        assert all(r.residual == 0.0 for r in rep.records)

    def test_broken_k_symmetry_is_reported(self):
        # K(X,Y) = g(X,e1) g(Y,e2) xi is not symmetric in X,Y
        g = MetricField.euclidean(3)
        zero = Const(0.0)
        coeffs = [[[Const(1.0) if (k == 2 and i == 0 and j == 1) else zero
                    for j in range(3)] for i in range(3)] for k in range(3)]
        st = StatTriple(g, ConnField(3, coeffs))
        rep = check_statistical(st, metric_samples(g))
        assert not rep.passed
        rec = rep.record("difference-tensor-symmetry")
        assert rec.status == "FAIL"
        assert rec.residual == pytest.approx(1.0)

    def test_lambda_scaling_statistical_family(self):
        g, _, xi, eta = e7_structure()
        for lam in (-2.0, -0.5, 0.0, 1.0, 2.0):
            coeffs = [[[Const(lam) * eta.comps[i] * eta.comps[j] * xi.comps[k]
                        for j in range(7)] for i in range(7)] for k in range(7)]
            rep = check_statistical(StatTriple(g, ConnField(7, coeffs)),
                                    metric_samples(g))
            assert rep.passed, lam

    def test_report_is_deterministic(self):
        g, K, _, _ = e7_structure()
        st = StatTriple(g, K)
        a = check_statistical(st, metric_samples(g)).to_dict()
        b = check_statistical(st, metric_samples(g)).to_dict()
        assert a == b


# -- the compiled evaluation plan of a grid ------------------------------------

def _entries():
    """Grid entries that stress the plan: literal and non-literal constants
    (some non-finite), trees that differ only in the sign of a zero, trees
    that leave their domain, and the same text built as separate objects."""
    texts = ["x1", "x2*x3", "sqrt(x1)", "sqrt(-x2)", "1/x3", "exp(x1*710)",
             "sin(x1)+cos(x2)", "1/(x1*0.0)", "1/(x1*-0.0)", "1/2", "1/0",
             "0/0", "sqrt(0-1)", "2", "-0.0", "0.0"]
    built = [Const(0.0), Const(-0.0), Const(1.5),
             Bin("/", Const(1.0), Bin("*", Var(0), Const(0.0))),
             Bin("/", Const(1.0), Bin("*", Var(0), Const(-0.0))),
             Bin("*", Var(1), Const(-0.0)), Un("neg", Bin("*", Var(1), Const(0.0)))]
    return st.sampled_from(texts).map(lambda t: parse(t, 3)) | st.sampled_from(built)


def _nest(flat, shape):
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return tuple(_nest(flat[i * step:(i + 1) * step], shape[1:])
                 for i in range(shape[0]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grid_plan_equals_entrywise_evaluation(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    flat = data.draw(st.lists(_entries(), min_size=size, max_size=size))
    # the same entry object at several positions
    flat = [flat[data.draw(st.integers(0, i))] if data.draw(st.booleans())
            else e for i, e in enumerate(flat)]
    # an entry with non-constant partials somewhere, so the grid and its
    # partials both take the plan path
    flat[data.draw(st.integers(0, size - 1))] = parse("x1*x2", 3)
    grid = Grid(_nest(flat, shape), 3)
    coord = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-50, 50)
    n = data.draw(st.integers(1, 5))
    pts = np.array(data.draw(st.lists(
        st.lists(coord, min_size=3, max_size=3), min_size=n, max_size=n)))
    got = grid.at(pts)
    assert not grid.is_constant
    assert grid.exprs == flat
    want = np.stack([e.eval_many(pts) for e in grid.exprs], -1).reshape(
        (n,) + shape)
    # the partials, derivative axis last, against each entry's own
    # derivatives evaluated one by one
    partials = grid.partials.at(pts)
    want_partials = np.stack([e.diff(k).eval_many(pts) for e in flat
                              for k in range(3)], -1).reshape(
        (n,) + shape + (3,))
    for a, b in ((got, want), (partials, want_partials)):
        assert a.shape == b.shape
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.array_equal(np.signbit(a), np.signbit(b))
        assert np.array_equal(a, b, equal_nan=True)


def test_each_distinct_entry_is_evaluated_once(monkeypatch):
    g = load_spec("sasaki-r7-cr").g
    pts = sample_box(g.dim, count=4).points
    g.partials.at(pts)  # compiles the grid
    entries = [e for plane in g.partials.nested for row in plane for e in row]
    distinct = {str(e) for e in entries if e.max_var >= 0}
    assert 0 < len(distinct) < sum(e.max_var >= 0 for e in entries)
    calls = []
    eval_many = Expr.eval_many

    def counted(self, points):
        calls.append(str(self))
        return eval_many(self, points)

    monkeypatch.setattr(Expr, "eval_many", counted)
    g.partials.at(pts)
    assert sorted(calls) == sorted(distinct)


def test_a_compiled_grid_leaves_no_reference_cycle():
    # a cycle would keep the grid's expression list and trees alive until
    # the cyclic collector ran
    nested = ((parse("x1", 2), parse("1/2", 2)),
              (Const(0.0), parse("x2*x1", 2)))
    gc.collect()
    gc.disable()
    try:
        grid = Grid(nested, 2)
        grid.at(np.ones((3, 2)))
        grid.partials.at(np.ones((3, 2)))
        del grid
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grids_compiled_by_several_threads_at_once():
    # eight threads meet each fresh grid uncompiled; every one must read a
    # whole plan, whichever thread's compile it sees.  A short switch
    # interval lets a thread stop in the middle of a compile.
    pts = sample_box(3, count=5, seed=3).points
    constant = ((("1/2", "0", "-3"), ("1", "2", "0")),) * 20
    varying = ((("x1*x2", "1/2", "0"), ("sin(x3)", "x1", "2")),) * 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for nested in (constant, varying):
            want = Grid(_map_parse(nested), 3)
            want = (want.at(pts), want.partials.at(pts))
            for _ in range(20):
                _read_on_eight_threads(Grid(_map_parse(nested), 3), pts,
                                       want)
    finally:
        sys.setswitchinterval(interval)


def _read_on_eight_threads(grid, pts, want):
    start = threading.Barrier(8)
    got, errors = [], []

    def read():
        try:
            start.wait(timeout=30)
            got.append((grid.at(pts), grid.partials.at(pts)))
        except Exception as e:  # any error fails the test below
            errors.append(e)

    threads = [threading.Thread(target=read) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 8
    for values, partials in got:
        np.testing.assert_array_equal(values, want[0])
        np.testing.assert_array_equal(partials, want[1])


def _map_parse(nested):
    if isinstance(nested, str):
        return parse(nested, 3)
    return tuple(_map_parse(child) for child in nested)


class TestCheckedNamesFirstNonFinite:
    def test_first_failing_point_then_first_entry_in_grid_order(self):
        half, root, inv = parse("1/2", 2), parse("sqrt(x1)", 2), parse("1/x2", 2)
        grid = Grid((half, root, inv, root), 2)
        pts = np.array([[1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DomainError) as err:
            _checked([grid], pts)
        assert err.value.expr is inv
        assert str(err.value) == "non-finite result: 1.0/x2 at domain point [1.0, 0.0]"
        with pytest.raises(DomainError) as err:
            _checked([grid], pts[2:])
        assert err.value.expr is root

    def test_non_finite_constant_entry_is_named(self):
        grid = Grid(((parse("x1", 1), parse("sqrt(x1)", 1)),
                     (parse("1/0", 1), parse("x1", 1))), 1)
        with pytest.raises(DomainError, match=(r"non-finite result: 1\.0/0\.0 "
                                               r"at domain point \[1\.0\]")):
            _checked([grid], np.array([[1.0], [2.0]]))
