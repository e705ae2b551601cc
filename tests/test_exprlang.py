import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactstat.exprlang import (
    Bin, Const, DomainError, ParseError, Un, Var,
    cos, exp, parse, sin, sqrt,
)


def central_diff(e, p, i, h=1e-5):
    lo = list(p)
    hi = list(p)
    lo[i] -= h
    hi[i] += h
    return (e.eval(hi) - e.eval(lo)) / (2 * h)


class TestParse:
    def test_arithmetic(self):
        assert parse("x1*x2 + 3", 2).eval((2, 5)) == 13

    def test_pythagorean_identity(self):
        e = parse("sin(x1)^2 + cos(x1)^2", 1)
        for t in np.linspace(-3, 3, 11):
            assert abs(e.eval((t,)) - 1.0) < 1e-15

    def test_embedding_component(self):
        # third and sixth components of the 5-chart into 7-space used by the
        # built-in fixtures
        assert parse("x3 + x4", 5).eval((0, 0, 1, 2, 0)) == 3
        assert parse("x4 - x3", 5).eval((0, 0, 1, 2, 0)) == 1

    def test_precedence(self):
        assert parse("2+3*4", 1).eval((0,)) == 14
        assert parse("(2+3)*4", 1).eval((0,)) == 20
        assert parse("2-3-4", 1).eval((0,)) == -5
        assert parse("12/3/2", 1).eval((0,)) == 2
        assert parse("-x1/4", 1).eval((2,)) == -0.5

    def test_power_binds_to_base(self):
        # per the grammar, '-' is part of base, so -x1^2 squares the negation
        assert parse("-x1^2", 1).eval((3,)) == 9
        assert parse("-(x1^2)", 1).eval((3,)) == -9

    def test_number_forms(self):
        assert parse("1e-05", 1).eval((0,)) == 1e-05
        assert parse("2.5E2", 1).eval((0,)) == 250.0
        assert parse(".5", 1).eval((0,)) == 0.5

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + ", 1)
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x1 + foo", 2)

    def test_unknown_function_like(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("tan(x1)", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x8", 7)
        with pytest.raises(ParseError, match="x1"):
            parse("x0", 3)

    @pytest.mark.parametrize("source,dim,offset", [
        ("1 + x2\u00b2", 3, 6), ("\u00b2", 1, 0), ("\u0663", 1, 0),
        ("x1\u0663", 3, 2)])
    def test_non_ascii_digit_is_a_parse_error(self, source, dim, offset):
        # a superscript two and an Arabic-Indic three are Unicode digits,
        # which the scanner reads as no part of a number or a name
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(source, dim)
        assert err.value.offset == offset
        assert len(source[:offset].encode()) == offset

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse("x1^2.5", 1)
        with pytest.raises(ParseError):
            parse("x1^x2", 2)


class TestEval:
    def test_constant(self):
        assert parse("7", 3).eval((1, 2, 3)) == 7.0

    def test_variable(self):
        assert parse("x2", 3).eval((1, 4, 9)) == 4.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError) as err:
            parse("1/x1", 1).eval((0.0,))
        assert "x1" in str(err.value)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            parse("sqrt(x1)", 1).eval((-1.0,))

    def test_eval_many_matches_eval(self):
        # one evaluator: eval is eval_many at a batch of one
        e = parse("sin(x1)*x2 + exp(x2/4)^2", 2)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(50, 2))
        many = e.eval_many(pts)
        for k in range(50):
            assert e.eval(pts[k]) == many[k]

    def test_domain_error_names_the_expression(self):
        e = parse("x2 + sqrt(x1)", 2)
        with pytest.raises(DomainError) as err:
            e.eval((-1.0, 0.0))
        assert str(err.value) == f"non-finite result: {e}"
        assert err.value.expr is e


class TestDiff:
    def test_power_rule(self):
        d = parse("x1^2", 1).diff(0)
        assert d.eval((3,)) == 6

    def test_sin(self):
        d = parse("sin(x1)", 1).diff(0)
        for t in np.linspace(-2, 2, 9):
            assert abs(d.eval((t,)) - math.cos(t)) < 1e-15

    def test_embedding_jacobian_entries(self):
        comp3 = parse("x3 + x4", 5)
        comp6 = parse("x4 - x3", 5)
        p = (0.3, -0.7, 0.5, 0.1, -0.2)
        assert comp3.diff(2).eval(p) == 1.0
        assert comp6.diff(2).eval(p) == -1.0

    def test_quotient_rule(self):
        e = parse("x1/x2", 2)
        d = e.diff(1)
        assert abs(d.eval((3, 2)) - (-3 / 4)) < 1e-15

    def test_constant_tree_derivative_folds_to_zero(self):
        e = sin(Const(2.0)) * exp(Const(1.0)) + Const(5.0) / Const(2.0)
        d = e.diff(0)
        assert isinstance(d, Const) and d.value == 0.0

    def test_zero_factor_keeps_a_non_finite_constant(self):
        # (1/0)*0 is NaN, so neither the derivative nor the pull-back of
        # an expression that contains it may come out finite
        e = parse("x1+1/0*0", 1)
        pts = np.array([[0.5], [-2.0]])
        assert not np.isfinite(e.eval_many(pts)).any()
        for derived in (e.diff(0), e.substitute([Var(0)]),
                        e.substitute([parse("2*x1", 1)])):
            assert not np.isfinite(derived.eval_many(pts)).any()
        # finite and non-constant factors are still absorbed
        assert parse("x1", 1) * 0 == Const(0.0)
        assert sin(Const(2.0)) * 0 == Const(0.0)
        assert parse("x1*0+1/0*0", 1).diff(0) != Const(0.0)

    def test_an_overflowing_constant_power_folds_to_inf(self):
        # Python's float ** raises OverflowError where * and / give ±inf;
        # the folded constant is what the unfolded power evaluates to
        for base, n in ((1e200, 2), (-1e200, 2), (-1e200, 3), (2.0, 1099)):
            folded = Const(base) ** n
            with np.errstate(over="ignore"):
                want = Bin("^", Const(base), Const(float(n))).eval_many(
                    np.zeros((1, 0)))[0]
            assert isinstance(folded, Const) and math.isinf(want)
            assert folded.value == want

    @pytest.mark.parametrize("text", ["x1/1e200", "2^1100", "x1*2^1100"])
    def test_derivatives_of_overflowing_constants_fold(self, text):
        e = parse(text, 1)
        d = e.diff(0)
        e.substitute([parse("2*x1", 1)])
        if "^1100" in text:
            # d(2^1100) = 1100 * 2^1099 * 0 is inf * 0: not finite, so the
            # domain policy reports it
            assert not np.isfinite(d.eval_many(np.array([[0.5]]))).any()

    def test_chain_rule_sqrt(self):
        e = sqrt(Var(0) * Var(0) + 1.0)
        d = e.diff(0)
        t = 0.7
        assert abs(d.eval((t,)) - t / math.sqrt(t * t + 1)) < 1e-14


# -- randomized corpus: symbolic derivative against central differences ------

def random_expr(rng, dim, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var(rng.randrange(dim))
        return Const(round(rng.uniform(-3, 3), 3))
    choice = rng.random()
    if choice < 0.55:
        op = rng.choice("+-*")
        return Bin(op, random_expr(rng, dim, depth - 1),
                   random_expr(rng, dim, depth - 1))
    if choice < 0.65:
        # denominators of the form xj^2 + c stay uniformly positive, keeping
        # the finite-difference oracle honest on the whole sample box
        denom = Bin("+", Bin("^", Var(rng.randrange(dim)), Const(2.0)),
                    Const(rng.uniform(2, 4)))
        return Bin("/", random_expr(rng, dim, depth - 1), denom)
    if choice < 0.75:
        # damp the base so nested powers stay O(1) on the box and the
        # finite-difference truncation error stays far below tolerance
        base = Bin("*", random_expr(rng, dim, depth - 1), Const(0.35))
        return Bin("^", base, Const(float(rng.randrange(2, 4))))
    op = rng.choice(["neg", "sin", "cos", "exp"])
    arg = random_expr(rng, dim, depth - 1)
    if op in ("exp", "sin", "cos"):
        arg = Bin("*", arg, Const(0.25))
    return Un(op, arg)


def corpus(n_exprs, seed=20240917):
    rng = random.Random(seed)
    out = []
    for _ in range(n_exprs):
        dim = rng.randrange(1, 8)
        out.append((random_expr(rng, dim, rng.randrange(1, 7)), dim, rng))
    return out


def test_derivative_against_finite_differences():
    rng = random.Random(11)
    checked = 0
    for k in range(520):
        dim = rng.randrange(1, 8)
        e = random_expr(rng, dim, rng.randrange(1, 7))
        diffs = [e.diff(i) for i in range(dim)]
        pts = [[rng.uniform(-0.9, 0.9) for _ in range(dim)] for _ in range(10)]
        for p in pts:
            try:
                vals = [d.eval(p) for d in diffs]
                fds = [central_diff(e, p, i) for i in range(dim)]
            except DomainError:
                continue
            for v, f in zip(vals, fds):
                if not (math.isfinite(v) and math.isfinite(f)):
                    continue
                assert abs(v - f) <= 1e-6 * (1.0 + abs(v)), (str(e), p)
                checked += 1
    assert checked > 5000


def test_print_parse_round_trip_bit_identical():
    rng = random.Random(7)
    for k in range(200):
        dim = rng.randrange(1, 8)
        e = random_expr(rng, dim, rng.randrange(1, 7))
        back = parse(str(e), dim)
        pts = np.random.default_rng(1000 + k).uniform(-0.9, 0.9, size=(100, dim))
        a = e.eval_many(pts)
        b = back.eval_many(pts)
        ok = np.isfinite(a)
        assert np.array_equal(a[ok], b[ok])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_round_trip_property(seed, dim):
    rng = random.Random(seed)
    e = random_expr(rng, dim, rng.randrange(0, 6))
    back = parse(str(e), dim)
    p = [random.Random(seed + 1).uniform(-0.9, 0.9) for _ in range(dim)]
    try:
        a = e.eval(p)
    except DomainError:
        return
    assert back.eval(p) == a


def test_substitute_composes_charts():
    # gamma: (u, v) -> (u + v, u * v); f(y1, y2) = y1^2 + y2
    f = parse("x1^2 + x2", 2)
    gamma = [parse("x1 + x2", 2), parse("x1*x2", 2)]
    composed = f.substitute(gamma)
    u, v = 0.3, -1.2
    assert abs(composed.eval((u, v)) - ((u + v) ** 2 + u * v)) < 1e-15
    # derivative of the composition agrees with the chain rule
    d = composed.diff(0)
    chain = 2 * (u + v) * 1.0 + v
    assert abs(d.eval((u, v)) - chain) < 1e-14


def test_immutability():
    e = parse("x1 + 1", 1)
    with pytest.raises(AttributeError):
        e.lhs = Const(0.0)


# -- one evaluator, one domain policy ----------------------------------------

def _trees(dim):
    leaves = st.one_of(
        st.builds(Var, st.integers(0, dim - 1)),
        st.builds(Const, st.sampled_from([0.0, 1.0, -2.5, 3.0, 710.0])))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(lambda a, n: Bin("^", a, Const(float(n))), sub,
                  st.integers(0, 4)),
        st.builds(Un, st.sampled_from(["neg", "sin", "cos", "exp", "sqrt"]),
                  sub)), max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eval_is_eval_many_at_one_point(data):
    # trees leave their domain freely: sqrt of negatives, division by zero,
    # exp overflow; eval raises exactly where the batch holds a non-finite
    # value, and otherwise returns that value to the bit
    dim = data.draw(st.integers(1, 3))
    e = data.draw(_trees(dim))
    coord = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-50, 50)
    p = data.draw(st.lists(coord, min_size=dim, max_size=dim))
    v = e.eval_many(np.array([p]))[0]
    if np.isfinite(v):
        assert struct.pack("d", e.eval(p)) == struct.pack("d", v)
    else:
        with pytest.raises(DomainError):
            e.eval(p)
