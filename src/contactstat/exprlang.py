"""Small closed expression language over chart coordinates.

Every tensor field in this package is a grid of these expressions in the
variables ``x1 .. xdim`` (1-based in source text, 0-based internally).  The
grammar is deliberately closed -- no user-defined functions -- so symbolic
differentiation is total and the finite-difference cross-check in the test
suite remains an independent oracle.

Grammar (bit-exact)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | '-' base | func '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'sqrt'
    ident  := 'x' positive-integer

Numbers are decimal literals with optional fraction and exponent.  The
``^`` exponent must be an unsigned integer literal, which keeps the power
rule closed over the grammar.

There is one evaluator, ``eval_many``: elementwise numpy over a batch of
points, and one domain policy: a non-finite value means the point lies
outside the expression's domain.  ``eval`` is ``eval_many`` at a batch of
one and raises ``DomainError`` naming the expression; ``Grid.at``, which
reads every field of the engine, raises the same error for a batch and
also names its first failing point.
"""

import math

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Bin", "Un",
    "ExprError", "ParseError", "DomainError",
    "parse", "sin", "cos", "exp", "sqrt",
]

_FUNCS = ("sin", "cos", "exp", "sqrt")
# the scanner reads ASCII alone: str.isdigit and str.isalpha take any
# Unicode digit or letter, which int() and float() may then refuse
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | _DIGITS | {"_"}


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax or identifier error, with the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the domain; carries the offending expression and,
    when a batched evaluation raised it, the first failing point, in the
    chart of the field that was read."""

    def __init__(self, message, expr, point=None):
        where = ("" if point is None
                 else f" at point {np.asarray(point).tolist()}")
        super().__init__(f"{message}: {expr}{where}")
        self.message = message
        self.expr = expr
        self.point = point


class Expr:
    """Immutable expression node.  Shareable across threads; eval is pure."""

    __slots__ = ()

    # -- construction sugar (folds trivial identities, never changes meaning)

    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ExprError("exponent must be an integer constant")
        return _pow(self, n)

    def __neg__(self):
        return _neg(self)

    # -- queries

    @property
    def max_var(self):
        """Largest 0-based variable index used, or -1 for a constant tree."""
        raise NotImplementedError

    def const_value(self):
        """Float value if this node is a literal constant, else None."""
        return None

    def eval(self, point):
        """Evaluate at one coordinate point (sequence of reals): eval_many
        at a batch of one, where a non-finite value is a DomainError."""
        v = float(self.eval_many(np.asarray(point, dtype=float)[None])[0])
        if not math.isfinite(v):
            raise DomainError("non-finite result", self)
        return v

    def eval_many(self, points):
        """Vectorised evaluation over an (N, dim) array.  A value outside
        the domain comes out non-finite and is left in place: `Grid.at`
        raises for the batch (see the module docstring)."""
        pts = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            out = self._eval_many(pts)
        return np.broadcast_to(out, (pts.shape[0],)).astype(float, copy=False)

    def diff(self, index):
        """Exact partial derivative with respect to variable `index`."""
        raise NotImplementedError

    def substitute(self, replacements):
        """Replace variable i by replacements[i]; composition of charts."""
        raise NotImplementedError

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __str__(self):
        return self._fmt()[0]

    def __repr__(self):
        return f"<expr {self}>"

    # precedence levels: 1 additive, 2 multiplicative, 3 power/unary, 4 atom
    def _fmt(self):
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    @property
    def max_var(self):
        return -1

    def const_value(self):
        return self.value

    def _eval_many(self, pts):
        return np.full(pts.shape[0], self.value)

    def diff(self, index):
        return Const(0.0)

    def substitute(self, replacements):
        return self

    def _fmt(self):
        if self.value < 0:
            return f"-{repr(-self.value)}", 3
        return repr(self.value), 4

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self):
        return hash(("c", self.value))


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index):
        if index < 0:
            raise ExprError("variable index must be non-negative")
        object.__setattr__(self, "index", int(index))

    @property
    def max_var(self):
        return self.index

    def _eval_many(self, pts):
        return pts[:, self.index]

    def diff(self, index):
        return Const(1.0 if index == self.index else 0.0)

    def substitute(self, replacements):
        return replacements[self.index]

    def _fmt(self):
        return f"x{self.index + 1}", 4

    def __eq__(self, other):
        return isinstance(other, Var) and self.index == other.index

    def __hash__(self):
        return hash(("v", self.index))


class Bin(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def max_var(self):
        return max(self.lhs.max_var, self.rhs.max_var)

    def _eval_many(self, pts):
        a = self.lhs._eval_many(pts)
        if self.op == "^":
            return a ** int(self.rhs.value)
        b = self.rhs._eval_many(pts)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def diff(self, index):
        a, b = self.lhs, self.rhs
        da = a.diff(index)
        if self.op == "^":
            n = int(b.value)
            if n == 0:
                return Const(0.0)
            return _mul(_mul(Const(float(n)), _pow(a, n - 1)), da)
        db = b.diff(index)
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if db.const_value() == 0.0:
            # d(a/b) = a'/b along a coordinate b does not depend on; b^2
            # could overflow where the quotient is finite
            return _div(da, b)
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, 2))

    def substitute(self, replacements):
        if self.op == "^":
            return _pow(self.lhs.substitute(replacements), int(self.rhs.value))
        return _mk_bin(self.op, self.lhs.substitute(replacements),
                       self.rhs.substitute(replacements))

    def _fmt(self):
        if self.op in "+-":
            level = 1
        elif self.op in "*/":
            level = 2
        else:
            level = 3
        ls, ll = self.lhs._fmt()
        rs, rl = self.rhs._fmt()
        if ll < level or (self.op == "^" and ll < 4):
            ls = f"({ls})"
        # parenthesise equal-level right operands: floating-point + and * are
        # not associative, and reparsing must reproduce the exact tree shape
        if rl <= level:
            rs = f"({rs})"
        if self.op == "^":
            rs = str(int(self.rhs.value))
        return f"{ls}{self.op}{rs}", level

    def __eq__(self, other):
        return (isinstance(other, Bin) and self.op == other.op
                and self.lhs == other.lhs and self.rhs == other.rhs)

    def __hash__(self):
        return hash((self.op, self.lhs, self.rhs))


class Un(Expr):
    __slots__ = ("op", "arg")

    def __init__(self, op, arg):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "arg", arg)

    @property
    def max_var(self):
        return self.arg.max_var

    def _eval_many(self, pts):
        v = self.arg._eval_many(pts)
        if self.op == "neg":
            return -v
        if self.op == "sin":
            return np.sin(v)
        if self.op == "cos":
            return np.cos(v)
        if self.op == "exp":
            return np.exp(v)
        return np.sqrt(v)

    def diff(self, index):
        da = self.arg.diff(index)
        if self.op == "neg":
            return _neg(da)
        if self.op == "sin":
            return _mul(Un("cos", self.arg), da)
        if self.op == "cos":
            return _neg(_mul(Un("sin", self.arg), da))
        if self.op == "exp":
            return _mul(self, da)
        return _div(da, _mul(Const(2.0), self))

    def substitute(self, replacements):
        inner = self.arg.substitute(replacements)
        if self.op == "neg":
            return _neg(inner)
        return Un(self.op, inner)

    def _fmt(self):
        s, level = self.arg._fmt()
        if self.op == "neg":
            # "-x^n" reparses as (-x)^n under this grammar, so a power (the
            # only level-3 Bin) must keep its parentheses under negation
            if level < 3 or (level == 3 and isinstance(self.arg, Bin)):
                s = f"({s})"
            return f"-{s}", 3
        return f"{self.op}({s})", 4

    def __eq__(self, other):
        return isinstance(other, Un) and self.op == other.op and self.arg == other.arg

    def __hash__(self):
        return hash((self.op, self.arg))


# ---------------------------------------------------------------------------
# smart constructors: constant folding and 0/1 absorption only


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise ExprError(f"cannot coerce {type(v).__name__} to Expr")


def _mk_bin(op, a, b):
    if op == "+":
        return _add(a, b)
    if op == "-":
        return _sub(a, b)
    if op == "*":
        return _mul(a, b)
    return _div(a, b)


def _add(a, b):
    ca, cb = a.const_value(), b.const_value()
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Bin("+", a, b)


def _sub(a, b):
    ca, cb = a.const_value(), b.const_value()
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return _neg(b)
    return Bin("-", a, b)


def _absorbable(e):
    """Whether a literal zero factor may absorb `e`: a non-constant tree,
    or a constant one whose value is finite.  A non-finite constant such
    as 1/0 is kept, so that a derivative or a pull-back is not finite where
    the expression it comes from is not."""
    return (e.max_var >= 0
            or math.isfinite(e.eval_many(np.zeros((1, 0)))[0]))


def _mul(a, b):
    ca, cb = a.const_value(), b.const_value()
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if (ca == 0.0 and _absorbable(b)) or (cb == 0.0 and _absorbable(a)):
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    if ca == -1.0:
        return _neg(b)
    if cb == -1.0:
        return _neg(a)
    return Bin("*", a, b)


def _div(a, b):
    ca, cb = a.const_value(), b.const_value()
    if cb == 0.0:
        # left unfolded: the quotient's value is non-finite, and the domain
        # policy reports it like any other
        return Bin("/", a, b)
    if ca is not None and cb is not None:
        return Const(ca / cb)
    if ca == 0.0:
        return Const(0.0)
    if cb == 1.0:
        return a
    return Bin("/", a, b)


def _pow(a, n):
    n = int(n)
    if n == 0:
        return Const(1.0)
    if n == 1:
        return a
    ca = a.const_value()
    if ca is not None:
        try:
            return Const(ca ** n)
        except OverflowError:
            # float ** raises where float * and / give ±inf; fold to the
            # same ±inf, so that the domain policy reports it
            return Const(math.copysign(math.inf, ca) if n % 2 else math.inf)
    return Bin("^", a, Const(float(n)))


def _neg(a):
    ca = a.const_value()
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Un) and a.op == "neg":
        return a.arg
    return Un("neg", a)


def sin(e):
    return Un("sin", _coerce(e))


def cos(e):
    return Un("cos", _coerce(e))


def exp(e):
    return Un("exp", _coerce(e))


def sqrt(e):
    return Un("sqrt", _coerce(e))


# ---------------------------------------------------------------------------
# parser


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n
                            and source[i + 1] in _DIGITS):
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            tokens.append(_Token("number", source[i:j], i))
            i = j
            continue
        if c in _NAME_START:
            j = i
            while j < n and source[j] in _NAME_CHARS:
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source, dim):
        self.source = source
        self.dim = dim
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.offset)
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            e = Bin(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek().kind in "*/":
            op = self.advance().kind
            e = Bin(op, e, self.factor())
        return e

    def factor(self):
        e = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("number")
            if not tok.text.isdigit():
                raise ParseError("exponent must be an unsigned integer", tok.offset)
            e = Bin("^", e, Const(float(int(tok.text))))
        return e

    def base(self):
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "-":
            return Un("neg", self.base())
        if tok.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "name":
            if tok.text in _FUNCS:
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return Un(tok.text, e)
            if tok.text[0] == "x" and tok.text[1:].isdigit():
                idx = int(tok.text[1:])
                if idx < 1:
                    raise ParseError("variable numbering starts at x1", tok.offset)
                if idx > self.dim:
                    raise ParseError(
                        f"variable x{idx} out of range for dimension {self.dim}",
                        tok.offset)
                return Var(idx - 1)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse(source, dim):
    """Parse `source` into an Expr whose variables lie in x1..x<dim>."""
    if dim < 1:
        raise ExprError("dimension must be at least 1")
    return _Parser(source, dim).parse()
