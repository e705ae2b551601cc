"""Chart-level Riemannian and affine-connection machinery.

Every field is a `Grid`: a nested tuple of expressions over one chart.
Metrics, vector fields, connection coefficients and embeddings are its
subclasses, and a field and its partials are read one way, `field.at` and
`field.partials.at`, with the derivative axis last.  A grid is compiled once
into an evaluation plan: most entries of these tensors are literal zeros, so
the constant entries fill a template row at compile time, and a batch of
points costs one evaluation per distinct non-constant entry.  Connection
coefficients are stored Christoffel-style: gamma[k][i][j] with k the output
component, i the differentiation direction and j the argument slot.

A statistical structure is stored as the metric and its symbolic
difference tensor K.  The Levi-Civita symbols are evaluated numerically
(Koszul formula, numeric inverse), once per point batch, and both
connections, ∇ = ∇̂ + K and its dual ∇* = ∇̂ − K, are read from that one
evaluation and one of K, on every metric.  A constant metric has ∇̂ = 0, a
broadcast zero, and is inverted only once, to check that it is invertible.

The connection batch (Γ̂, Γ, Γ*) of an ambient sample set is built once per
set, or per block of a set that is checked in blocks, and the ambient and
contact checks that read it share it: `StatTriple.connections` and, for Γ̂
alone, `MetricField.christoffel` keep it in the set's own memo
(`_built_once`, which the domain contexts use too), so it goes when the set
does.
"""

import numpy as np

from .exprlang import Const, DomainError, Expr, parse
from .report import Residuals
from .sampling import DEFAULT_BOX, DEFAULT_COUNT, DEFAULT_SEED, sample_box

__all__ = [
    "GeometryError", "SingularMetricError", "INPUT_ERRORS",
    "Grid", "MetricField", "VectorField", "ConnField",
    "StatTriple", "levi_civita", "lie_bracket", "check_statistical",
    "metric_samples",
]

DET_FLOOR = 1e-12


class GeometryError(Exception):
    pass


class SingularMetricError(GeometryError):
    def __init__(self, point):
        super().__init__(f"metric is singular near point {np.asarray(point).tolist()}")
        self.point = np.asarray(point)


# the errors that mean a check cannot be evaluated on its input; each
# becomes that check's failed engine-precondition record
INPUT_ERRORS = (GeometryError, DomainError, np.linalg.LinAlgError)


def _built_once(owner, samples, build):
    """build(samples), attempted once per sample set and `owner`: the
    result, or the input error that stopped it, is kept in the set's memo
    under `owner` and lives as long as the set.  A set is read on one
    thread; each block of a set checked in blocks is a set of its own."""
    memo = samples._built
    if owner not in memo:
        try:
            memo[owner] = build(samples)
        except INPUT_ERRORS as e:
            memo[owner] = e
    if isinstance(memo[owner], Exception):
        raise memo[owner]
    return memo[owner]


def _coerce_expr(e, dim):
    if isinstance(e, Expr):
        expr = e
    elif isinstance(e, str):
        expr = parse(e, dim)
    elif isinstance(e, (int, float)):
        expr = Const(e)
    else:
        raise GeometryError(f"cannot interpret {e!r} as an expression")
    if expr.max_var >= dim:
        raise GeometryError(
            f"expression {expr} uses x{expr.max_var + 1} beyond dimension {dim}")
    return expr


def _flatten(node, out):
    """Append the expressions of a nested tuple grid to `out` in position
    order and return the grid's shape."""
    if isinstance(node, Expr):
        out.append(node)
        return ()
    sub = ()
    for child in node:
        sub = _flatten(child, out)
    return (len(node),) + sub


def _map(fn, node):
    """The nested tuple grid `node` with each expression e replaced by
    fn(e)."""
    if isinstance(node, Expr):
        return fn(node)
    return tuple(_map(fn, child) for child in node)


class Grid:
    """A nested tuple grid of expressions, compiled on first use into an
    evaluation plan for batches of points.

    `exprs` keeps the entries in position order.  A grid without coordinate
    dependence is evaluated once and broadcast as a read-only view.  For any
    other grid the plan is
    - a template row of the constant entries: a literal's value, or a
      constant tree such as ``1/2`` evaluated once at one point, so a
      non-finite constant stays non-finite for the caller to report;
    - a scatter list pairing each distinct non-constant entry with the
      positions it fills.  Entries are the same when their text is: the
      text tells ``0.0`` from ``-0.0`` and keeps every parenthesis, so
      entries with the same text give the same value bit for bit.
    `at` fills a fresh batch from the template and evaluates each distinct
    entry once.  `partials` is the grid of partial derivatives in the `dim`
    chart coordinates, with the derivative axis last."""

    def __init__(self, nested, dim):
        self.nested = nested
        self.dim = dim
        self.exprs = None
        self._partials = None

    def _compile(self):
        # the plan is built in locals and published with `exprs` last, so
        # a thread that finds `exprs` set reads a whole plan; a second
        # thread compiling at the same time publishes an equal one
        exprs = []
        shape = _flatten(self.nested, exprs)
        vals = [e.const_value() for e in exprs]
        const = template = scatter = None
        if all(e.max_var < 0 for e in exprs):
            const = np.array([e.eval(()) if v is None else v
                              for e, v in zip(exprs, vals)]).reshape(shape)
        else:
            template = np.zeros(len(exprs))
            groups = {}
            for col, (e, v) in enumerate(zip(exprs, vals)):
                if v is not None:
                    template[col] = v
                elif e.max_var < 0:
                    template[col] = e.eval_many(np.zeros((1, 0)))[0]
                else:
                    groups.setdefault(str(e), (e, []))[1].append(col)
            scatter = [(e, np.array(cols)) for e, cols in groups.values()]
        self.shape, self.const = shape, const
        self.template, self.scatter = template, scatter
        # set last: a constant entry that raises DomainError leaves the grid
        # uncompiled, so each later use raises it again
        self.exprs = exprs

    @property
    def is_constant(self):
        if self.exprs is None:
            self._compile()
        return self.const is not None

    @property
    def partials(self):
        """The grid [..., k] = d_k of each entry, built on first use."""
        # threads that race here may each build a grid; every copy is
        # correct, and the last one assigned is kept
        if self._partials is None:
            self._partials = Grid(_map(
                lambda e: tuple(e.diff(k) for k in range(self.dim)),
                self.nested), self.dim)
        return self._partials

    def at(self, points):
        """Values at an (N, dim) batch; the sample axis comes first."""
        pts = np.asarray(points, dtype=float)
        try:
            constant = self.is_constant
        except DomainError as e:
            # only a constant entry fails to compile, and it fails at every
            # point, so the batch's first point is where it fails
            raise DomainError(e.message, e.expr, pts[0]) from None
        if constant:
            return np.broadcast_to(self.const, (pts.shape[0],) + self.shape)
        vals = np.empty((pts.shape[0], len(self.exprs)))
        vals[:] = self.template
        for e, cols in self.scatter:
            vals[:, cols] = e.eval_many(pts)[:, None]
        return vals.reshape((pts.shape[0],) + self.shape)


class MetricField(Grid):
    """Symmetric positive-definite metric as expressions g_ij."""

    def __init__(self, dim, upper):
        """`upper` maps (i, j) with 0 <= i <= j < dim to an entry; missing
        entries are zero.  Symmetry holds by construction."""
        grid = [[Const(0.0)] * dim for _ in range(dim)]
        for (i, j), e in upper.items():
            if not (0 <= i <= j < dim):
                raise GeometryError(f"metric entry ({i},{j}) outside upper triangle")
            expr = _coerce_expr(e, dim)
            grid[i][j] = expr
            grid[j][i] = expr
        self.entries = tuple(tuple(row) for row in grid)
        super().__init__(self.entries, dim)

    @classmethod
    def euclidean(cls, dim):
        return cls(dim, {(i, i): Const(1.0) for i in range(dim)})

    @classmethod
    def constant(cls, matrix):
        mat = np.asarray(matrix, dtype=float)
        dim = len(mat)
        return cls(dim, {(i, j): Const(mat[i, j])
                         for i in range(dim) for j in range(i, dim)})

    def inverse_at(self, points):
        g = self.at(points)
        det = np.linalg.det(g)
        bad = np.abs(det) < DET_FLOOR
        if bad.any():
            raise SingularMetricError(np.asarray(points)[bad][0])
        return np.linalg.inv(g)

    def christoffel(self, samples):
        """The Levi-Civita symbols at a sample set's points, built once for
        the set."""
        return _built_once(self, samples,
                           lambda s: levi_civita(self, s.points))

    def min_eigenvalue_at(self, points):
        """The smallest eigenvalue at each point; NaN where an entry is not
        finite, so that no sampler accepts the point."""
        g = self.at(points)
        finite = np.isfinite(g).all(axis=(1, 2))
        out = np.full(len(g), np.nan)
        out[finite] = np.linalg.eigvalsh(g[finite])[:, 0]
        return out


class VectorField(Grid):
    """A vector field, or a one-form: one expression per component."""

    def __init__(self, comps, dim=None):
        comps = list(comps)
        dim = dim or len(comps)
        self.comps = tuple(_coerce_expr(c, dim) for c in comps)
        if len(self.comps) != dim:
            raise GeometryError("component count must equal the chart dimension")
        super().__init__(self.comps, dim)

    @classmethod
    def coordinate(cls, dim, index):
        return cls([Const(1.0 if k == index else 0.0) for k in range(dim)], dim)


class ConnField(Grid):
    """Symbolic coefficient grid of a connection, or of a (1,2)-tensor such
    as the difference tensor K, indexed [k][i][j]."""

    def __init__(self, dim, coeffs):
        self.coeffs = tuple(
            tuple(tuple(_coerce_expr(coeffs[k][i][j], dim)
                        for j in range(dim))
                  for i in range(dim))
            for k in range(dim))
        super().__init__(self.coeffs, dim)

    @classmethod
    def flat(cls, dim):
        zero = Const(0.0)
        return cls(dim, [[[zero] * dim for _ in range(dim)] for _ in range(dim)])

    def gamma_at(self, points):
        """gamma[n, k, i, j] at each sample."""
        return self.at(np.atleast_2d(np.asarray(points, dtype=float)))


def levi_civita(g, points):
    """Christoffel symbols of the metric at each point, [n, k, i, j]:
    gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), with a numeric
    inverse (determinant floor 1e-12).  A constant metric has vanishing
    symbols and is not inverted."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = g.dim
    if g.is_constant:
        return np.broadcast_to(0.0, (pts.shape[0], d, d, d))
    ginv = g.inverse_at(pts)
    dg = np.moveaxis(g.partials.at(pts), -1, 1)  # [n, k, i, j] = d_k g_ij
    d_j_gil = np.transpose(dg, (0, 2, 1, 3))  # indexed [n, i, j, l]
    d_l_gij = np.transpose(dg, (0, 2, 3, 1))
    lower = 0.5 * (dg + d_j_gil - d_l_gij)
    return np.einsum("nkl,nijl->nkij", ginv, lower)


def lie_bracket(X, Y):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    d = X.dim
    comps = []
    for k in range(d):
        acc = Const(0.0)
        for i in range(d):
            acc = acc + X.comps[i] * Y.comps[k].diff(i)
            acc = acc - Y.comps[i] * X.comps[k].diff(i)
        comps.append(acc)
    return VectorField(comps, d)


class StatTriple:
    """A statistical structure over one chart, stored as the metric g and
    the symbolic difference tensor K: the connection is ∇ = ∇̂ + K and its
    metric dual is ∇* = ∇̂ − K, with ∇̂ the Levi-Civita connection of g."""

    def __init__(self, g, K):
        if g.dim != K.dim:
            raise GeometryError(
                "dimension mismatch between metric and difference tensor")
        self.g = g
        self.K = K
        if g.is_constant:
            g.inverse_at(np.zeros((1, g.dim)))  # invertibility, reported early

    @property
    def is_constant(self):
        """Whether g and K, and so both connections, are the same at every
        point."""
        return self.g.is_constant and self.K.is_constant

    def dual(self):
        """The dual structure (g, ∇*), whose difference tensor is -K, built
        when it is asked for."""
        return StatTriple(self.g, ConnField(self.g.dim, [
            [[-e for e in row] for row in plane] for plane in self.K.coeffs]))

    def gammas(self, points):
        """(Γ̂, Γ, Γ*) = (Γ̂, Γ̂ + K, Γ̂ − K) at each point, each [n, k, i, j],
        from one evaluation of K and one of the Levi-Civita symbols.  A
        constant metric's Γ̂ is a broadcast zero."""
        return _dual_pair(self.K.gamma_at(points),
                          levi_civita(self.g, points))

    def connections(self, samples):
        """gammas at a sample set's points, built once for the set, with
        the metric's own Γ̂ of the set.  An input error that stops the build
        is raised again to every caller of the set."""
        return _built_once(self, samples, lambda s: _dual_pair(
            self.K.gamma_at(s.points), self.g.christoffel(s)))


def _dual_pair(k, lc):
    """(Γ̂, Γ̂ + K, Γ̂ − K).  Callers evaluate K before Γ̂, so where both fail,
    check_statistical names K and check_sasakian (Γ̂ alone) the metric."""
    return lc, lc + k, lc - k


def metric_samples(g, count=DEFAULT_COUNT, seed=DEFAULT_SEED, box=DEFAULT_BOX):
    """Seeded samples on which the metric is positive definite; failures are
    resampled at most ten times, then reported."""
    return sample_box(g.dim, count, seed, box,
                      accept=lambda pts: g.min_eigenvalue_at(pts) > 0.0)


def check_statistical(st, samples, tol=1e-8):
    """Residual records for the statistical-manifold axioms.

    (a) vanishing torsion of nabla and its dual; (b) total symmetry of the
    metric's covariant derivative, checked by direct expansion
    (nabla_X g)(Y,Z) = X g(Y,Z) - g(nabla_X Y, Z) - g(Y, nabla_X Z) over the
    coordinate frame; (c) the dual pairing of the two connections; (d)
    symmetry and metric self-adjointness of the difference tensor K.
    """
    g = st.g
    pts = samples.points
    res = Residuals("statistical", {"samples": samples.count, "dim": g.dim}, {
        "metric-positive-definite": "g > 0 (smallest eigenvalue)",
        "torsion": "Γ^k_ij = Γ^k_ji",
        "torsion-dual": "Γ*^k_ij = Γ*^k_ji",
        "codazzi": "(∇_X g)(Y,Z) = (∇_Y g)(X,Z)",
        "duality": "X g(Y,Z) = g(∇_X Y, Z) + g(Y, ∇*_X Z)",
        "difference-tensor-symmetry": "K(X,Y) = K(Y,X)",
        "difference-tensor-self-adjoint": "g(K_X Y, Z) = g(Y, K_X Z)",
    })

    gv = g.at(pts)
    dgv = np.moveaxis(g.partials.at(pts), -1, 1)  # [n, k, i, j] = d_k g_ij
    min_eig = np.linalg.eigvalsh(gv)[:, 0]
    res.add("metric-positive-definite", np.maximum(0.0, -min_eig),
            scale=float(np.abs(gv).max()))

    lc, gam, gam_star = st.connections(samples)
    add = res.adder(float(max(np.abs(gam).max(), np.abs(gam_star).max(),
                              np.abs(gv).max(), 1.0)))

    add("torsion", gam - np.transpose(gam, (0, 1, 3, 2)))
    add("torsion-dual", gam_star - np.transpose(gam_star, (0, 1, 3, 2)))

    # d_i g_jk - gamma^l_ij g_lk, the part that the duality residual and
    # (nabla_i g)(j, k) = d_i g_jk - gamma^l_ij g_lk - gamma^l_ik g_jl share
    nabla_g = dgv - np.einsum("nlij,nlk->nijk", gam, gv)
    add("duality", nabla_g - np.einsum("nlik,njl->nijk", gam_star, gv))
    nabla_g -= np.einsum("nlik,njl->nijk", gam, gv)
    add("codazzi", nabla_g - np.transpose(nabla_g, (0, 2, 1, 3)))
    del nabla_g  # the batches below are as large; keep one alive at a time

    kt = gam - lc
    add("difference-tensor-symmetry", kt - np.transpose(kt, (0, 1, 3, 2)))
    add("difference-tensor-self-adjoint", np.einsum("nlij,nlk->nijk", kt, gv)
        - np.einsum("nlik,njl->nijk", kt, gv))
    return res.report(tol)
