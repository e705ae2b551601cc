import gc
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BENT_EMBEDDINGS, BENT_SPECS, EDGE_SPECS, cr5_structure,
                      cr5_submanifold, e7_structure, e7_submanifold,
                      map_geometry, one_point, sasaki_r3)
from contactstat import cli
from contactstat.contactstruct import lambda_family
from contactstat.crchecks import (CRStructure, check_contact_cr,
                                  check_cr_product,
                                  check_dual_shape_identities,
                                  check_integrability_D,
                                  check_integrability_Dperp,
                                  check_mixed_geodesic_consequences,
                                  classify_geodesic, mixed_geodesic_verdict)
from contactstat.exprlang import Const, DomainError
from contactstat.fixtures import fixture_doc, fixture_names
from contactstat.geometry import (ConnField, GeometryError, MetricField,
                                  StatTriple, VectorField, check_statistical,
                                  lie_bracket, metric_samples)
from contactstat.jets import Jet, _tr, jconst, jmatvec, jscale, jvecdot
from contactstat.sampling import Samples, sample_box
from contactstat.specfile import from_doc
from contactstat.submanifold import (GS_THRESHOLD, Embedding, GWData,
                                     MapGeometry, RankDropError, _Split,
                                     _jrecip_sqrt, _uniform, along,
                                     check_gauss_weingarten,
                                     check_structure_identities,
                                     check_transport_identities,
                                     induced_metric, split, tfbc)


def flat_over(g):
    """The metric g with the flat connection."""
    return StatTriple(g, ConnField.flat(g.dim))


def flat_statistical(dim):
    return flat_over(MetricField.euclidean(dim))


def circle():
    return Embedding(["cos(x1)", "sin(x1)"], 1)


class TestInducedMetric:
    def test_e7_frame_lengths(self):
        emb, _, _ = e7_submanifold()
        gind = induced_metric(emb, MetricField.euclidean(7))
        pts = sample_box(5, count=8).points
        vals = gind.at(pts)
        expect = np.diag([1.0, 1.0, 2.0, 2.0, 1.0])
        assert np.abs(vals - expect).max() == 0.0

    def test_identity_embedding(self):
        g, _ = sasaki_r3()
        emb = Embedding(["x1", "x2", "x3"], 3)
        gind = induced_metric(emb, g)
        pts = sample_box(3, count=16).points
        assert np.abs(gind.at(pts) - g.at(pts)).max() < 1e-15

    def test_unit_circle(self):
        gind = induced_metric(circle(), MetricField.euclidean(2))
        pts = sample_box(1, count=16, box=(-3.0, 3.0)).points
        assert np.abs(gind.at(pts) - 1.0).max() < 1e-15


class TestFramePointAndSplit:
    def test_tangent_vector_has_no_normal_coeffs(self):
        emb, _, _ = e7_submanifold()
        g = MetricField.euclidean(7)
        fp = one_point(MapGeometry(emb, flat_over(g)), np.zeros(5))
        v = fp.J.val[0] @ np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        a, b = split(fp, v[None])
        assert np.abs(b[0]).max() < 1e-12
        assert np.allclose(a[0], [1.0, -2.0, 0.5, 0.0, 3.0])

    def test_phi_of_e3_is_wholly_normal(self):
        emb, _, _ = e7_submanifold()
        g, acs = __import__("conftest").euclid_r7()
        fp = one_point(MapGeometry(emb, flat_over(g)), np.zeros(5))
        e3 = fp.J.val[0, :, 2]
        phie3 = acs.phi.at(np.zeros((1, 7)))[0] @ e3
        a, b = split(fp, phie3[None])
        assert np.abs(a[0]).max() < 1e-12
        assert np.abs(b[0]).max() > 0.5

    def test_round_trip_of_mixed_vector(self):
        emb, _, _ = e7_submanifold()
        g = MetricField.euclidean(7)
        fp = one_point(MapGeometry(emb, flat_over(g)),
                       np.array([0.2, -0.4, 0.1, 0.7, -0.3]))
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=5)
        b0 = rng.normal(size=2)
        v = fp.J.val[0] @ a0 + fp.normal[0] @ b0
        a, b = split(fp, v[None])
        assert np.allclose(a[0], a0, atol=1e-12)
        assert np.allclose(b[0], b0, atol=1e-12)

    def test_rank_drop_is_reported(self):
        emb = Embedding(["x1*x1", "x1*x1"], 1)
        g = MetricField.euclidean(2)
        with pytest.raises(RankDropError):
            one_point(MapGeometry(emb, flat_over(g)), np.zeros(1))

    def test_normal_frame_is_g_orthonormal(self):
        g, _ = __import__("conftest").sasaki_r5()
        emb, _, _ = cr5_submanifold()
        fp = one_point(MapGeometry(emb, flat_over(g)),
                       np.array([0.3, -0.2, 0.5, 0.9]))
        normal = fp.normal[0]
        gram = normal.T @ fp.G.val[0] @ normal
        assert np.abs(gram - np.eye(normal.shape[1])).max() < 1e-12


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _same_sample(batched, s, one):
    """Sample s of batched arrays (or jets) equals sample 0 of one-point
    ones, bit for bit."""
    assert len(batched) == len(one)
    for a, b in zip(batched, one):
        if hasattr(a, "val"):
            for x, y in ((a.val, b.val), (a.d, b.d)):
                assert np.array_equal(_bits(x[s]), _bits(y[0]))
        else:
            assert np.array_equal(_bits(a[s]), _bits(b[0]))


def _gw_arrays(ctx):
    return [*ctx._gamma_J, ctx.gamma_scale, ctx.normal, ctx.J, ctx.G,
            ctx.Pi_tan, ctx.Pi_nor, *ctx.normal_jets]


def _cr_arrays(c):
    return [c.P_D, c.P_Dp, c.P_1, c.P_nu, *c.fframe, *c.nu_jets]


def reeb_mixed_cr():
    """fix-cr5's structure with its first D generator replaced by
    x1 e1 + xi, which is the Reeb field where x1 = 0."""
    emb, d_gens, dp_gens = cr5_submanifold()
    d_gens = [VectorField(["x1", "0", "2", "0"], 4), d_gens[0], d_gens[1]]
    return CRStructure(map_geometry(emb, cr5_structure()), d_gens, dp_gens)


REEB_MIXED_POINTS = [[0.3, 0.1, 0.2, 0.4], [0.0, 0.5, -0.2, 0.1],
                     [-0.6, 0.2, 0.3, 0.3]]


def _gs_reference(ctx, candidates, against):
    """Gram-Schmidt with each frame vector's G-image computed again for
    every later candidate: the loop that GWData._gs must equal bit for
    bit."""
    frame = list(against)
    kept = []
    for cand in candidates:
        w = cand
        for f in frame:
            w = w - jscale(f, jvecdot(w, jmatvec(ctx.G, f)))
        nsq = jvecdot(w, jmatvec(ctx.G, w))
        if not _uniform(~(nsq.val <= GS_THRESHOLD ** 2)):
            continue
        unit = jscale(w, _jrecip_sqrt(nsq))
        frame.append(unit)
        kept.append(unit)
    return kept


def _same_gs(ctx, candidates, against):
    """GWData._gs and the reference loop keep the same jets, bit for bit,
    or raise the same _Split; the kept jets, or None after a split."""
    got = []
    for gs in (GWData._gs, _gs_reference):
        try:
            got.append(gs(ctx, candidates, against))
        except _Split as split:
            got.append(split.keep)
    new, ref = got
    if isinstance(ref, np.ndarray):
        assert np.array_equal(new, ref)
        return None
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        for x, y in ((a.val, b.val), (a.d, b.d)):
            assert np.array_equal(_bits(x), _bits(y))
    return new


class TestGramSchmidt:
    @pytest.mark.parametrize("name", ["sasaki-r7-cr", "fix-cr5",
                                      "paper-r7-euclidean"])
    def test_fixture_frames_equal_the_reference(self, name):
        spec = from_doc(fixture_doc(name))
        cr = spec.cr_structure()
        [c] = cr.contexts(sample_box(spec.embedding.m, count=8, seed=9))
        ctx = c.ctx
        n, m = ctx.n, ctx.m
        tangent = _same_gs(ctx, ctx.frame, [])
        eye = np.broadcast_to(np.eye(n), (8, n, n))
        normal = _same_gs(ctx, [jconst(eye[:, :, a], m) for a in range(n)],
                          tangent)
        fframe = _same_gs(ctx, c.phiZ_jets, [])
        nu = _same_gs(ctx, ctx.normal_jets, fframe)
        # the frames the contexts hold are these
        for got, want in ((normal, ctx.normal_jets), (fframe, c.fframe),
                          (nu, c.nu_jets)):
            assert [f.val.tobytes() for f in got] == [
                f.val.tobytes() for f in want]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 5),
           st.integers(1, 3), st.integers(0, 2))
    def test_random_spd_metric_jets_equal_the_reference(self, seed, N, n, m,
                                                        repeats):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(N, n, n))
        dg = rng.normal(size=(N, n, n, m))
        ctx = SimpleNamespace(G=Jet(a @ _tr(a) + 0.1 * np.eye(n),
                                    dg + np.swapaxes(dg, 1, 2)))
        cands = [Jet(rng.normal(size=(N, n)), rng.normal(size=(N, n, m)))
                 for _ in range(n)]
        # repeated candidates, which the loop drops
        cands += cands[:repeats]
        against = _same_gs(ctx, cands[:1], [])
        _same_gs(ctx, cands[1:], against)
        _same_gs(ctx, cands, [])


class TestBatchedContexts:
    @pytest.mark.parametrize("name", ["sasaki-r7-cr", "paper-r7-euclidean"])
    def test_batch_equals_one_point_builds(self, name):
        spec = from_doc(fixture_doc(name))
        cr = spec.cr_structure()
        mg = cr.mg
        samples = sample_box(spec.embedding.m, count=12, seed=3)
        batch = mg.contexts(samples)
        assert mg.contexts(samples) is batch
        [ctx] = batch
        [c] = cr.contexts(samples)
        assert c.ctx is ctx
        assert ctx.index.tolist() == list(range(12))
        for s, p in enumerate(samples.points):
            _same_sample(_gw_arrays(ctx), s, _gw_arrays(one_point(mg, p)))
            _same_sample(_cr_arrays(c), s, _cr_arrays(one_point(cr, p)))

    def test_mixed_drop_patterns_equal_one_point_builds(self):
        # the circle's normal is e1 made orthogonal to the tangent, except
        # at x1 = pi/2 where that vanishes and e2 is kept instead
        mg = MapGeometry(circle(), flat_statistical(2))
        samples = Samples([[0.0], [np.pi / 2], [1.0]])
        ctxs = mg.contexts(samples)
        assert [ctx.index.tolist() for ctx in ctxs] == [[0, 2], [1]]
        for ctx in ctxs:
            for s, k in enumerate(ctx.index):
                _same_sample(_gw_arrays(ctx), s,
                             _gw_arrays(one_point(mg, samples.points[k])))

    def test_mixed_cr_drop_patterns_equal_one_point_builds(self):
        # one Gauss-Weingarten pattern, but the first D generator is the
        # Reeb field where x1 = 0, so the reduced D frame drops it there
        cr = reeb_mixed_cr()
        samples = Samples(REEB_MIXED_POINTS)
        [ctx] = cr.mg.contexts(samples)
        crs = cr.contexts(samples)
        assert [c.index.tolist() for c in crs] == [[0, 2], [1]]
        for c in crs:
            for s, k in enumerate(c.index):
                one = one_point(cr, samples.points[k])
                _same_sample(_gw_arrays(c.ctx), s, _gw_arrays(one.ctx))
                _same_sample(_cr_arrays(c), s, _cr_arrays(one))

    def test_failed_build_is_remembered_and_names_the_point(self):
        emb = Embedding(["x1", "sqrt(x1)"], 1)
        mg = MapGeometry(emb, flat_statistical(2))
        samples = Samples([[0.5], [-0.25], [-0.75]])
        with pytest.raises(DomainError) as first:
            mg.contexts(samples)
        assert str(first.value) == ("non-finite result: sqrt(x1) "
                                    "at point [-0.25]")
        with pytest.raises(DomainError) as again:
            mg.contexts(samples)
        assert again.value is first.value


def torsion_case():
    """(x1, x2, 0) in flat R^3 whose only difference-tensor entry is
    K^3_12 = x1*x1, so h(X,Y) - h(Y,X) grows with x1."""
    K = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    K[2][0][1] = "x1*x1"
    st = StatTriple(MetricField.euclidean(3), ConnField(3, K))
    return Embedding(["x1", "x2", "0"], 2), st


def _submanifold_runs(emb, st):
    mg = MapGeometry(emb, st)
    return [lambda s: check_gauss_weingarten(mg, s)]


def _fixture_runs(name):
    return _spec_runs(fixture_doc(name))


def _spec_runs(doc):
    return _cr_runs(from_doc(doc).cr_structure())


def _cr_runs(cr):
    mg = cr.mg
    return [
        lambda s: check_gauss_weingarten(mg, s),
        lambda s: check_structure_identities(mg, s),
        lambda s: check_transport_identities(mg, s),
        lambda s: check_contact_cr(cr, s),
        lambda s: check_integrability_D(cr, s),
        lambda s: check_integrability_Dperp(cr, s),
        lambda s: check_dual_shape_identities(cr, s),
        lambda s: classify_geodesic(cr, s),
        lambda s: mixed_geodesic_verdict(
            check_mixed_geodesic_consequences(cr, s),
            classify_geodesic(cr, s)),
        lambda s: check_cr_product(cr, s),
    ]


SET_CASES = {
    "torsion": (lambda: _submanifold_runs(*torsion_case()),
                [[0.1, 0.0], [2.0, 0.0], [0.5, 0.0]]),
    "circle": (lambda: _submanifold_runs(circle(), flat_statistical(2)),
               [[0.0], [np.pi / 2], [1.0]]),
    "fix-cr5": (lambda: _fixture_runs("fix-cr5"),
                sample_box(4, count=4, seed=11).points),
    "sasaki-r7-cr": (lambda: _fixture_runs("sasaki-r7-cr"),
                     sample_box(4, count=4, seed=12).points),
    "reeb-mixed": (lambda: _cr_runs(reeb_mixed_cr()), REEB_MIXED_POINTS),
    "cr5-identity": (lambda: _spec_runs(EDGE_SPECS["cr5-identity"]),
                     sample_box(5, count=4, seed=13).points),
    "cr5-reeb-curve": (lambda: _spec_runs(EDGE_SPECS["cr5-reeb-curve"]),
                       sample_box(1, count=4, seed=14).points),
}


class TestReportsOverSetsAgreeWithSinglePoints:
    @pytest.mark.parametrize("case", sorted(SET_CASES))
    def test_record_by_record(self, case):
        # each record over a set is the worst one-point record: the largest
        # residual, first reached at the witness sample, with its labels
        make_runs, points = SET_CASES[case]
        points = np.asarray(points, dtype=float)
        for run in make_runs():
            whole = run(Samples(points))
            singles = [run(Samples(p[None])) for p in points]
            for k, rec in enumerate(whole.records):
                ones = [one.records[k] for one in singles]
                assert {one.name for one in ones} == {rec.name}
                worst = max(one.residual for one in ones)
                first = [one.residual for one in ones].index(worst)
                assert rec.residual == worst, rec.name
                wit = ones[first].witness
                assert rec.witness == (wit and dict(wit, sample=first)), \
                    rec.name
                assert rec.scale == max(one.scale for one in ones), rec.name

    def test_torsion_witness_is_the_worst_sample(self):
        emb, st = torsion_case()
        rep = check_gauss_weingarten(MapGeometry(emb, st), Samples(
            [[0.1, 0.0], [2.0, 0.0], [0.5, 0.0]]))
        for name in ("h-symmetry", "hstar-symmetry"):
            assert rep.record(name).residual == 4.0
            assert rep.record(name).witness == {"sample": 1}


def _frame_case(case):
    """A MapGeometry and a sample set for the coordinate-frame tests."""
    if case == "circle":
        return (MapGeometry(circle(), flat_statistical(2)),
                Samples([[0.0], [np.pi / 2], [1.0]]))
    spec = from_doc(fixture_doc(case) if case in fixture_names()
                    else BENT_SPECS["fix-cr5-bent1"])
    return (map_geometry(spec.embedding, spec.sss),
            sample_box(spec.embedding.m, count=8, seed=5))


class TestOneCoordinateFrame:
    """ctx.frame, the Jacobian columns as jets, is the frame that pushing
    the coordinate fields d/du^i gives, and no check builds another."""

    @pytest.mark.parametrize("case", ["circle", "sasaki-r7-cr",
                                      "paper-r7-euclidean", "fix-cr5-bent"])
    def test_frame_is_the_pushed_coordinate_fields(self, case):
        mg, samples = _frame_case(case)
        ctxs = mg.contexts(samples)
        # the circle splits into two drop patterns
        assert len(ctxs) == (2 if case == "circle" else 1)
        for ctx in ctxs:
            assert len(ctx.frame) == ctx.m
            for i, col in enumerate(ctx.frame):
                pushed = ctx.push_jet(VectorField.coordinate(ctx.m, i))
                # equal as numbers, not as bytes: the Jacobian holds -0.0
                # where the product with e_i gives +0.0
                assert np.array_equal(col.val, pushed.val)
                assert np.array_equal(col.d, pushed.d)

    def test_checks_evaluate_only_the_generators(self):
        # the brackets are read from the generators' jets, so no other
        # domain field is evaluated
        cr = from_doc(fixture_doc("sasaki-r7-cr")).cr_structure()
        samples = sample_box(4, count=6, seed=3)
        for run in _cr_runs(cr):
            run(samples)
        [c] = cr.contexts(samples)
        gens = [*cr.D, *cr.Dperp]
        dom = [key[1] for key in c.ctx._kept if key[0] == "dom"]
        push = [key[1] for key in c.ctx._kept if key[0] == "push"]
        assert len(dom) == 4
        assert {id(X) for X in dom} == {id(X) for X in gens}
        assert {id(X) for X in push} == {id(X) for X in gens}

    def test_brackets_agree_with_the_symbolic_bracket(self):
        # non-constant generators of the same D, so that [X, Y] != 0
        doc = fixture_doc("sasaki-r7-cr")
        doc["submanifold"]["D"] = [["1+x2^2", "x3", "0", "0"],
                                   ["0", "1", "x1*x4", "0"],
                                   ["0", "sin(x1)", "2+x2", "0"]]
        cr = from_doc(doc).cr_structure()
        samples = sample_box(4, count=7, seed=6)
        [c] = cr.contexts(samples)
        got = cr.brackets_amb(c, "D")
        pairs = list(zip(*np.triu_indices(len(cr.D), 1)))
        assert got.shape == (7, len(pairs), 7)
        for k, (i, j) in enumerate(pairs):
            want = np.matvec(c.J, lie_bracket(cr.D[i], cr.D[j])
                             .at(samples.points))
            assert np.abs(want).max() > 0.1
            assert np.all(np.abs(got[:, k] - want)
                          <= 1e-14 * (1.0 + np.abs(want)))
        assert cr.brackets_amb(c, "Dperp").shape == (7, 0, 7)


def _domain_runs(cr):
    """The domain checks of the CLI on a CR structure, (name, check of a
    set) pairs, in the order in which it runs them."""
    return [pair for suite in ("submanifold", "cr", "product")
            for pair in cli._suite_runs(suite, None, cr.mg, cr, 1e-8)]


def dbar_reference(ctx, gam, x, W):
    """nabla-bar_X W as one direction at a time: the partials of W along X
    plus gam(J X, W), with `gam` the ambient Christoffel values at the
    context's image points, contracted in one einsum."""
    x = np.broadcast_to(np.asarray(x, dtype=float), (len(ctx.index), ctx.m))
    return (np.matvec(W.d, x)
            + np.einsum("...kab,...a,...b->...k", gam,
                        np.matvec(ctx.J.val, x), W.val))


class TestCovariantDerivativeAlongTheMap:
    """GWData.nabla gives one (N, K, n, m) array for K fields and a
    connection, and `along` applies it to L directions at once; each
    (field, direction) entry must agree with the direction-at-a-time
    formula."""

    @pytest.mark.parametrize("name", ["sasaki-r7-cr", "paper-r7-euclidean",
                                      *BENT_SPECS])
    def test_dbar_agrees_with_the_direction_formula(self, name):
        # on a bent embedding the Jacobian varies with the point, so the
        # order in which Gamma meets J and W shows at round-off
        spec = from_doc(BENT_SPECS.get(name) or fixture_doc(name))
        cr = spec.cr_structure()
        samples = sample_box(spec.embedding.m, count=9, seed=4)
        [c] = cr.contexts(samples)
        ctx = c.ctx
        # Γ and Γ* at the image points, read from the structure itself
        gams = cr.mg.st.gammas(ctx.y)[1:]
        m = ctx.m
        frame = [VectorField.coordinate(m, i) for i in range(m)]
        pushes = [ctx.push_jet(Y) for Y in frame]
        fields = (pushes
                  + [ctx.t_jet(V) for V in pushes]
                  + [ctx.f_jet(V) for V in pushes]
                  + [ctx.xi] + c.phiZ_jets + list(ctx.normal_jets)
                  + [ctx.t_jet(V) for V in ctx.normal_jets]
                  + [ctx.f_jet(V) for V in ctx.normal_jets])
        # coordinate directions, one for all samples, and generator
        # directions with their own coefficients at each sample
        generators = list(np.moveaxis(c.d_dom, 1, 0)) + list(
            np.moveaxis(c.dp_dom, 1, 0))
        directions = ([np.eye(m)[i] for i in range(m)] + generators
                      + [c.xi_dom])
        assert all(x.shape == (9, m) for x in generators)
        dirs = np.stack([np.broadcast_to(x, (9, m)) for x in directions],
                        axis=1)
        for star in (False, True):
            nab = along(ctx.nabla(fields, star), dirs)
            assert nab.shape == (9, len(directions), len(fields), ctx.n)
            for k, W in enumerate(fields):
                for l, x in enumerate(directions):
                    got = nab[:, l, k]
                    want = dbar_reference(ctx, gams[star], x, W)
                    assert got.shape == want.shape == (9, ctx.n)
                    assert np.all(np.abs(got - want)
                                  <= 1e-14 * (1.0 + np.abs(want)))

    def test_coordinate_directions_keep_an_inf_in_its_direction(self):
        # with no directions, `along` reads the coordinate directions off
        # the derivative axis; a product with the identity would spread an
        # inf into the other directions as inf * 0 = NaN
        nab = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 3, 4, 2))
        nab[1, 2, 3, 0] = np.inf
        eye = np.broadcast_to(np.eye(2), (2, 2, 2))
        with np.errstate(invalid="ignore"):
            got, product = along(nab), along(nab, eye)
        assert got.shape == product.shape == (2, 2, 3, 4)
        assert got[1, 0, 2, 3] == np.inf
        assert np.isfinite(got).sum() == got.size - 1
        assert np.isnan(product[1, 1, 2, 3])
        finite = np.isfinite(product)
        np.testing.assert_array_equal(got[finite], product[finite])

    @pytest.mark.parametrize("name", ["sasaki-r7-cr", "fix-cr5"])
    def test_a_stack_of_broadcast_jets_is_c_contiguous(self, name):
        # a linear embedding's Jacobian is one matrix broadcast over the
        # samples, and so is the frame read from it; its stacks must still
        # come out sample-major, with each sample's block contiguous
        spec = from_doc(fixture_doc(name))
        [ctx] = spec.cr_structure().mg.contexts(
            sample_box(spec.embedding.m, count=6, seed=1))
        assert all(f.val.strides[0] == f.d.strides[0] == 0
                   for f in ctx.frame)
        for star in (False, True):
            assert ctx.nabla(ctx.frame, star).flags.c_contiguous

    @pytest.mark.parametrize("case", ["reeb-mixed", "sasaki-r7-cr"])
    def test_no_context_keeps_a_stack(self, case):
        # a covariant-derivative stack belongs to the check that asks for
        # it, also where the CR frames split a Gauss-Weingarten context and
        # the parts get contexts of their own
        if case == "reeb-mixed":
            cr, samples = reeb_mixed_cr(), Samples(REEB_MIXED_POINTS)
        else:
            spec = from_doc(fixture_doc(case))
            cr = spec.cr_structure()
            samples = sample_box(spec.embedding.m, count=6, seed=2)
        for _, check in _domain_runs(cr):
            check(samples)
        ctxs = samples._built[cr.mg] + [c.ctx for c in samples._built[cr]]
        assert len({id(ctx) for ctx in ctxs}) == (
            3 if case == "reeb-mixed" else 1)
        for ctx in ctxs:
            assert ctx._kept
            assert all(isinstance(v, Jet) for v in ctx._kept.values())

    def test_each_thread_keeps_its_own_contexts(self):
        # four threads, more than a small host's CPUs, ask one MapGeometry
        # and CRStructure for the contexts of their own sets, round after
        # round at the same time; each must get its own set's contexts,
        # built once.  A short switch interval lets a thread stop in the
        # middle of a build.
        spec = from_doc(fixture_doc("sasaki-r7-cr"))
        cr = spec.cr_structure()
        mg = cr.mg
        own = [sample_box(4, count=3, seed=s) for s in range(4)]
        start = threading.Barrier(len(own))
        got = [[] for _ in own]

        def read(k):
            for _ in range(20):
                start.wait(timeout=30)
                [ctx], [c] = mg.contexts(own[k]), cr.contexts(own[k])
                got[k].append((ctx, c))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,))
                       for k in range(len(own))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for samples, pairs in zip(own, got):
            assert len(pairs) == 20
            ctx, c = pairs[0]
            assert np.array_equal(ctx.points, samples.points)
            assert c.ctx is ctx
            assert all(p[0] is ctx and p[1] is c for p in pairs)

    def test_contexts_die_with_their_set(self):
        # no reference cycle holds a sample set's contexts, with their
        # memos, once the set is dropped, while the MapGeometry and the
        # CRStructure that built them live on
        spec = from_doc(fixture_doc("sasaki-r7-cr"))
        cr = spec.cr_structure()
        samples = sample_box(spec.embedding.m, count=6, seed=2)
        gc.disable()
        try:
            check_integrability_D(cr, samples)
            check_cr_product(cr, samples)
            [c] = cr.contexts(samples)
            gw, crc = weakref.ref(c.ctx), weakref.ref(c)
            del c, samples
            assert gw() is None and crc() is None
        finally:
            gc.enable()
        assert cr.mg.contexts(sample_box(spec.embedding.m, count=2))


class TestGaussWeingarten:
    def test_flat_linear_trivial(self):
        emb = Embedding(["x1", "x2", "x1+x2"], 2)
        mg = MapGeometry(emb, flat_statistical(3))
        rep = check_gauss_weingarten(mg, sample_box(2))
        assert rep.passed
        # h of a linear embedding in a flat ambient vanishes identically
        ctx = one_point(mg, np.array([0.1, 0.2]))
        dy = ctx.push_jet(VectorField.coordinate(2, 1))
        v = along(ctx.nabla([dy]))[:, 0, 0]
        h = v - ctx.tangential(v)
        assert np.abs(h).max() == 0.0

    def test_unit_circle_curvature(self):
        # classical control: h(dt, dt) is the inward unit normal
        mg = MapGeometry(circle(), flat_statistical(2))
        for t in (0.0, 0.7, 2.1, -1.3):
            ctx = one_point(mg, np.array([t]))
            dt = ctx.push_jet(VectorField.coordinate(1, 0))
            v = along(ctx.nabla([dt]))[:, 0, 0]
            h = v - ctx.tangential(v)
            assert np.allclose(h[0], [-np.cos(t), -np.sin(t)], atol=1e-12)
            assert ctx.gnorm(h)[0] == pytest.approx(1.0, abs=1e-12)
            # pairing: g(A_N dt, dt) = g(h*(dt,dt), N) for the frame normal
            N = ctx.normal_jets[0]
            A = -ctx.tangential(along(ctx.nabla([N]))[:, 0, 0])
            lhs = ctx.ginner(A, ctx.J.val[:, :, 0])[0]
            rhs = ctx.ginner(h, N.val)[0]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_e7_fundamental_forms_vanish(self):
        emb, _, _ = e7_submanifold()
        sss = e7_structure()
        mg = MapGeometry(emb, sss.st)
        frame = [VectorField.coordinate(5, i) for i in range(5)]
        for p in sample_box(5, count=8).points:
            ctx = one_point(mg, p)
            pushes = [ctx.push_jet(Y) for Y in frame]
            for i in range(5):
                for j in range(5):
                    v = along(ctx.nabla([pushes[j]]))[:, i, 0]
                    h = v - ctx.tangential(v)
                    v = along(ctx.nabla([pushes[j]], star=True))[:, i, 0]
                    hs = v - ctx.tangential(v)
                    assert np.abs(h).max() < 1e-10
                    assert np.abs(hs).max() < 1e-10

    def test_e7_report_passes(self):
        emb, _, _ = e7_submanifold()
        sss = e7_structure()
        rep = check_gauss_weingarten(MapGeometry(emb, sss.st),
                                     sample_box(5, count=16))
        assert rep.passed

    def test_cr5_report_passes(self):
        emb, _, _ = cr5_submanifold()
        sss = cr5_structure()
        rep = check_gauss_weingarten(MapGeometry(emb, sss.st),
                                     sample_box(4, count=16))
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-7, rec.name


def random_gw_case(rng, m, n):
    """Random degree-2 embedding with a random constant metric and a random
    admissible (totally symmetric) difference tensor."""
    from contactstat.exprlang import Var

    lin = rng.normal(size=(n, m)) * 0.5
    lin[:m, :m] += np.eye(m)
    quad = rng.normal(size=(n, m, m)) * 0.2
    comps = []
    for a in range(n):
        e = Const(float(rng.normal() * 0.3))
        for i in range(m):
            e = e + Const(float(lin[a, i])) * Var(i)
            for j in range(i, m):
                e = e + Const(float(quad[a, i, j])) * Var(i) * Var(j)
        comps.append(e)
    emb = Embedding(comps, m)

    A = rng.normal(size=(n, n))
    gmat = A @ A.T + n * np.eye(n)
    g = MetricField.constant(gmat)

    c = rng.normal(size=(n, n, n)) * 0.3
    sym = np.zeros_like(c)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym += np.transpose(c, perm)
    sym /= 6.0
    kup = np.einsum("kl,ijl->kij", np.linalg.inv(gmat), sym)
    coeffs = [[[Const(float(kup[k, i, j])) for j in range(n)]
               for i in range(n)] for k in range(n)]
    return emb, StatTriple(g, ConnField(n, coeffs))


def _gram_jet_cases():
    yield "circle", circle(), flat_statistical(2)
    rng = np.random.default_rng(7)
    for k in range(6):
        m = int(rng.integers(1, 4))
        emb, st = random_gw_case(rng, m, int(rng.integers(m + 1, 6)))
        yield f"random-{k}", emb, st
    for (name, _), doc in zip(BENT_EMBEDDINGS, BENT_SPECS.values()):
        spec = from_doc(doc)
        yield f"{name}-bent", spec.embedding, spec.sss.st


@pytest.mark.parametrize("name,emb,st", list(_gram_jet_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_gram_jet_matches_the_induced_metric_partials(name, emb, st):
    # the contexts carry d_i g_jk as the Gram jet's derivative; the oracle
    # differentiates the symbolic pull-back
    mg = MapGeometry(emb, st)
    dgind = induced_metric(emb, st.g).partials
    for ctx in mg.contexts(sample_box(emb.m, count=32, seed=11)):
        want = dgind.at(ctx.points)
        assert ctx.Gram.d.shape == want.shape
        assert (np.abs(ctx.Gram.d - want) <= 1e-14 * (1 + np.abs(want))).all()


class TestRandomCorpus:
    def test_reconstruction_and_pairing(self):
        rng = np.random.default_rng(2024)
        cases = 0
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 6))
            emb, st = random_gw_case(rng, m, n)
            assert check_statistical(st, metric_samples(st.g)).passed
            rep = check_gauss_weingarten(
                MapGeometry(emb, st),
                sample_box(m, count=5, seed=int(rng.integers(1e6))))
            for rec in rep.records:
                assert rec.residual < 1e-7 * (1 + rec.scale), rec.name
            cases += 1
        assert cases == 25


class TestTFBC:
    def test_e7_t_and_f_on_frame(self):
        emb, _, _ = e7_submanifold()
        g, acs = __import__("conftest").euclid_r7()
        fp = one_point(MapGeometry(emb, flat_over(g)), np.zeros(5))
        parts = tfbc(acs, fp)
        T, F = parts.T[0], parts.F[0]
        # phi e1 = e2: purely tangent
        assert np.allclose(T[:, 0], [0, 1, 0, 0, 0], atol=1e-12)
        assert np.abs(F[:, 0]).max() < 1e-12
        # phi e3: purely normal
        assert np.abs(T[:, 2]).max() < 1e-12
        assert np.abs(F[:, 2]).max() > 0.5

    def test_invariant_identity_embedding(self):
        g, acs = sasaki_r3()
        emb = Embedding(["x1", "x2", "x3"], 3)
        fp = one_point(MapGeometry(emb, flat_over(g)),
                       np.array([0.1, -0.4, 0.3]))
        parts = tfbc(acs, fp)
        assert parts.F.size == 0 and parts.B.size == 0 and parts.C.size == 0
        phiv = acs.phi.at(np.array([[0.1, -0.4, 0.3]]))[0]
        assert np.abs(parts.T[0] - phiv).max() < 1e-12


class TestStructureIdentities:
    def test_e7_all_under_1e9(self):
        emb, _, _ = e7_submanifold()
        sss = e7_structure()
        rep = check_structure_identities(map_geometry(emb, sss),
                                         sample_box(5, count=32))
        assert rep.passed
        for rec in rep.records:
            assert rec.residual < 1e-9, rec.name

    def test_e7_frame_orthonormal_variant(self):
        emb, _, _ = e7_submanifold()
        sss = e7_structure(frame_orthonormal=True)
        rep = check_structure_identities(map_geometry(emb, sss),
                                         sample_box(5, count=32))
        for rec in rep.records:
            assert rec.residual < 1e-9, rec.name

    def test_cr5_all_under_1e9(self):
        emb, _, _ = cr5_submanifold()
        sss = cr5_structure()
        rep = check_structure_identities(map_geometry(emb, sss),
                                         sample_box(4, count=32))
        for rec in rep.records:
            assert rec.residual < 1e-9, rec.name

    def test_identity_embedding_reduces_to_phi_square(self):
        g, acs = sasaki_r3()
        sss = lambda_family(g, acs, 1.0)
        emb = Embedding(["x1", "x2", "x3"], 3)
        rep = check_structure_identities(map_geometry(emb, sss),
                                         sample_box(3))
        assert rep.passed


class TestTransportIdentities:
    def test_identity_embedding_of_control(self):
        # the trivial embedding reduces every record to the ambient
        # transport identities, which the control fixture satisfies
        g, acs = sasaki_r3()
        sss = lambda_family(g, acs, 1.0)
        emb = Embedding(["x1", "x2", "x3"], 3)
        rep = check_transport_identities(map_geometry(emb, sss),
                                         sample_box(3, count=16))
        assert rep.passed
        for rec in rep.records:
            if not rec.informational:
                assert rec.residual < 1e-7, rec.name

    def test_cr5_product_fixture(self):
        emb, _, _ = cr5_submanifold()
        sss = cr5_structure()
        rep = check_transport_identities(map_geometry(emb, sss),
                                         sample_box(4, count=32))
        assert rep.passed
        for rec in rep.records:
            if not rec.informational:
                assert rec.residual < 1e-6, rec.name

    def test_e7_reports_honest_failures(self):
        # the flat ambient is not Sasakian; the transports inherit that and
        # the engine reports the exact defect magnitudes
        emb, _, _ = e7_submanifold()
        sss = e7_structure()
        rep = check_transport_identities(map_geometry(emb, sss),
                                         sample_box(5, count=16))
        assert not rep.passed
        assert rep.record("xi-reduction").residual == pytest.approx(1.0, abs=1e-9)
        assert rep.record("h-xi").residual == pytest.approx(np.sqrt(2.0), abs=1e-9)
        # the purely tensorial transports hold regardless
        assert rep.record("b-transport").residual < 1e-9
        assert rep.record("c-transport").residual < 1e-9


def test_a_map_geometry_without_the_contact_structure_is_a_geometry_error():
    # the Gauss-Weingarten check reads the metric alone; every check and
    # structure that reads phi, xi or eta names what is missing
    spec = from_doc(fixture_doc("fix-cr5"))
    mg = MapGeometry(spec.embedding, spec.sss.st)
    samples = sample_box(4, count=8)
    assert check_gauss_weingarten(mg, samples).passed
    missing = "needs the ambient almost-contact structure"
    for check in (check_structure_identities, check_transport_identities):
        with pytest.raises(GeometryError, match=missing):
            check(mg, samples)
    with pytest.raises(GeometryError, match=missing):
        CRStructure(mg, spec.d_gens, spec.dperp_gens)


class TestTFBCReconstruction:
    def test_phi_reconstructs_from_parts(self):
        # phi v = J (T a) + N (F a) for tangent v = J a, and likewise for
        # normal vectors, to solver precision
        g, acs = __import__("conftest").sasaki_r5()
        emb, _, _ = cr5_submanifold()
        mg = MapGeometry(emb, flat_over(g))
        for p in sample_box(4, count=8).points:
            fp = one_point(mg, p)
            phiv = acs.phi.at(fp.y)[0]
            parts = tfbc(acs, fp)
            J, normal = fp.J.val[0], fp.normal[0]
            T, F, B, C = parts.T[0], parts.F[0], parts.B[0], parts.C[0]
            for i in range(fp.m):
                v = J[:, i]
                recon = J @ T[:, i] + normal @ F[:, i]
                assert np.abs(phiv @ v - recon).max() < 1e-12
            for j in range(normal.shape[1]):
                w = normal[:, j]
                recon = J @ B[:, j] + normal @ C[:, j]
                assert np.abs(phiv @ w - recon).max() < 1e-12


class TestAntiInvariantToy:
    def test_one_dimensional_submanifold_along_e3(self):
        # the line along e3 in the flat 7-chart: T vanishes and the squared
        # identity reduces to BF X = X (eta vanishes on the line's tangent)
        emb = Embedding(["0", "0", "x1", "0", "0", "0-x1", "0"], 1)
        sss = e7_structure()
        mg = map_geometry(emb, sss)
        fp = one_point(mg, np.array([0.3]))
        parts = tfbc(sss.acs, fp)
        assert np.abs(parts.T[0]).max() < 1e-12
        bf = parts.B[0] @ parts.F[0]
        assert np.abs(bf + np.eye(1)).max() < 1e-12
        # the Reeb field is not tangent to this line, so the precondition
        # record fails while every Reeb-free identity still closes
        rep = check_structure_identities(mg, sample_box(1, count=8))
        assert rep.record("xi-tangency").status == "FAIL"
        for name in ("t-squared", "ft-cf", "tb-bc", "t-skew", "c-skew",
                     "fb-adjoint"):
            assert rep.record(name).residual < 1e-12, name
