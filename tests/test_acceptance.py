"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints an ACCEPTANCE line (visible with -s).
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import conftest
from contactstat.contactstruct import (check_almost_contact,
                                       check_sasakian,
                                       check_sasakian_statistical,
                                       lambda_family)
from contactstat.crchecks import (CRStructure, check_contact_cr,
                                  check_cr_product,
                                  check_dual_shape_identities,
                                  check_integrability_D,
                                  check_integrability_Dperp,
                                  classify_geodesic)
from contactstat.exprlang import DomainError, parse
from contactstat.fixtures import fixture_doc
from contactstat.geometry import (ConnField, MetricField, StatTriple,
                                  VectorField, check_statistical,
                                  metric_samples)
from contactstat.sampling import Samples, sample_box
from contactstat.specfile import from_doc
from contactstat.submanifold import (Embedding, MapGeometry, along,
                                     check_gauss_weingarten,
                                     check_transport_identities,
                                     check_structure_identities)
from test_exprlang import central_diff, random_expr
from test_submanifold import random_gw_case


def announce(num, name, ok=True):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_01_expression_engine():
    rng = random.Random(20240917)
    n_exprs = 0
    checked = 0
    while n_exprs < 500:
        dim = rng.randrange(1, 8)
        e = random_expr(rng, dim, rng.randrange(1, 7))
        n_exprs += 1
        diffs = [e.diff(i) for i in range(dim)]
        pts = [[rng.uniform(-0.9, 0.9) for _ in range(dim)] for _ in range(10)]
        for p in pts:
            try:
                vals = [d.eval(p) for d in diffs]
                fds = [central_diff(e, p, i, h=1e-5) for i in range(dim)]
            except DomainError:
                continue
            for v, f in zip(vals, fds):
                if math.isfinite(v) and math.isfinite(f):
                    assert abs(v - f) <= 1e-6 * (1.0 + abs(v))
                    checked += 1
        back = parse(str(e), dim)
        grid = np.random.default_rng(n_exprs).uniform(-0.9, 0.9, (10, dim))
        a, b = e.eval_many(grid), back.eval_many(grid)
        ok = np.isfinite(a)
        assert np.array_equal(a[ok], b[ok])
    assert n_exprs >= 500 and checked > 10000
    announce(1, "expression engine vs finite differences + round trip")


def _paper_spec(variant="paper-r7-euclidean"):
    return from_doc(fixture_doc(variant))


def test_02_paper_fixture_almost_contact():
    sss = _paper_spec().sss
    samples = metric_samples(sss.st.g, count=100)
    rep = check_almost_contact(sss.acs, sss.st.g, samples)
    assert samples.count == 100
    for name in ("phi-square", "metric-xi-pairing", "phi-compatibility",
                 "unit-xi", "phi-xi", "eta-phi", "eta-xi"):
        assert rep.record(name).residual < 1e-12, name
    announce(2, "almost-contact residuals < 1e-12 on 100 samples")


def test_03_paper_fixture_statistical():
    spec = _paper_spec()
    samples = metric_samples(spec.sss.st.g, count=100)
    rep = check_statistical(spec.sss.st, samples)
    for name in ("torsion", "torsion-dual", "codazzi", "duality",
                 "difference-tensor-symmetry",
                 "difference-tensor-self-adjoint"):
        assert rep.record(name).residual < 1e-9, name
    srep = check_sasakian_statistical(spec.sss, samples)
    assert srep.record("k-phi-anticommute").residual < 1e-9
    announce(3, "statistical + anticommutation residuals < 1e-9")


def test_04_paper_fixture_cr_suite():
    spec = _paper_spec()
    cr = spec.cr_structure()
    samples = sample_box(5, count=64)
    rep = check_contact_cr(cr, samples)
    for name in ("d-invariance", "dperp-anti-invariance", "xi-in-d",
                 "nu-decomposition", "projection-decomposition", "fp1-zero",
                 "tp2-zero", "f-is-fp2", "t-is-tp1"):
        assert rep.record(name).residual < 1e-9, name
    drep = check_integrability_D(cr, samples)
    prep = check_integrability_Dperp(cr, samples)
    assert drep.record("d-bracket-closure").residual < 1e-9
    assert prep.record("dperp-bracket-closure").residual < 1e-9
    assert drep.record("d-integrability-criterion").residual < 1e-9
    assert prep.record("dperp-integrability-criterion").residual < 1e-9
    geo = classify_geodesic(cr, samples)
    for rec in geo.records:
        if rec.informational:
            continue
        assert rec.passed, rec.name
        if "geodesic" in rec.name and "shape" not in rec.name:
            assert rec.residual < 1e-10, rec.name
    announce(4, "CR suite residuals < 1e-9, geodesic flags pass with h < 1e-10")


def test_05_paper_fixture_audit_records():
    spec = _paper_spec()
    g, acs = spec.sss.st.g, spec.sss.acs
    samples = metric_samples(g, count=64)
    rep = check_sasakian(acs, g, samples)
    rec = rep.record("xi-derivative")
    assert rec.status == "FAIL"
    assert rec.residual == pytest.approx(1.0, abs=1e-9)
    # the defect at the first coordinate direction is exactly |phi e1| = 1
    pts = samples.points[:8]
    e1 = VectorField.coordinate(7, 0)
    # nabla-hat_{e1} xi = d_1 xi + Gamma-hat(e1, xi)
    lc = spec.sss.st.gammas(pts)[0]
    nxi = (acs.xi.partials.at(pts)[:, :, 0]
           + np.einsum("nkj,nj->nk", lc[:, :, 0, :], acs.xi.at(pts)))
    defect = nxi + np.einsum("nab,nb->na", acs.phi.at(pts), e1.at(pts))
    gv = g.at(pts)
    norms = np.sqrt(np.einsum("na,nab,nb->n", defect, gv, defect))
    assert np.abs(norms - 1.0).max() < 1e-9

    cr = spec.cr_structure()
    prep = check_cr_product(cr, sample_box(5, count=64))
    crec = prep.record("product-criterion")
    assert crec.status == "FAIL"
    # oracle: with A = 0 the residual at (X = xi, U = e3) is |e3|_g
    e3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0, 0.0])
    g0 = g.at(np.zeros((1, 7)))[0]
    oracle = float(np.sqrt(e3 @ g0 @ e3))
    assert oracle == pytest.approx(np.sqrt(2.0))
    assert crec.residual == pytest.approx(oracle, abs=1e-9)

    code = subprocess.run(
        [sys.executable, "-m", "contactstat", "check", "--spec",
         "paper-r7-euclidean"], capture_output=True).returncode
    assert code == 1
    announce(5, "audit records fail with the oracle values; exit code 1")


def test_06_sasaki_control_lambda_family():
    spec = from_doc(fixture_doc("fix-s3"))
    g, acs = spec.sss.st.g, spec.sss.acs
    samples = metric_samples(g, count=64)
    srep = check_sasakian(acs, g, samples)
    assert srep.passed
    for rec in srep.records:
        assert rec.residual < 1e-7, rec.name
    assert check_almost_contact(acs, g, samples).passed
    for lam in (0.0, 1.0, 2.5):
        sss = lambda_family(g, acs, lam)
        assert check_statistical(sss.st, samples).passed, lam
        rep = check_sasakian_statistical(sss, samples)
        assert rep.passed, lam
        for name in ("phi-transport", "xi-transport", "dual-phi-transport",
                     "dual-xi-transport", "k-phi-anticommute"):
            assert rep.record(name).residual < 1e-7, (lam, name)
    announce(6, "known-good Sasakian control passes for lambda in {0, 1, 2.5}")


def test_07_gauss_weingarten_random_corpus():
    rng = np.random.default_rng(77)
    cases = 0
    while cases < 100:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 6))
        emb, st = random_gw_case(rng, m, n)
        samples = sample_box(m, count=4, seed=int(rng.integers(1 << 32)))
        rep = check_gauss_weingarten(MapGeometry(emb, st), samples)
        for name in ("gauss-reconstruction", "gauss-reconstruction-dual",
                     "weingarten-reconstruction",
                     "weingarten-reconstruction-dual", "shape-pairing",
                     "shape-pairing-dual", "induced-duality"):
            rec = rep.record(name)
            assert rec.residual < 1e-7 * (1 + rec.scale), (cases, name)
        cases += 1
    assert cases >= 100
    announce(7, "reconstruction/pairing/duality < 1e-7 on 100 random embeddings")


def test_08_circle_control():
    emb = Embedding(["cos(x1)", "sin(x1)"], 1)
    st = StatTriple(MetricField.euclidean(2), ConnField.flat(2))
    mg = MapGeometry(emb, st)
    for t in np.linspace(-3.0, 3.0, 13):
        ctx = conftest.one_point(mg, np.array([t]))
        # nabla-bar_{d/dt} d/dt, and its normal part h(dt, dt)
        dt = ctx.push_jet(VectorField.coordinate(1, 0))
        v = along(ctx.nabla([dt]))[:, 0, 0]
        h = v - ctx.tangential(v)
        assert abs(ctx.gnorm(h)[0] - 1.0) < 1e-8
        N = ctx.normal_jets[0]
        A = -ctx.tangential(along(ctx.nabla([N]))[:, 0, 0])
        lhs = ctx.ginner(A, ctx.J.val[:, :, 0])[0]
        rhs = ctx.ginner(h, N.val)[0]
        assert abs(lhs - rhs) < 1e-8
    announce(8, "unit circle: |h| = 1 and the shape pairing holds")


def test_09_cr5_product_fixture():
    spec = from_doc(fixture_doc("fix-cr5"))
    cr = spec.cr_structure()
    samples = sample_box(4, count=64)

    rep = check_transport_identities(cr.mg, samples)
    for name in ("t-transport", "f-transport", "b-transport", "c-transport",
                 "xi-reduction", "h-xi"):
        assert rep.record(name).residual < 1e-6, name

    dsi = check_dual_shape_identities(cr, samples)
    for rec in dsi.records:
        assert rec.residual < 1e-6, rec.name

    prod = check_cr_product(cr, samples)
    for name in ("shape-transport-pairing", "leaf-pairing",
                 "phidperp-perp-antisymmetry", "nu-shape-antisymmetry",
                 "product-criterion", "dperp-leaf", "d-leaf", "dperp-leaf-dual",
                 "d-leaf-dual"):
        assert prod.record(name).residual < 1e-6, name

    # equivalence pairs co-occur at every sample
    for p in sample_box(4, count=24, seed=5).points:
        one = Samples(p[None])
        d_rep = check_integrability_D(cr, one)
        assert (d_rep.record("d-bracket-closure").passed
                == d_rep.record("d-integrability-criterion").passed)
        p_rep = check_integrability_Dperp(cr, one)
        assert (p_rep.record("dperp-bracket-closure").passed
                == p_rep.record("dperp-integrability-criterion").passed)
        geo = classify_geodesic(cr, one)
        for flag, shape in (("d-geodesic", "d-geodesic-shape"),
                            ("d-geodesic-dual", "d-geodesic-shape-dual"),
                            ("mixed-geodesic", "mixed-geodesic-shape"),
                            ("mixed-geodesic-dual", "mixed-geodesic-shape-dual")):
            assert geo.record(flag).passed == geo.record(shape).passed, flag
    announce(9, "product fixture identities < 1e-6; theorem pairs co-occur")


def test_10_tfbc_identities_all_fixtures():
    cases = [("paper-r7-euclidean", 5), ("paper-r7-frame-orthonormal", 5),
             ("fix-cr5", 4)]
    for name, m in cases:
        spec = from_doc(fixture_doc(name))
        mg = MapGeometry(spec.embedding, spec.sss.st, acs=spec.sss.acs)
        rep = check_structure_identities(mg, sample_box(m, count=32))
        for rec in rep.records:
            assert rec.residual < 1e-9, (name, rec.name)
    announce(10, "splitting identities < 1e-9 on all three fixtures")


def test_11_cli_contract(tmp_path):
    t0 = time.time()
    r = subprocess.run(
        [sys.executable, "-m", "contactstat", "check", "--spec",
         "paper-r7-euclidean", "--format", "structured"],
        capture_output=True)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"fixture run took {elapsed:.2f}s"
    assert r.returncode == 1

    r0 = subprocess.run(
        [sys.executable, "-m", "contactstat", "check", "--spec", "fix-s3",
         "--suites", "ambient"], capture_output=True)
    assert r0.returncode == 0

    r2 = subprocess.run(
        [sys.executable, "-m", "contactstat", "check", "--spec", "fix-s3",
         "--suites", "cr"], capture_output=True)
    assert r2.returncode == 2

    again = subprocess.run(
        [sys.executable, "-m", "contactstat", "check", "--spec",
         "paper-r7-euclidean", "--format", "structured"],
        capture_output=True)
    assert again.stdout == r.stdout

    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"ambient": {"dim": 7, "metric": {"1 1": "x8"},
                                           "phi": {}, "xi": ["0"] * 7,
                                           "eta": ["0"] * 7}}))
    rb = subprocess.run(
        [sys.executable, "-m", "contactstat", "check", "--spec", str(bad)],
        capture_output=True, text=True)
    assert rb.returncode == 2
    assert "ambient.metric" in rb.stderr and "x8" in rb.stderr
    announce(11, "CLI contract: < 5 s, exit codes 0/1/2, byte-identical reports")
