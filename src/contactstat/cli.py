"""Command-line surface: spec ingestion, check orchestration, report
emission.

    verify check --spec <path-or-fixture> [--suites ...] [--seed N]
                 [--samples N] [--tol X] [--format text|structured]
    verify fixtures list
    verify fixtures dump <name>

Exit codes: 0 every requested record passed, 1 at least one record failed,
2 input or usage error.  Reports are byte-identical across runs for the
same inputs and seed.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .contactstruct import (check_almost_contact, check_contact_metric,
                            check_sasakian, check_sasakian_statistical)
from .crchecks import (CRStructure, check_contact_cr, check_cr_product,
                       check_dual_shape_identities, check_integrability_D,
                       check_integrability_Dperp,
                       check_mixed_geodesic_consequences, classify_geodesic,
                       mixed_geodesic_verdict)
from .exprlang import DomainError
from .fixtures import fixture_doc, fixture_names
from .geometry import INPUT_ERRORS, check_statistical, metric_samples
from .report import CheckReport, Record, merge_blocks
from .sampling import (DEFAULT_BOX, DEFAULT_COUNT, DEFAULT_SEED,
                       Samples, SamplingError, sample_box)
from .specfile import SUITE_ORDER, SpecError, load_spec
from .submanifold import (MapGeometry, check_gauss_weingarten,
                          check_structure_identities,
                          check_transport_identities)

# samples per block of a sample set; the blocks of a set depend on its
# size alone, so no report depends on the machine
BLOCK = 1024

__all__ = ["main", "run"]


def _spec_samples(spec, chart, seed, count):
    """Samples on the "ambient" or the "domain" chart of the spec."""
    mode = spec.sampling.get("mode", "seeded-random")
    if mode == "points":
        pts = spec.sampling.get(chart)
        if pts is None:
            suites = "ambient" if chart == "ambient" else "submanifold"
            raise SpecError([f"sampling.{chart}: explicit points required "
                             f"for {suites} suites in points mode"])
        return Samples(pts)
    box = tuple(spec.sampling.get("box", DEFAULT_BOX))
    if chart == "domain":
        return sample_box(spec.embedding.m, count=count, seed=seed, box=box)
    try:
        return metric_samples(spec.sss.st.g, count=count, seed=seed, box=box)
    except SamplingError as e:
        raise SpecError([f"sampling.box: metric not positive definite "
                         f"({e})"]) from None


def _guarded(fn, check_name):
    """Run one check; an input the check cannot be evaluated on becomes its
    failed engine-precondition record, naming the exception (whose message
    names the failing point where the engine knows it).  A field value
    that is not finite stops the check where it is read (Grid.at); a
    non-finite value that the arithmetic makes of finite inputs, such as
    an overflow, is left to the records, which keep it as the worst
    value, so numpy's floating-point warnings are not shown."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except INPUT_ERRORS as e:
        rep = CheckReport(check=check_name, census={})
        rep.records.append(Record(
            name="engine-precondition", identity="inputs admit this check",
            residual=1.0, scale=0.0, tolerance=0.0,
            note=f"{type(e).__name__}: {e}"))
        return rep


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _map_on_cpus(fn, items):
    """[fn(x) for x in items], on a thread pool with one worker per CPU
    (numpy releases the GIL in its loops).  The pool is shut down, and its
    threads joined, before the call returns."""
    workers = min(_cpus(), len(items))
    if workers == 1:
        return [fn(x) for x in items]
    # imported here, not with the module: on a 2-vCPU host it takes
    # 7-10 ms, about 5 % of importing the CLI, and only sets of more than
    # one block use it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def _check_set(runs, samples):
    """The reports of `runs`, (check name, check) pairs, on one sample set.
    A set of more than BLOCK samples is checked block by block on every
    CPU, every check on one block before the next block starts, so that at
    most a few blocks' batches are alive at once, and each check's block
    reports merge into its report on the whole set (report.merge_blocks).
    A check that raises an input error on a block, or has a record that
    reads NaN, is checked again on the whole set on the calling thread:
    which stage fails first depends on the whole set, and so does the scale
    beside a NaN, which the checks take with Python's max."""
    n = len(samples.points)
    if n <= BLOCK:
        return [_guarded(lambda: check(samples), name) for name, check in runs]
    starts = range(0, n, BLOCK)

    def on_block(a):
        block = replace(samples, points=samples.points[a:a + BLOCK])
        reports = []
        # numpy's error state is per thread, so each block sets its own
        try:
            with np.errstate(all="ignore"):
                for _, check in runs:
                    try:
                        reports.append(check(block))
                    except INPUT_ERRORS:
                        reports.append(None)
        finally:
            # a kept input error's traceback would hold the block
            block._built.clear()
        return reports

    blocks = _map_on_cpus(on_block, starts)
    out = []
    for (name, check), reports in zip(runs, zip(*blocks)):
        if any(rep is None or any(math.isnan(r.residual) for r in rep.records)
               for rep in reports):
            out.append(_guarded(lambda: check(samples), name))
        else:
            out.append(merge_blocks(reports, starts))
    return out


def _reads(grid, points):
    """Whether grid.at(points) is finite; a point outside the grid's
    domain is left for the checks to report."""
    try:
        grid.at(points)
    except DomainError:
        return False
    return True


def _suite_runs(suite, spec, mg, cr, t):
    """The (check name, check of a sample set) pairs of one suite at
    tolerance t.  Each check is looked up as a module attribute here, so a
    rebinding of its name (bench/tracer.py times checks so) holds."""
    if suite == "ambient":
        return [("statistical",
                 lambda s: check_statistical(spec.sss.st, s, t))]
    if suite == "contact":
        acs, g = spec.sss.acs, spec.sss.st.g
        return [(name, lambda s, fn=fn: fn(acs, g, s, t))
                for name, fn in (("almost-contact", check_almost_contact),
                                 ("contact-metric", check_contact_metric),
                                 ("sasakian", check_sasakian))] + [
            ("sasakian-statistical",
             lambda s: check_sasakian_statistical(spec.sss, s, t))]
    if suite == "submanifold":
        return [(name, lambda s, fn=fn: fn(mg, s, t)) for name, fn in (
            ("gauss-weingarten", check_gauss_weingarten),
            ("structure-identities", check_structure_identities),
            ("transport-identities", check_transport_identities))]
    if suite == "cr":
        return [(name, lambda s, fn=fn: fn(cr, s, t)) for name, fn in (
            ("contact-cr", check_contact_cr),
            ("integrability-d", check_integrability_D),
            ("integrability-dperp", check_integrability_Dperp),
            ("dual-shape-identities", check_dual_shape_identities),
            ("geodesic-classifiers", classify_geodesic),
            ("mixed-geodesic-consequences",
             check_mixed_geodesic_consequences))]
    return [("cr-product", lambda s: check_cr_product(cr, s, t))]


def run(spec, suites, seed=None, count=None, tol=None):
    """Execute the requested suites in dependency order and collect one
    report document.  Engine precondition failures become failed records;
    the run continues."""
    if suites == "auto":
        suites = ["ambient", "contact"]
        if spec.has_submanifold:
            suites.append("submanifold")
        if spec.d_gens:
            suites += ["cr", "product"]
    suites = [s for s in SUITE_ORDER if s in suites]
    missing = []
    for s in suites:
        if s in ("submanifold", "cr", "product") and not spec.has_submanifold:
            missing.append(f"suite {s!r} requires a submanifold block")
        elif s in ("cr", "product") and not spec.d_gens:
            missing.append(f"suite {s!r} requires submanifold D generators")
    if missing:
        raise SpecError(missing)

    sampling = dict(spec.sampling)
    if seed is not None:
        sampling["seed"] = seed
    if count is not None:
        sampling["count"] = count
    eff_seed = sampling.get("seed", DEFAULT_SEED)
    eff_count = sampling.get("count", DEFAULT_COUNT)

    # what the requested suites share, each built once before any check
    # runs: the ambient samples, the domain samples with their
    # MapGeometry, and the CR structure over that MapGeometry.  A set whose
    # checks read only constant fields is checked at its first point
    # (Samples.collapsed); a domain set also needs a finite image at every
    # point, or an overflow past the first would go unreported.
    wanted = set(suites)
    ambient = domain = mg = cr = None
    if wanted & {"ambient", "contact"}:
        ambient = _spec_samples(spec, "ambient", eff_seed, eff_count)
        if spec.sss.st.is_constant and spec.sss.acs.is_constant:
            ambient = ambient.collapsed()
    if wanted & {"submanifold", "cr", "product"}:
        domain = _spec_samples(spec, "domain", eff_seed, eff_count)
        mg = MapGeometry(spec.embedding, spec.sss.st, acs=spec.sss.acs)
        if (mg.is_constant and all(X.is_constant
                                   for X in spec.d_gens + spec.dperp_gens)
                and _reads(spec.embedding, domain.points)):
            domain = domain.collapsed()
    if wanted & {"cr", "product"}:
        cr = CRStructure(mg, spec.d_gens, spec.dperp_gens)

    suite_runs = {}
    for suite in suites:
        t = tol if tol is not None else spec.tol_for(suite)
        suite_runs[suite] = _suite_runs(suite, spec, mg, cr, t)

    # every check that reads a sample set runs in one pass over the set;
    # what its checks shared (the connection batch, the contexts, in the
    # set's memo) is dropped once they are done, so no set's arrays
    # outlive its checks
    reports = {}
    for group, samples in ((("ambient", "contact"), ambient),
                           (("submanifold", "cr", "product"), domain)):
        runs = [pair for s in suites if s in group
                for pair in suite_runs[s]]
        if runs:
            reports.update(zip([name for name, _ in runs],
                               _check_set(runs, samples)))
            samples._built.clear()
    if "cr" in wanted:
        # the consequences take the classifier's verdict on the whole set
        reports["mixed-geodesic-consequences"] = mixed_geodesic_verdict(
            reports["mixed-geodesic-consequences"],
            reports["geodesic-classifiers"])

    suite_reports = {}
    overall = True
    for suite in suites:
        checks = [reports[name] for name, _ in suite_runs[suite]]
        passed = all(rep.passed for rep in checks)
        overall = overall and passed
        suite_reports[suite] = {"passed": passed,
                                "checks": [rep.to_dict() for rep in checks],
                                "reports": checks}

    digest = hashlib.sha256(spec.canonical_bytes()).hexdigest()
    # listed points have no seed or count; those the flags or the spec
    # give would not be the ones the checks ran on
    mode = sampling.get("mode", "seeded-random")
    doc = {
        "tool": {"name": "contactstat", "version": __version__},
        "input": {"name": spec.name, "digest": digest},
        "sampling": ({"mode": mode} if mode == "points" else
                     {"seed": eff_seed, "count": eff_count, "mode": mode}),
        "suites": {s: {"passed": r["passed"], "checks": r["checks"]}
                   for s, r in suite_reports.items()},
        "overall": "PASS" if overall else "FAIL",
    }
    return doc, suite_reports, (0 if overall else 1)


def _format_text(doc, suite_reports):
    lines = [f"contactstat {doc['tool']['version']}  "
             f"input={doc['input']['name']}  digest={doc['input']['digest'][:12]}",
             "sampling: " + " ".join(f"{k}={doc['sampling'][k]}"
                                     for k in ("mode", "seed", "count")
                                     if k in doc["sampling"]),
             ""]
    for suite, data in suite_reports.items():
        verdict = "PASS" if data["passed"] else "FAIL"
        lines.append(f"== suite {suite}: {verdict}")
        for rep in data["reports"]:
            lines.append(f"-- {rep.check}")
            lines.append(rep.table())
            lines.append("")
    lines.append(f"overall: {doc['overall']}")
    return "\n".join(lines) + "\n"


def _cmd_check(args):
    try:
        spec = load_spec(args.spec)
        if args.suites.strip() == "auto":
            suites = "auto"
        else:
            suites = [s.strip() for s in args.suites.split(",") if s.strip()]
            unknown = [s for s in suites if s not in SUITE_ORDER]
            if unknown:
                raise SpecError([f"unknown suite {s!r}; expected subset of "
                                 f"{','.join(SUITE_ORDER)}" for s in unknown])
            if not suites:
                raise SpecError(["no suites requested"])
        doc, suite_reports, code = run(spec, suites, seed=args.seed,
                                       count=args.samples, tol=args.tol)
    except SpecError as e:
        for d in e.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 2
    if args.format == "structured":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_format_text(doc, suite_reports))
    return code


def _cmd_fixtures(args):
    if args.fixtures_cmd == "list":
        for name in fixture_names():
            doc = fixture_doc(name)
            dim = doc["ambient"]["dim"]
            sub = doc.get("submanifold")
            shape = f"ambient dim {dim}"
            if sub:
                shape += f", submanifold dim {sub['dim']}"
            print(f"{name:28s} {shape}")
        return 0
    name = args.name
    try:
        doc = fixture_doc(name)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _checked_value(convert, ok, wanted):
    """An argparse type: `convert` of the text, refused with a message
    naming what was `wanted` unless `ok` holds for it."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value
    return parse


def build_parser():
    ap = argparse.ArgumentParser(
        prog="verify",
        description="Residual checks for statistical, Sasakian and contact "
                    "CR structures on chart fixtures.")
    ap.add_argument("--version", action="version",
                    version=f"contactstat {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    chk = sub.add_parser("check", help="run check suites against a spec")
    chk.add_argument("--spec", required=True,
                     help="path to a spec file, or a built-in fixture name")
    chk.add_argument("--suites", default="auto",
                     help="comma-separated subset of "
                          f"{','.join(SUITE_ORDER)}, or 'auto' for all "
                          "suites the spec provides inputs for")
    chk.add_argument("--seed", default=None, type=_checked_value(
        int, lambda v: v >= 0, "a non-negative integer"))
    chk.add_argument("--samples", default=None, type=_checked_value(
        int, lambda v: v >= 1, "a positive integer"))
    chk.add_argument("--tol", default=None, type=_checked_value(
        float, lambda v: math.isfinite(v) and v > 0,
        "a finite positive number"))
    chk.add_argument("--format", choices=("text", "structured"),
                     default="text")
    chk.set_defaults(fn=_cmd_check)

    fix = sub.add_parser("fixtures", help="list or dump built-in fixtures")
    fsub = fix.add_subparsers(dest="fixtures_cmd", required=True)
    fsub.add_parser("list", help="list fixture names")
    dump = fsub.add_parser("dump", help="print a fixture spec document")
    dump.add_argument("name")
    fix.set_defaults(fn=_cmd_fixtures)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 for --help/--version;
        # anything else is still a usage problem under this contract
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
