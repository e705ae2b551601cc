"""Workload definitions: each workload is a fixed list of `verify check`
invocations (one pass over the list is a *round*), with sample seeds derived
from the benchmark seed.

Round 0 always uses the CLI's default sample seed, so every run compares
residuals and witnesses with the committed reference; later rounds use seeds
derived from the benchmark seed and are compared on exit codes, record names
and statuses, which do not depend on the sample seed.
"""

import json
import random

DEFAULT_SEED = 42
FIXTURES = ("fix-s3", "fix-cr5", "sasaki-r7-cr", "paper-r7-euclidean",
            "paper-r7-frame-orthonormal")
SWEEP_SIZE = 24

# name -> (spec keys, suites, samples); a key is a fixture name or a
# spec-sweep document name, written to a file before timing
WORKLOADS = {
    "cr-sasaki": (("sasaki-r7-cr", "fix-cr5"), "auto", 256),
    "cr-flat": (("paper-r7-euclidean", "paper-r7-frame-orthonormal"),
                "auto", 256),
    "ambient-dense": (FIXTURES, "ambient,contact", 4096),
    "spec-sweep": (tuple(f"sweep-{i:02d}" for i in range(SWEEP_SIZE)),
                   "auto", 8),
}

# reduced sizes for the self-test (bench/test_bench.py): sample counts, and
# only the first SMOKE_KEYS specs of each workload
SMOKE_SAMPLES = {"cr-sasaki": 8, "cr-flat": 8, "ambient-dense": 64,
                 "spec-sweep": 8}
SMOKE_KEYS = 4


def sweep_doc(index):
    """Spec-sweep document `index`: the fix-cr5 ambient on even indices and
    the sasaki-r7-cr ambient on odd ones, with lambda stepping through
    [0.5, 1.9375]; indices 2 and 3 mod 4 give K as explicit coefficients
    lambda * eta (x) eta (x) xi instead of {"lambda": value}."""
    from contactstat.fixtures import fixture_doc

    base = "fix-cr5" if index % 2 == 0 else "sasaki-r7-cr"
    lam = 0.5 + 0.0625 * index
    doc = fixture_doc(base)
    amb = doc["ambient"]
    if index % 4 >= 2:
        coeffs = {}
        eta, xi = amb["eta"], amb["xi"]
        for k, xk in enumerate(xi):
            for i, ei in enumerate(eta):
                for j, ej in enumerate(eta):
                    if "0" not in (xk, ei, ej):
                        coeffs[f"{k + 1} {i + 1} {j + 1}"] = \
                            f"{lam!r}*({ei})*({ej})*({xk})"
        amb["K"] = {"coefficients": coeffs}
        branch = "coeffs"
    else:
        amb["K"] = {"lambda": lam}
        branch = "lambda"
    doc["name"] = f"sweep-{index:02d}-{base}-{branch}-{lam!r}"
    return doc


def write_sweep(workdir):
    """Write every spec-sweep document into `workdir`; returns
    {key: path}."""
    paths = {}
    for i in range(SWEEP_SIZE):
        path = workdir / f"sweep-{i:02d}.json"
        path.write_text(json.dumps(sweep_doc(i), indent=1, sort_keys=True))
        paths[f"sweep-{i:02d}"] = str(path)
    return paths


def sample_seed(bench_seed, rnd, pos):
    if rnd == 0:
        return DEFAULT_SEED
    return random.Random(f"{bench_seed}:{rnd}:{pos}").randrange(1, 2 ** 31)


def round_plan(workload, bench_seed, rnd, paths, smoke=False):
    """The invocations of round `rnd`: dicts with the reference key, the
    sample seed, the sample count and the argv passed to cli.main."""
    keys, suites, n = WORKLOADS[workload]
    if smoke:
        keys, n = keys[:SMOKE_KEYS], SMOKE_SAMPLES[workload]
    plan = []
    for pos, key in enumerate(keys):
        seed = sample_seed(bench_seed, rnd, pos)
        plan.append({
            "ref": f"{key}|{suites}|{n}", "seed": seed, "samples": n,
            "argv": ["check", "--spec", paths.get(key, key),
                     "--suites", suites, "--seed", str(seed),
                     "--samples", str(n), "--format", "structured"]})
    return plan
