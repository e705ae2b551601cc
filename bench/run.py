"""contactstat benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each run starts fresh
single-threaded interpreters (bench/worker.py) with src/ on the path:

  setup    SETUP_REPEATS interpreters, half before and half after the
           measure run, each import contactstat.cli and load every spec of
           the workload once; setup_s is the median
  measure  one interpreter calls contactstat.cli.main(argv) in process, one
           invocation after another (closed loop, one client), in whole
           rounds over the workload's invocation list for --seconds, and
           checks every report against bench/reference.json

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 an untraced and then a traced measure run share the --seconds, and
the line carries the per-layer metrics, each per round, plus the tracing
overhead.
Spans and a record of the run go to bench/out/.  Exits 2 without a result
when the checkout has no contactstat sources or a worker fails.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import workloads  # noqa: E402  (bench/ is on sys.path as the script directory)

SETUP_REPEATS = 11
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MACHINE_SETTINGS = ("none changed: no cache drops, no CPU frequency pinning, "
                    "no affinity or priority changes")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode, job, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time budget of {RUN_BUDGET_S:.0f} s spent before {mode}")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker still running after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def samples_per_s(res):
    """Median over rounds of samples checked per second of invocation
    time."""
    return statistics.median(
        sum(n for _, n, _ in r["invocations"]) / sum(dt for _, _, dt in r["invocations"])
        for r in res["rounds"])


def invocation_s(res):
    """Geometric mean over the workload's specs of each spec's median
    invocation wall time."""
    per_spec = {}
    for r in res["rounds"]:
        for ref, _, dt in r["invocations"]:
            per_spec.setdefault(ref, []).append(dt)
    logs = [math.log(statistics.median(v)) for v in per_spec.values()]
    return math.exp(sum(logs) / len(logs))


def end_to_end(setup_runs, res):
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setup_runs), "s"),
        "samples_per_s": (samples_per_s(res), "samples/s"),
        "invocation_s": (invocation_s(res), "s"),
        # after the first round: the process keeps growing across rounds,
        # so a later reading would tie the figure to the program's speed
        "peak_rss_mb": (res["rounds"][0]["peak_rss_mb"], "MiB"),
        "correct_frac": (1.0 - res["failed"] / res["attempted"], "ratio"),
    }


def per_layer(plain, traced):
    rounds = len(traced["rounds"])
    out = {}
    for name, total in traced["layers"].items():
        unit = "s/round" if name.endswith((".s", "_s")) else "count/round"
        out[name] = (total / rounds, unit)
    wall = sum(r["wall_s"] for r in traced["rounds"])
    out["trace.unattributed_s"] = (
        (wall - traced["layers"]["cli.main.s"]) / rounds, "s/round")
    out["trace.overhead_frac"] = (
        1.0 - samples_per_s(traced) / samples_per_s(plain), "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes and one set-up, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "contactstat" / "cli.py").is_file():
        print(f"error: no contactstat sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
            paths = {}
            if args.workload == "spec-sweep":
                sys.path.insert(0, str(ROOT / "src"))
                paths = workloads.write_sweep(Path(tmp))
            specs = [inv["argv"][2] for inv in workloads.round_plan(
                args.workload, args.seed, 0, paths, args.smoke)]
            job = {"workload": args.workload, "bench_seed": args.seed,
                   "seconds": args.seconds, "paths": paths,
                   "smoke": args.smoke, "trace": False}
            if args.trace:
                # the two measure runs share the run's --seconds
                job["seconds"] = args.seconds / 2
                plain = run_child("measure", job, deadline)
                traced = run_child("measure", dict(
                    job, trace=True,
                    spans_path=str(OUT / f"spans-{tag}.json")), deadline)
                runs = [plain, traced]
                metrics = per_layer(plain, traced)
            else:
                # half the set-ups before the measure run and half after,
                # so one slow moment on the host does not move them all
                repeats = 1 if args.smoke else SETUP_REPEATS
                setup_runs = [run_child("setup", {"specs": specs}, deadline)
                              for _ in range(repeats // 2 + 1)]
                plain = run_child("measure", job, deadline)
                setup_runs += [run_child("setup", {"specs": specs}, deadline)
                               for _ in range(repeats // 2)]
                plain["setup_s"] = [r["setup_s"] for r in setup_runs]
                runs = [plain]
                metrics = end_to_end(setup_runs, plain)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    src = str(ROOT / "src")
    correct = failed == 0 and all(r["package"].startswith(src) for r in runs)
    env = {
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": plain["numpy"],
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "machine_settings": MACHINE_SETTINGS,
        "workload": args.workload, "bench_seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": [len(r["rounds"]) for r in runs],
        "failures": [f for r in runs for f in r["failures"]],
        "argv": plain["argv"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT / f"run-{tag}.json", "w") as f:
        json.dump({"env": env, "result": result, "runs": runs}, f)
    print(json.dumps({"env": {k: v for k, v in env.items() if k != "argv"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
