"""One benchmark process, started fresh by bench/run.py with a JSON job on
stdin; prints one JSON result line.

    setup    import contactstat.cli and load every spec of the workload
             once; reports the elapsed time
    measure  run whole rounds of the workload through cli.main in process
             for the requested seconds, checking every outcome against the
             reference; with "trace" set, the tracer's wrappers are installed
             first and per-layer totals are returned

Nothing from contactstat or numpy is imported before the setup clock starts.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def invoke(cli, argv):
    """Run cli.main(argv) with stdout and stderr captured; returns
    (exit code, stdout text, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:
            error = f"{type(e).__name__}: {e}"
    return code, out.getvalue(), error


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(job):
    t0 = time.perf_counter()
    import contactstat.cli as cli
    for spec in job["specs"]:
        cli.load_spec(spec)
    return {"setup_s": time.perf_counter() - t0}


def measure(job):
    import numpy as np

    import contactstat
    import contactstat.cli as cli
    import gate
    import workloads

    reference = gate.load_reference()
    spans = None
    if job["trace"]:
        from tracer import Tracer
        spans = Tracer()
        spans.install()

    rounds, argvs, failures = [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        plan = workloads.round_plan(job["workload"], job["bench_seed"],
                                    len(rounds), job["paths"], job["smoke"])
        r_start = time.perf_counter()
        invocations = []
        for inv in plan:
            if spans is not None:
                spans.invocation = attempted
            t0 = time.perf_counter()
            code, out, error = invoke(cli, inv["argv"])
            dt = time.perf_counter() - t0
            attempted += 1
            reason = gate.compare(reference, inv["ref"], code, out, error,
                                  full=inv["seed"] == workloads.DEFAULT_SEED)
            if reason is not None:
                failed += 1
                failures.append(f"{' '.join(inv['argv'])}: {reason}")
            invocations.append([inv["ref"], inv["samples"], dt])
            argvs.append(inv["argv"])
        now = time.perf_counter()
        rounds.append({"invocations": invocations, "wall_s": now - r_start,
                       "peak_rss_mb": peak_rss_mb()})
        # stop where the run ends closest to the requested seconds
        elapsed = now - t_start
        if elapsed + elapsed / len(rounds) / 2 > job["seconds"]:
            break

    result = {
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "failures": failures[:10], "argv": argvs,
        "numpy": np.__version__, "package": contactstat.__file__,
    }
    if spans is not None:
        result["layers"] = spans.totals()
        spans.write_spans(job["spans_path"])
    return result


def main():
    mode = sys.argv[1]
    job = json.loads(sys.stdin.read())
    result = setup(job) if mode == "setup" else measure(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
