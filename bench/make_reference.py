"""Write bench/reference.json, the correctness reference of the benchmark.

    PYTHONPATH=src python3 bench/make_reference.py

For every (spec, suites, samples) the workloads and the self-test invoke,
this records the exit code and the record names and statuses, and at the
default sample seed every residual and witness.  It refuses to write a
reference whose names or statuses change across STATUS_SEEDS extra sample
seeds, because the gate compares them at seeds derived from the benchmark
seed.  Regenerate only from a commit whose reports are known to be right.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import gate
import workloads
from worker import invoke

STATUS_SEEDS = 5


def entry_for(cli, argv, ref, seeds):
    def run_at(seed):
        at = list(argv)
        at[at.index("--seed") + 1] = str(seed)
        return invoke(cli, at)

    code, out, error = run_at(workloads.DEFAULT_SEED)
    if error is not None:
        sys.exit(f"{ref}: raised {error}")
    sig, detail = gate.summarize(json.loads(out))
    for seed in seeds:
        c, o, e = run_at(seed)
        if e is not None or c != code or gate.summarize(json.loads(o))[0] != sig:
            sys.exit(f"{ref}: names, statuses or exit code differ at sample "
                     f"seed {seed}")
    return {"exit": code, "signature": sig, "default_seed": detail}


def main():
    import contactstat.cli as cli

    rng = random.Random(0)
    seeds = [rng.randrange(1, 2 ** 31) for _ in range(STATUS_SEEDS)]
    entries, signatures = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = workloads.write_sweep(Path(tmp))
        for name in workloads.WORKLOADS:
            for smoke in (False, True):
                for inv in workloads.round_plan(name, 0, 0, paths, smoke):
                    ref = inv["ref"]
                    if ref in entries:
                        continue
                    e = entry_for(cli, inv["argv"], ref, seeds)
                    sig = e.pop("signature")
                    sid = hashlib.sha256(json.dumps(sig).encode()).hexdigest()[:16]
                    signatures[sid] = sig
                    entries[ref] = dict(e, signature=sid)
                    print(f"{ref}: exit {e['exit']}, {len(sig)} records",
                          file=sys.stderr)
    with open(gate.REFERENCE_PATH, "w") as f:
        json.dump({"default_seed": workloads.DEFAULT_SEED,
                   "residual_atol": gate.RESIDUAL_ATOL,
                   "status_seeds_checked": seeds,
                   "signatures": signatures, "entries": entries},
                  f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
