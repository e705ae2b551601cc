"""Correctness gate: compares one `verify check` outcome with the reference
committed in bench/reference.json.

An invocation fails when it raises, when its exit code differs from the
reference's, or when its record names or statuses differ.  At the default
sample seed it also fails when a witness differs or a residual moves by more
than RESIDUAL_ATOL.  A FAIL verdict that matches the reference is a correct
result.
"""

import json
from pathlib import Path

RESIDUAL_ATOL = 1e-12
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path=REFERENCE_PATH):
    with open(path) as f:
        return json.load(f)


def summarize(doc):
    """Signature rows (suite, check, record, status) and detail rows
    (residual, witness) of a structured report, in report order."""
    sig, detail = [], []
    for suite, sdata in doc["suites"].items():
        for chk in sdata["checks"]:
            for rec in chk["records"]:
                sig.append([suite, chk["check"], rec["name"], rec["status"]])
                detail.append([rec["residual"], rec.get("witness")])
    return sig, detail


def compare(reference, ref_key, code, out, error, full):
    """None when the outcome matches the reference entry `ref_key`,
    otherwise a one-line reason.  `full` also compares residuals and
    witnesses, which the reference holds for the default seed only."""
    entry = reference["entries"].get(ref_key)
    if entry is None:
        return f"no reference entry {ref_key!r}"
    if error is not None:
        return f"raised {error}"
    if code != entry["exit"]:
        return f"exit code {code}, reference {entry['exit']}"
    try:
        doc = json.loads(out)
        sig, detail = summarize(doc)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {e!r}"
    want = reference["signatures"][entry["signature"]]
    if sig != want:
        for got_row, want_row in zip(sig, want):
            if got_row != want_row:
                return f"record {'/'.join(got_row)}, reference {'/'.join(want_row)}"
        return f"{len(sig)} records, reference {len(want)}"
    if full:
        for row, (res, wit), (ref_res, ref_wit) in zip(sig, detail,
                                                       entry["default_seed"]):
            if not (res == ref_res or abs(res - ref_res) <= RESIDUAL_ATOL):
                return f"residual of {'/'.join(row[:3])} is {res!r}, reference {ref_res!r}"
            if wit != ref_wit:
                return f"witness of {'/'.join(row[:3])} is {wit}, reference {ref_wit}"
    return None
