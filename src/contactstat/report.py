"""Residual records and check reports, the engine's universal output."""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Record", "CheckReport", "Tracker", "Residuals"]


@dataclass
class Record:
    """One named residual: what was checked, how big the worst defect is,
    and where it happened.

    `informational` records document an alternative convention or a
    diagnostic quantity; they never count toward pass/fail verdicts.
    """

    name: str
    identity: str
    residual: float
    scale: float
    tolerance: float
    witness: dict | None = None
    informational: bool = False
    note: str = ""

    @property
    def passed(self):
        if self.informational:
            return None
        return (math.isfinite(self.residual)
                and self.residual <= self.tolerance * (1.0 + self.scale))

    @property
    def status(self):
        if self.informational:
            return "INFO"
        return "PASS" if self.passed else "FAIL"

    def to_dict(self):
        out = {
            "name": self.name,
            "identity": self.identity,
            "residual": float(self.residual),
            "scale": float(self.scale),
            "tolerance": float(self.tolerance),
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class CheckReport:
    """Record collection for one check, with the sample census."""

    check: str
    records: list = field(default_factory=list)
    census: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(r.passed for r in self.records if not r.informational)

    def record(self, name):
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no record named {name!r} in {self.check}")

    def to_dict(self):
        return {
            "check": self.check,
            "passed": self.passed,
            "census": self.census,
            "records": [r.to_dict() for r in self.records],
        }

    def table(self):
        rows = [("record", "identity", "max residual", "witness", "status")]
        for r in self.records:
            wit = ""
            if r.witness:
                parts = []
                if "sample" in r.witness:
                    parts.append(f"s{r.witness['sample']:03d}")
                if "labels" in r.witness:
                    parts.append(r.witness["labels"])
                wit = " ".join(str(p) for p in parts)
            rows.append((r.name, r.identity, f"{r.residual:.3e}", wit, r.status))
        widths = [max(len(str(row[i])) for row in rows) for i in range(5)]
        lines = []
        for k, row in enumerate(rows):
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
            if k == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def _worse(value, residual):
    """Whether `value` replaces `residual` as the worst defect; NaN is
    worse than any number, so a non-finite sample is never dropped."""
    return value > residual or (math.isnan(value) and not math.isnan(residual))


class Tracker:
    """Keeps the worst of a stream of per-sample values and its witness:
    the first maximum in (sample, call) order, so ties resolve to the lowest
    sample index, then to the first call that reached it.  A NaN value
    counts as the worst."""

    def __init__(self):
        self.residual = 0.0
        self.scale = 0.0
        self.witness = None

    def add(self, values, labels=None, scale=0.0, index=None):
        """`values` has the sample axis first; `index` holds the sample
        numbers of its rows (default 0, 1, ...).  `scale` is the largest
        magnitude the values are measured against, for all samples at once
        or one per sample."""
        arr = np.abs(np.asarray(values, dtype=float))
        flat = arr.reshape(arr.shape[0], -1).max(axis=1) if arr.ndim > 1 else arr
        k = int(np.argmax(flat))
        value = float(flat[k])
        sample = k if index is None else int(index[k])
        self.scale = max(self.scale, float(np.max(scale)))
        if (self.witness is None or _worse(value, self.residual)
                or (not _worse(self.residual, value)
                    and sample < self.witness["sample"])):
            self.residual = value
            self.witness = {"sample": sample}
            if labels:
                self.witness["labels"] = labels

    def build(self, name, identity, tolerance, informational=False, note=""):
        """The record of the tracked values.  A name ending in `-alt-sign`
        is the opposite sign convention's twin of an identity: it is
        reported for information only."""
        if name.endswith("-alt-sign"):
            informational, note = True, "opposite sign convention"
        return Record(name=name, identity=identity, residual=self.residual,
                      scale=self.scale, tolerance=tolerance,
                      witness=self.witness, informational=informational,
                      note=note)


class Residuals:
    """The residual families of one check, declared once: `identities`
    maps each record name to its identity, in report order, and each name
    gets one Tracker."""

    def __init__(self, check, census, identities):
        self.check = check
        self.census = census
        self.identities = identities
        self.trackers = {name: Tracker() for name in self.identities}

    def add(self, name, values, labels=None, scale=0.0, index=None):
        """Tracker.add on the named family; an undeclared name is a
        KeyError."""
        self.trackers[name].add(values, labels, scale, index)

    def adder(self, scale, index=None):
        """add(name, values, labels=None) with one context's per-sample
        scale and sample numbers."""
        def add(name, values, labels=None):
            self.add(name, values, labels, scale, index)
        return add

    def report(self, tol, informational=(), notes=None):
        """The check's report, one record per declared name in declaration
        order; the names in `informational` never count toward the verdict,
        and `notes` maps a name to its record's note."""
        notes = notes or {}
        return CheckReport(check=self.check, census=self.census, records=[
            t.build(name, self.identities[name], tol,
                    informational=name in informational,
                    note=notes.get(name, ""))
            for name, t in self.trackers.items()])
