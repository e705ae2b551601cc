"""Deterministic sample-point generation for residual checks."""

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_SEED = 42
DEFAULT_COUNT = 64
DEFAULT_BOX = (-1.0, 1.0)
MAX_ROUNDS = 10

__all__ = ["Samples", "SamplingError", "sample_box",
           "DEFAULT_SEED", "DEFAULT_COUNT", "DEFAULT_BOX"]


class SamplingError(ValueError):
    """The acceptance predicate kept rejecting a point."""


@dataclass(frozen=True)
class Samples:
    """A batch of chart points used by every check.

    points has shape (N, dim).  `count` is the number of samples the set
    stands for, N unless the set is collapsed: where every field a check
    reads is the same at every point, the checks see the same arithmetic
    at each one, so `collapsed()` keeps the first point only and the
    reports, which give `count`, stay those of all N.  Reports are
    deterministic given the points, so construction is the only place
    randomness enters.
    """

    points: np.ndarray
    resampled: int = 0
    count: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("samples must be a non-empty (count, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")
        object.__setattr__(self, "points", pts)
        if self.count is None:
            object.__setattr__(self, "count", pts.shape[0])

    def collapsed(self):
        """The set at its first point, with `count` and `resampled` kept."""
        return replace(self, points=self.points[:1])


def sample_box(dim, count=DEFAULT_COUNT, seed=DEFAULT_SEED, box=DEFAULT_BOX,
               accept=None):
    """Uniform points in box^dim from a seeded PRNG.

    `accept` is an optional boolean-mask predicate over a point batch;
    rejected points are resampled at most MAX_ROUNDS times, after which a
    SamplingError reports the first stubborn point.
    """
    lo, hi = box
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(count, dim))
    resampled = 0
    if accept is not None:
        for _ in range(MAX_ROUNDS):
            ok = np.asarray(accept(pts), dtype=bool)
            if ok.all():
                break
            bad = ~ok
            resampled += int(bad.sum())
            pts[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), dim))
        else:
            ok = np.asarray(accept(pts), dtype=bool)
            if not ok.all():
                first = pts[~ok][0]
                raise SamplingError(
                    f"sampling could not satisfy the acceptance predicate; "
                    f"stuck at point {first.tolist()}")
    return Samples(points=pts, resampled=resampled)
