"""Deterministic sample-point generation for residual checks."""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 42
DEFAULT_COUNT = 64
DEFAULT_BOX = (-1.0, 1.0)

__all__ = ["Samples", "SamplingError", "sample_box", "samples_from_points",
           "DEFAULT_SEED", "DEFAULT_COUNT", "DEFAULT_BOX"]


class SamplingError(ValueError):
    """The acceptance predicate kept rejecting a point."""


@dataclass(frozen=True)
class Samples:
    """A batch of chart points used by every check.

    points has shape (count, dim).  Reports are deterministic given the
    points, so construction is the only place randomness enters.
    """

    points: np.ndarray
    seed: int | None = None
    box: tuple[float, float] = DEFAULT_BOX
    resampled: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("samples must be a non-empty (count, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def count(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def sample_box(dim, count=DEFAULT_COUNT, seed=DEFAULT_SEED, box=DEFAULT_BOX,
               accept=None, max_rounds=10):
    """Uniform points in box^dim from a seeded PRNG.

    `accept` is an optional boolean-mask predicate over a point batch;
    rejected points are resampled at most `max_rounds` times, after which a
    SamplingError reports the first stubborn point.
    """
    lo, hi = box
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(count, dim))
    resampled = 0
    if accept is not None:
        for _ in range(max_rounds):
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
    return Samples(points=pts, seed=seed, box=box, resampled=resampled)


def samples_from_points(points):
    return Samples(points=np.asarray(points, dtype=float), seed=None)
