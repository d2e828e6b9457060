"""Small numeric helpers of the benchmark: percentiles, PSNR, metric names."""

from __future__ import annotations

import math
import re
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "batch_rate",
    "check_metric_name",
    "check_unit",
    "percentile",
    "psnr_db",
]

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples above it.

    The second item says how far the tail is resolved: a p90 read from fewer
    than 100 samples has fewer than 10 samples beyond it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def batch_rate(walls: Sequence[float], size: int) -> float:
    """Median rate, in ops per second, of consecutive batches of ``size`` ops.

    The window is cut into whole batches in run order (a last partial batch
    is dropped unless it is the only one).  Unlike ops over the summed wall,
    the median does not move when a few ops stall on a busy host.
    """
    if not walls:
        raise ValueError("rate of an empty sample")
    if size < 1:
        raise ValueError(f"batch size must be at least 1, got {size}")
    whole = max(1, len(walls) // size) * size
    batches = [walls[i : i + size] for i in range(0, whole, size)]
    return float(np.median([len(b) / sum(b) for b in batches]))


def psnr_db(sum_sq_err: float, count: int, value_range: float) -> float:
    """PSNR in dB from a summed squared error over ``count`` values.

    An exact reconstruction has no finite PSNR; its squared error is floored
    at the smallest normal double so the figure stays a finite number.
    """
    mse = max(sum_sq_err / count, float(np.finfo(np.float64).tiny))
    return 20.0 * math.log10(value_range) - 10.0 * math.log10(mse)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not _NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a valid metric unit, else raise ValueError."""
    if not _UNIT.fullmatch(unit):
        raise ValueError(f"invalid metric unit {unit!r}")
    return unit
