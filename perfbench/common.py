"""Shared measurement helpers: percentiles, peak memory, GC pauses."""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import time
from typing import Dict, List, Optional, Tuple


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]); NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcWatch:
    """Gen-2 collections and collector pause time, split by phase.

    Registered on ``gc.callbacks``; the benchmark sets :attr:`phase` to
    ``"setup"`` or ``"run"`` around its timed windows.  Nothing about
    the collector's behaviour is changed — pauses users pay stay in the
    timings, and are reported here alongside them.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.reset()
        self._began = 0.0
        gc.callbacks.append(self._callback)

    def reset(self) -> None:
        self.gen2 = {"setup": 0, "run": 0}
        self.pause_s = {"setup": 0.0, "run": 0.0}

    def _callback(self, event: str, info: dict) -> None:
        if event == "start":
            self._began = time.perf_counter()
            return
        phase = self.phase
        if phase is None:
            return
        self.pause_s[phase] += time.perf_counter() - self._began
        if info.get("generation") == 2:
            self.gen2[phase] += 1

    def close(self) -> None:
        gc.callbacks.remove(self._callback)


Metrics = Dict[str, Tuple[float, str]]


@dataclasses.dataclass
class Result:
    """What one workload run reports back to ``run.py``."""

    attempted: int
    failed: int
    #: End-to-end metrics, name -> (value, unit).
    metrics: Metrics
    #: Per-layer metrics of the traced run (``None`` untraced).
    layers: Optional[Metrics] = None
    #: Failed correctness checks, one line each.
    failures: List[str] = dataclasses.field(default_factory=list)
    #: Extra human-readable report lines (parameters, sample counts,
    #: metrics that only one world has).
    notes: List[str] = dataclasses.field(default_factory=list)
