"""Shared execution helpers for the experiment harnesses.

Runs are deterministic functions of their :class:`CupConfig`, so results
are cached at two layers: a per-process memo (several experiments share
their standard-caching baselines — e.g. Table 1 normalizes every policy
row by the same baseline run — and the benchmark suite re-invokes
harnesses) and the persistent on-disk cache of
:mod:`repro.experiments.runcache`, which survives across processes and
is shared with the parallel executor.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.core.policies import CutoffPolicy
from repro.core.protocol import CupConfig
from repro.metrics.collector import MetricsSummary

_CACHE: Dict[tuple, MetricsSummary] = {}

#: Config fields that do not affect a run's results: tracing and the
#: durable-snapshot settings (a checkpointed run is byte-identical to a
#: plain one).  Every other field is part of the run-cache key.
_RESULT_NEUTRAL_FIELDS = frozenset({
    "trace", "checkpoint_path", "checkpoint_every_events",
    "checkpoint_every_seconds",
})
#: Fields keyed through a normalised value in :func:`_cache_key`.
_NORMALISED_FIELDS = frozenset({"policy", "total_keys", "keys_per_node"})
_PLAIN_KEY_FIELDS = tuple(
    field.name for field in dataclasses.fields(CupConfig)
    if field.name not in _RESULT_NEUTRAL_FIELDS | _NORMALISED_FIELDS
)


def _cache_key(config: CupConfig) -> tuple:
    """The run-cache identity of ``config``: every result-bearing field.

    A policy object keys by its name, and ``total_keys`` with the
    ``keys_per_node`` it overrides fold into
    :meth:`CupConfig.resolved_total_keys`.
    """
    policy = config.policy
    policy_key = policy.name if isinstance(policy, CutoffPolicy) else policy
    return (
        policy_key,
        config.resolved_total_keys(),
        *(getattr(config, name) for name in _PLAIN_KEY_FIELDS),
    )


def memo_get(key: tuple) -> Optional[MetricsSummary]:
    """In-process memo lookup (the executor shares this layer)."""
    return _CACHE.get(key)


def memo_put(key: tuple, summary: MetricsSummary) -> None:
    """Record a finished run in the in-process memo."""
    _CACHE[key] = summary


def run_config(config: CupConfig, use_cache: bool = True) -> MetricsSummary:
    """Build the network for ``config``, run it, return the summary.

    Lookup order: per-process memo, then the persistent disk cache (when
    one is active), then an actual simulation run — whose result feeds
    both layers.  A single-cell batch through the executor: one code
    path owns the cache layering.
    """
    from repro.experiments.executor import Cell, execute

    return execute([Cell("run", config)], use_cache=use_cache)["run"]


def run_pair(config: CupConfig) -> Tuple[MetricsSummary, MetricsSummary]:
    """Run ``config`` and its standard-caching twin on the same workload.

    The twin differs only in ``mode`` — seeds and therefore the full
    arrival/key/node sequence are identical, which is what makes the
    paper's normalized comparisons meaningful.

    Both cells go through the executor as one batch, so with workers
    configured they run concurrently, and the twin — which many
    experiments share — is deduplicated against every cache layer
    rather than recomputed per call (or per worker).
    """
    from repro.experiments.executor import Cell, execute

    results = execute([
        Cell("cup", config),
        Cell("std", config.variant(mode="standard")),
    ])
    return results["cup"], results["std"]


def clear_cache() -> None:
    """Forget memoized runs (tests use this to force re-execution)."""
    _CACHE.clear()
