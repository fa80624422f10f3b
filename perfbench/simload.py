"""The two simulator workloads: ``hot-key-scale`` and ``zipf-churn-lossy``.

Both drive the public simulator API — :class:`CupConfig`,
:class:`CupNetwork` and the scenario DSL — with inputs made from the
seed.  One measured instance builds a fresh network (set-up), runs it
to the end of its drain (run) and keeps the :class:`MetricsSummary`.
Instances repeat with the same seed until the run's time is spent, so
host timings are medians and every instance doubles as a determinism
check against the first.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

from common import GcWatch, Result, peak_rss_mb
from layers import finish, ratio, recovery_metrics, span_metrics
from tracing import SpanRecorder, install

from repro.core.protocol import CupConfig, CupNetwork
from repro.experiments.config import SMALL
from repro.scenarios.dsl import ChurnBurst, Quiet, Scenario, with_chaos

#: Workload parameters, echoed into the report (see README.md).
HOT_KEY_SCALE = {
    "preset": "small",
    "num_nodes": 16384,
    "overlay": "can",
    "total_keys": 1,
    "paper_rate": 100.0,
    "reliable_transport": True,
    "setup_only_builds_per_instance": 1,
}

ZIPF_CHURN_LOSSY = {
    "preset": "small",
    "num_nodes": 1024,
    "overlay": "chord",
    "keys_per_node": 1.0,
    "key_distribution": "zipf",
    "paper_rate": 50.0,
    "query_window_s": 600.0,
    "churn_bursts": [
        {"rate": 0.2, "graceful_fraction": 0.5},
        {"rate": 0.3, "graceful_fraction": 0.2},
    ],
    "chaos": {"loss": 0.05, "duplicate": 0.02, "jitter": 0.05},
    "setup_only_builds_per_instance": 6,
}


def _hot_key_scale(seed: int):
    params = HOT_KEY_SCALE
    config = SMALL.config(
        num_nodes=params["num_nodes"],
        overlay_type=params["overlay"],
        total_keys=params["total_keys"],
        query_rate=SMALL.rate(params["paper_rate"]),
        seed=seed,
    )
    return config, None


def _zipf_churn_lossy(seed: int):
    params = ZIPF_CHURN_LOSSY
    fifth = params["query_window_s"] / 5
    first, second = params["churn_bursts"]
    scenario = with_chaos(
        Scenario(
            name="zipf-churn",
            description="Zipf keys with two churn bursts",
            phases=(
                Quiet(fifth),
                ChurnBurst(fifth, **first),
                Quiet(fifth),
                ChurnBurst(fifth, **second),
                Quiet(fifth),
            ),
        ),
        **params["chaos"],
    )
    base = SMALL.config(
        num_nodes=params["num_nodes"],
        overlay_type=params["overlay"],
        total_keys=None,
        keys_per_node=params["keys_per_node"],
        key_distribution=params["key_distribution"],
        query_rate=SMALL.rate(params["paper_rate"]),
    )
    return scenario.build_config(base=base, seed=seed), scenario


WORKLOADS = {
    "hot-key-scale": (_hot_key_scale, HOT_KEY_SCALE),
    "zipf-churn-lossy": (_zipf_churn_lossy, ZIPF_CHURN_LOSSY),
}


@dataclasses.dataclass
class Instance:
    """One built-and-run network."""

    summary: object
    setup_s: float
    run_s: float
    network: CupNetwork


def build(config: CupConfig, scenario) -> CupNetwork:
    network = CupNetwork(config)
    if scenario is not None:
        scenario.compile_onto(network)
    return network


def setup_only(config: CupConfig, scenario, gc_watch: GcWatch,
               count: int) -> list:
    """Set-up seconds of ``count`` networks built and dropped unrun.

    Set-up is short (tens of milliseconds on ``zipf-churn-lossy``), so
    the run's set-up figure is a median over these builds as well as
    the measured instances' own.
    """
    seconds = []
    for _ in range(count):
        gc_watch.phase = "setup"
        started = time.perf_counter()
        network = build(config, scenario)
        seconds.append(time.perf_counter() - started)
        gc_watch.phase = None
        del network  # freed outside the timing
        gc.collect()
    return seconds


def run_instance(config: CupConfig, scenario, gc_watch: GcWatch,
                 on_built=None) -> Instance:
    """Build (set-up) and run one network; ``on_built`` marks the seam."""
    gc_watch.phase = "setup"
    started = time.perf_counter()
    network = build(config, scenario)
    built = time.perf_counter()
    if on_built is not None:
        on_built()
    gc_watch.phase = "run"
    summary = network.run()
    finished = time.perf_counter()
    gc_watch.phase = None
    return Instance(summary, built - started, finished - built, network)


def check(instance: Instance, reference, label: str) -> list:
    """Correctness of one instance against the first untraced one."""
    failures = [
        f"{label}: audit identity {name} fails ({lhs} != {rhs})"
        for name, lhs, rhs in instance.network.metrics.audit_identities()
        if lhs != rhs
    ]
    if reference is not None and instance.summary != reference:
        failures.append(f"{label}: MetricsSummary differs from the first run")
    return failures


def end_to_end(instances, setups) -> dict:
    """End-to-end metrics of same-seed instances (timings are medians)."""
    summary = instances[0].summary
    posted = summary.queries_posted
    answered = summary.local_hits + summary.answers_delivered
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "answered_frac": (answered / posted, "ratio"),
        "queries_per_s": (
            statistics.median(posted / i.run_s for i in instances), "1/s"
        ),
        "miss_latency_hops": (summary.miss_latency, "hops"),
        "cost_per_query_hops": (summary.total_cost / posted, "hops"),
        "miss_delay_ms": (summary.mean_answer_delay * 1000.0, "ms"),
    }


def traced_layers(workload, instance, recorder, run_first, gc_watch,
                  untraced_run_s):
    """Per-layer metrics of the traced instance; ``(layers, failures)``."""
    network = instance.network
    times, counts, spans = recorder.window(run_first)
    summary = instance.summary
    values = span_metrics(times)
    values.update(recovery_metrics(network.metrics.recovery_report()))
    setup_costs = network.metrics.setup_cost_report()
    transport = network.transport
    values.update({
        "sim.engine.events": network.sim.events_processed,
        "sim.engine.self_s": instance.run_s - times[None],
        "core.node.hit_ratio": ratio(summary.local_hits,
                                     summary.queries_posted),
        "sim.network.sends": transport.sent,
        "sim.network.lost": transport.lost,
        "sim.network.duplicated": transport.duplicated,
        "overlay.table_builds": setup_costs["routing_table_builds"],
        "overlay.build_s": setup_costs["routing_build_seconds"],
        "core.cache.keystates_end": sum(
            len(node.cache.states) for node in network.nodes.values()
        ),
        "trace.overhead_ratio": instance.run_s / untraced_run_s - 1.0,
    })
    return finish(workload, values, times, counts, spans, gc_watch)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    make, params = WORKLOADS[workload]
    config, scenario = make(seed)
    gc_watch = GcWatch()
    instances = []
    setups = []
    failures = []
    started = time.perf_counter()
    # Same-seed instances until the run's time is spent: at least two,
    # so the determinism check always has a pair (exactly two when
    # traced, followed by the traced instance).
    while True:
        instance = run_instance(config, scenario, gc_watch)
        reference = instances[0].summary if instances else None
        failures += check(instance, reference, f"run {len(instances) + 1}")
        instance.network = None
        instances.append(instance)
        gc.collect()  # between instances, outside every timed window
        setups += [instance.setup_s] + setup_only(
            config, scenario, gc_watch,
            params["setup_only_builds_per_instance"],
        )
        spent = time.perf_counter() - started
        if len(instances) >= 2 and (
            trace or spent * (len(instances) + 1) / len(instances) > seconds
        ):
            break
    metrics = end_to_end(instances, setups)
    summary = instances[0].summary
    posted = summary.queries_posted
    unanswered = posted - summary.local_hits - summary.answers_delivered
    notes = [
        f"parameters: {params}",
        f"instances: {len(instances)} (seed {seed}); queries posted "
        f"{posted}, local hits {summary.local_hits}, "
        f"answers {summary.answers_delivered}",
        "run_s per instance: "
        + ", ".join(f"{i.run_s:.3f}" for i in instances),
        "setup_s per build: " + ", ".join(f"{x:.4f}" for x in setups),
        f"sim_queries_per_s {metrics['queries_per_s'][0]:.1f} 1/s; "
        f"failed_frac {unanswered / posted:.6f} ratio (unanswered queries)",
        f"pygc gen2 setup={gc_watch.gen2['setup']} "
        f"run={gc_watch.gen2['run']} pause setup="
        f"{gc_watch.pause_s['setup']:.4f}s run={gc_watch.pause_s['run']:.4f}s",
    ]
    layers = None
    if trace:
        recorder = SpanRecorder()
        install(recorder)
        gc_watch.reset()
        marks = []
        traced = run_instance(config, scenario, gc_watch,
                              on_built=lambda: marks.append(recorder.mark()))
        failures += check(traced, summary, "traced run")
        layers, trace_failures = traced_layers(
            workload, traced, recorder, marks[0], gc_watch,
            untraced_run_s=statistics.median(i.run_s for i in instances),
        )
        failures += trace_failures
    gc_watch.close()
    attempted = len(instances) + (1 if trace else 0)
    failed = len({failure.split(":")[0] for failure in failures})
    return Result(attempted=attempted, failed=failed,
                  metrics=metrics, layers=layers, failures=failures,
                  notes=notes)
