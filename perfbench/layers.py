"""The per-layer metric set and how traced runs fill it.

Every workload reports every metric below (zero where the workload
never enters the layer), so any two workloads can be compared row by
row.  ``EXPECT`` names, per workload, the spans that must be recorded
because the workload exists to stress them, and the spans and measured
counters that must stay at zero because it exists to skip them.
"""

from __future__ import annotations

PER_LAYER = [
    ("sim.engine.events", "count"),
    ("sim.engine.self_s", "s"),
    ("core.node.receive_calls", "count"),
    ("core.node.self_s", "s"),
    ("core.node.hit_ratio", "ratio"),
    ("sim.network.sends", "count"),
    ("sim.network.self_s", "s"),
    ("sim.network.lost", "count"),
    ("sim.network.duplicated", "count"),
    ("overlay.next_hop_calls", "count"),
    ("overlay.self_s", "s"),
    ("overlay.memo_hit_ratio", "ratio"),
    ("overlay.table_builds", "count"),
    ("overlay.build_s", "s"),
    ("core.cache.gc_calls", "count"),
    ("core.cache.gc_s", "s"),
    ("core.cache.gc_useful_ratio", "ratio"),
    ("core.cache.keystates_end", "count"),
    ("core.channels.pushes", "count"),
    ("core.channels.self_s", "s"),
    ("core.recovery.stamps", "count"),
    ("core.recovery.self_s", "s"),
    ("core.recovery.gaps", "count"),
    ("core.recovery.nacks", "count"),
    ("core.recovery.retries", "count"),
    ("core.recovery.recovered_ratio", "ratio"),
    ("core.recovery.duplicates_suppressed", "count"),
    ("core.recovery.degraded_reads", "count"),
    ("pygc.gen2_collections_setup", "count"),
    ("pygc.gen2_collections_run", "count"),
    ("pygc.pause_s_setup", "s"),
    ("pygc.pause_s_run", "s"),
    ("net.wire.frames_out", "count"),
    ("net.wire.bytes_out", "bytes"),
    ("net.wire.encode_s", "s"),
    ("net.wire.frames_in", "count"),
    ("net.wire.decode_s", "s"),
    ("net.transport.sends", "count"),
    ("net.transport.received", "count"),
    ("net.transport.dropped", "count"),
    ("net.daemon.get_reposts", "count"),
    ("net.daemon.reply_lag_p50_ms", "ms"),
    ("net.daemon.links_open", "count"),
    ("net.daemon.loop_lag_p99_ms", "ms"),
    ("net.daemon.outbox_overflows", "count"),
    ("net.daemon.dial_failures", "count"),
    ("net.daemon.dial_retries", "count"),
    ("persistence.nodestore.saves", "count"),
    ("persistence.nodestore.save_s", "s"),
    ("persistence.nodestore.bytes", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.capacity_ops_per_s", "1/s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
]

#: workload -> (spans that must be recorded, spans that must never be
#: entered, measured metrics that must read zero).
EXPECT = {
    "hot-key-scale": (
        ("CupNode.receive", "CupNode.post_local_query",
         "Transport.send_fanout", "Overlay.next_hop", "NodeCache.gc"),
        ("RecoveryManager.stamp", "OutgoingUpdateChannels.push",
         "wire.encode_frame", "wire.FrameDecoder.feed", "NodeStore.save"),
        ("sim.network.lost", "sim.network.duplicated", "net.wire.frames_in"),
    ),
    "zipf-churn-lossy": (
        ("CupNode.receive", "CupNode.post_local_query", "Transport.send",
         "Overlay.next_hop", "NodeCache.gc", "OutgoingUpdateChannels.push",
         "RecoveryManager.stamp"),
        ("wire.encode_frame", "wire.FrameDecoder.feed", "NodeStore.save"),
        ("net.wire.frames_in",),
    ),
    "live-mesh": (
        ("CupNode.receive", "CupNode.post_local_query", "wire.encode_frame",
         "wire.FrameDecoder.feed", "NodeStore.save"),
        # The simulator's transport: a live path that fell into it
        # would record these spans.
        ("Transport.send", "Transport.send_fanout"),
        (),
    ),
}


def span_metrics(times: dict) -> dict:
    """The span-derived metrics, from :meth:`SpanRecorder.layer_times`."""

    def calls(*names):
        return sum(times.get(name, (0, 0.0))[0] for name in names)

    def self_s(*names):
        return sum(times.get(name, (0, 0.0))[1] for name in names)

    return {
        "core.node.receive_calls": calls("CupNode.receive"),
        "core.node.self_s": self_s("CupNode.receive",
                                   "CupNode.post_local_query"),
        "sim.network.self_s": self_s("Transport.send",
                                     "Transport.send_fanout"),
        "overlay.next_hop_calls": calls("Overlay.next_hop"),
        "overlay.self_s": self_s("Overlay.next_hop", "Overlay.authority"),
        "core.cache.gc_calls": calls("NodeCache.gc"),
        "core.cache.gc_s": self_s("NodeCache.gc"),
        "core.channels.pushes": calls("OutgoingUpdateChannels.push"),
        "core.channels.self_s": self_s("OutgoingUpdateChannels.push"),
        "core.recovery.stamps": calls("RecoveryManager.stamp"),
        "core.recovery.self_s": self_s("RecoveryManager.stamp"),
        "net.wire.frames_out": calls("wire.encode_frame"),
        "net.wire.encode_s": self_s("wire.encode_frame"),
        "net.wire.decode_s": self_s("wire.FrameDecoder.feed"),
        "persistence.nodestore.saves": calls("NodeStore.save"),
        "persistence.nodestore.save_s": self_s("NodeStore.save"),
    }


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def recovery_metrics(report: dict) -> dict:
    """Recovery counters from ``MetricsCollector.recovery_report()`` sums."""
    return {
        "core.recovery.gaps": report["gaps_detected"],
        "core.recovery.nacks": report["nacks_sent"],
        "core.recovery.retries": report["recovery_retries"],
        "core.recovery.recovered_ratio": ratio(
            report["recovered_updates"], report["gaps_detected"]
        ),
        "core.recovery.duplicates_suppressed": report["duplicates_suppressed"],
        "core.recovery.degraded_reads": report["degraded_reads"],
    }


def finish(workload: str, values: dict, times: dict, counts: dict,
           spans: int, gc_watch):
    """Fill the common tail, check ``EXPECT``; ``(layers, failures)``.

    ``times``, ``counts`` and ``spans`` are one window of the recorder
    (:meth:`SpanRecorder.window`).
    """
    values.update({
        "overlay.memo_hit_ratio": ratio(
            values["overlay.next_hop_calls"] - counts["next_hop_computed"],
            values["overlay.next_hop_calls"],
        ),
        "core.cache.gc_useful_ratio": ratio(
            counts["gc_useful"], values["core.cache.gc_calls"]
        ),
        "net.wire.bytes_out": counts["wire_bytes_out"],
        "net.wire.frames_in": counts["wire_frames_in"],
        "persistence.nodestore.bytes": counts["nodestore_bytes"],
        "pygc.gen2_collections_setup": gc_watch.gen2["setup"],
        "pygc.gen2_collections_run": gc_watch.gen2["run"],
        "pygc.pause_s_setup": gc_watch.pause_s["setup"],
        "pygc.pause_s_run": gc_watch.pause_s["run"],
        "trace.spans": spans,
    })
    failures = []
    stressed, idle, zero = EXPECT[workload]
    for span in stressed:
        if not times.get(span, (0, 0.0))[0]:
            failures.append(f"trace: no {span} spans on {workload}")
    for span in idle:
        calls = times[span][0] if span in times else None
        if calls is None:
            failures.append(f"trace: {span} is not traced on {workload}")
        elif calls:
            failures.append(
                f"trace: {calls} {span} spans on {workload}, expected none"
            )
    for name in zero:
        if name not in values:
            failures.append(f"trace: {name} is not measured on {workload}")
        elif values[name]:
            failures.append(
                f"trace: {name} = {values[name]} on {workload}, expected 0"
            )
    for name, _unit in PER_LAYER:
        values.setdefault(name, 0)  # layers this workload never enters
    layers = {name: (values[name], unit) for name, unit in PER_LAYER}
    return layers, failures
