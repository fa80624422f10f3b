"""Outside-in span tracing for the benchmark's traced runs.

:func:`install` wraps the public entry points of each layer on their
concrete classes (and, for the wire codec, on the names the daemon
looks up) *before* the network or cluster under test is built.  Every
wrapped call records one span — name, start, end and the span that was
open when it began — into flat arrays held in memory.  Per-layer counts
and self times are computed from those arrays when the run ends.

The program's sources are not modified: everything here monkeypatches
from the benchmark's side, and nothing is installed unless the
benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np


class SpanRecorder:
    """Spans in four parallel arrays plus the stack of open spans."""

    def __init__(self) -> None:
        #: Span names by id; the arrays below hold one entry per span.
        self.labels: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        #: Counters recorded at the same boundaries as the spans.
        self.counts = {
            "gc_useful": 0,
            "next_hop_computed": 0,
            "wire_bytes_out": 0,
            "wire_frames_in": 0,
            "nodestore_bytes": 0,
        }
        #: (node_id, key) -> perf_counter times, in order, at which the
        #: node received an update for the key (live reply-lag attribution).
        self.update_times: dict = {}
        self.track_updates = False

    def intern(self, span_name: str) -> int:
        if span_name not in self._ids:
            self._ids[span_name] = len(self.labels)
            self.labels.append(span_name)
        return self._ids[span_name]

    def __len__(self) -> int:
        return len(self.name)

    def span(self, fn, span_name: str, after=None):
        """``fn`` wrapped so each call records a span (and runs ``after``)."""
        name_id = self.intern(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = began
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> tuple:
        """A window boundary: ``(spans so far, counters now)``."""
        return len(self.name), dict(self.counts)

    def window(self, first: tuple, last=None) -> tuple:
        """``(layer times, counter deltas, spans)`` between two marks.

        ``last`` defaults to now.
        """
        last = self.mark() if last is None else last
        counts = {name: last[1][name] - first[1][name] for name in last[1]}
        return (self.layer_times(first[0], last[0]), counts,
                last[0] - first[0])

    def layer_times(self, first: int = 0, last=None) -> dict:
        """``{span name: (calls, self_s)}`` over spans ``first:last``.

        The key ``None`` holds the summed duration of root spans: the
        part of the window spent inside traced layers at all.
        """
        count = len(self.name) if last is None else last
        if count <= first:
            result = {None: 0.0}
            result.update((span_name, (0, 0.0)) for span_name in self.labels)
            return result
        names = np.frombuffer(self.name, dtype=np.intc)[first:count]
        parents = np.frombuffer(self.parent, dtype=np.intc)[first:count]
        duration = (
            np.frombuffer(self.end, dtype=np.float64)[first:count]
            - np.frombuffer(self.start, dtype=np.float64)[first:count]
        )
        size = len(self.labels)
        self_time = np.bincount(names, weights=duration, minlength=size)
        calls = np.bincount(names, minlength=size)
        nested = parents >= first
        parent_names = np.frombuffer(self.name, dtype=np.intc)[
            parents[nested]
        ]
        self_time -= np.bincount(
            parent_names, weights=duration[nested], minlength=size
        )
        result = {None: float(duration[parents < first].sum())}
        for name_id, span_name in enumerate(self.labels):
            result[span_name] = (int(calls[name_id]), float(self_time[name_id]))
        return result


def _patch(owner, attr: str, recorder: SpanRecorder, span_name: str,
           after=None) -> None:
    setattr(owner, attr, recorder.span(getattr(owner, attr), span_name, after))


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced entry point.  Call before building anything."""
    from repro.core.cache import NodeCache
    from repro.core.channels import OutgoingUpdateChannels
    from repro.core.node import CupNode
    from repro.core.recovery import RecoveryManager
    from repro.net import daemon
    from repro.overlay.can import CanOverlay
    from repro.overlay.chord import ChordOverlay
    from repro.persistence.nodestore import NodeStore
    from repro.sim.network import Transport

    counts = recorder.counts

    def note_update(args, _result):
        if recorder.track_updates:
            node, message = args[0], args[1]
            if message.kind == "update":
                recorder.update_times.setdefault(
                    (node.node_id, message.key), []
                ).append(time.perf_counter())

    def note_gc(_args, result):
        if result:
            counts["gc_useful"] += 1

    def note_encode(_args, result):
        counts["wire_bytes_out"] += len(result)

    def note_feed(_args, result):
        counts["wire_frames_in"] += len(result)

    def note_save(_args, result):
        counts["nodestore_bytes"] += os.path.getsize(result)

    _patch(CupNode, "receive", recorder, "CupNode.receive", note_update)
    _patch(CupNode, "post_local_query", recorder, "CupNode.post_local_query")
    _patch(Transport, "send", recorder, "Transport.send")
    _patch(Transport, "send_fanout", recorder, "Transport.send_fanout")
    for overlay in (ChordOverlay, CanOverlay):
        _patch(overlay, "next_hop", recorder, "Overlay.next_hop")
        _patch(overlay, "authority", recorder, "Overlay.authority")
        # Memo misses: the memoized entry point falls through to the
        # overlay's own resolver.  Counted, not timed (it nests inside
        # the next_hop span).
        compute = overlay._compute_next_hop

        def counted(self, node_id, key, _compute=compute):
            counts["next_hop_computed"] += 1
            return _compute(self, node_id, key)

        overlay._compute_next_hop = counted
    _patch(NodeCache, "gc", recorder, "NodeCache.gc", note_gc)
    _patch(OutgoingUpdateChannels, "push", recorder,
           "OutgoingUpdateChannels.push")
    _patch(RecoveryManager, "stamp", recorder, "RecoveryManager.stamp")
    _patch(NodeStore, "save", recorder, "NodeStore.save", note_save)

    # The daemon looks the codec up by module global at call time, so
    # rebinding its names traces daemon-side frames only; the
    # benchmark's own client imports the originals from repro.net.wire.
    _patch(daemon, "encode_frame", recorder, "wire.encode_frame", note_encode)
    feed = recorder.span(daemon.FrameDecoder.feed, "wire.FrameDecoder.feed",
                         note_feed)
    daemon.FrameDecoder = type(
        "TracedFrameDecoder", (daemon.FrameDecoder,), {"feed": feed}
    )
