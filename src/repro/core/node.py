"""The CUP node state machine (§2.5 - §2.7 of the paper).

One :class:`CupNode` plays every role a peer plays:

* **querying node** — local clients post queries via
  :meth:`CupNode.post_local_query`;
* **intermediate node** — forwards queries upstream, caches index
  entries, answers from fresh cache, forwards updates to interested
  neighbors, and issues clear-bit messages per its cut-off policy;
* **authority node** — owns a slice of the global index
  (:class:`~repro.replicas.authority.AuthorityIndex`), absorbs replica
  control traffic, and originates the update streams that flow down the
  CUP trees.

Standard caching — the paper's baseline — is this same state machine with
``persistent_interest=False``: interest bits are dropped as soon as the
first-time response is delivered, so no maintenance update ever
propagates and no clear-bit is ever needed.  That matches the paper's
observation that a push level of zero *is* standard caching.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.cache import KeyState, NodeCache
from repro.core.channels import CapacityConfig, OutgoingUpdateChannels
from repro.core.messages import (
    ClearBitMessage,
    QueryMessage,
    ReplicaMessage,
    UpdateMessage,
    UpdateType,
)
from repro.core.policies import CutoffPolicy
from repro.core.recovery import RecoveryConfig, RecoveryManager
from repro.metrics.collector import MetricsCollector
from repro.overlay.base import NodeId, Overlay
from repro.replicas.authority import AuthorityIndex
from repro.sim.engine import Simulator
from repro.sim.network import Message, Transport


class CupNode:
    """One peer: query handling, cache maintenance, authority duties.

    Parameters
    ----------
    node_id, sim, transport, overlay:
        Identity and substrate.
    policy:
        The cut-off policy (§3.4) shared by all nodes of a run.
    metrics:
        Run-wide counter collector.
    persistent_interest:
        ``True`` for CUP (interest bits persist until cut off);
        ``False`` for the standard-caching baseline (bits drop after
        each response, so updates never propagate).
    coalesce:
        ``True`` for CUP: query bursts for a key collapse into one
        upstream query (the Pending-First-Update mechanism) and the
        response fans out along interest bits.  ``False`` for the
        standard-caching baseline: every query is forwarded
        individually, carries the chain of nodes it traversed (its open
        connections), and its response retraces that chain hop by hop —
        the per-query connection model §4 contrasts CUP against.
    replica_independent_cutoff:
        §3.6: when ``True``, cut-off decisions trigger only on updates
        for the key's *designated* replica, making the decision
        independent of how many replicas feed updates; when ``False``
        the naive variant evaluates on every update arrival.
    capacity:
        Outgoing update channel capacity (§2.8), replaceable at runtime.
    rng:
        Random stream for fractional-capacity coin flips.
    pfu_timeout:
        Seconds after which an unanswered Pending-First-Update flag stops
        coalescing and the next query re-pushes upstream.  Recovers from
        responses lost to departed nodes.
    refresh_aggregation_window:
        §3.6 overhead-reduction technique: when set, the authority
        buffers replica refreshes for a key and, after this many seconds,
        propagates them batched as a single update.  Trades a bounded
        staleness window for update traffic.
    refresh_sample_fraction:
        §3.6's other technique: the authority propagates only this
        fraction of replica refreshes (suppressed ones still update the
        local directory, so correctness is unaffected — downstream
        caches just see fewer, staggered refreshes).
    """

    __slots__ = (
        "node_id", "_sim", "_transport", "_overlay", "policy", "metrics",
        "persistent_interest", "coalesce", "replica_independent_cutoff",
        "pfu_timeout", "cache", "authority_index",
        "channels", "refresh_aggregation_window", "refresh_sample_fraction",
        "_aggregation_buffers", "_sample_rng", "keepalive_monitor",
        "invariant_probe", "_forward_always", "recovery",
    )

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulator,
        transport: Transport,
        overlay: Overlay,
        policy: CutoffPolicy,
        metrics: MetricsCollector,
        persistent_interest: bool = True,
        coalesce: bool = True,
        replica_independent_cutoff: bool = True,
        capacity: Optional[CapacityConfig] = None,
        rng: Optional[np.random.Generator] = None,
        pfu_timeout: float = 30.0,
        refresh_aggregation_window: Optional[float] = None,
        refresh_sample_fraction: float = 1.0,
        channel_priorities: Optional[dict] = None,
        recovery_config: Optional[RecoveryConfig] = None,
    ):
        if refresh_aggregation_window is not None and refresh_aggregation_window <= 0:
            raise ValueError(
                "refresh_aggregation_window must be positive or None"
            )
        if not 0.0 < refresh_sample_fraction <= 1.0:
            raise ValueError(
                "refresh_sample_fraction must be in (0, 1]"
            )
        self.node_id = node_id
        self._sim = sim
        self._transport = transport
        self._overlay = overlay
        self.policy = policy
        # Policies that inherit the base may_forward (always True — every
        # cut-off family except explicit push-level caps) let the fan-out
        # skip two method calls per forwarded update.
        self._forward_always = (
            type(policy).may_forward is CutoffPolicy.may_forward
        )
        self.metrics = metrics
        self.persistent_interest = persistent_interest
        self.coalesce = coalesce
        self.replica_independent_cutoff = replica_independent_cutoff
        self.pfu_timeout = pfu_timeout
        self.cache = NodeCache()
        self.authority_index = AuthorityIndex()
        self.channels = OutgoingUpdateChannels(
            sim, self._transmit_update, capacity=capacity, rng=rng,
            priorities=channel_priorities,
        )
        self.refresh_aggregation_window = refresh_aggregation_window
        self.refresh_sample_fraction = refresh_sample_fraction
        self._aggregation_buffers: dict = {}
        self._sample_rng = rng
        # Unreliable-transport survival layer: None on the default
        # reliable path (zero hot-path cost beyond one None test).  With
        # recovery on, updates must be stamped with per-neighbor
        # sequence numbers at transmit time, which the grouped fan-out
        # cannot do — such a node offers every child through its
        # channels (see _push_updates).
        if recovery_config is not None:
            self.recovery = RecoveryManager(
                sim, transport, node_id, metrics, recovery_config,
                self._recover_by_pull,
            )
        else:
            self.recovery = None
        # Attached by CupNetwork.enable_keepalive(); None otherwise.
        self.keepalive_monitor = None
        # Attached by CupNetwork.attach_invariants(); None otherwise.
        # The hot paths pay one attribute load + None test per probe
        # site, so leaving invariants off costs essentially nothing.
        self.invariant_probe = None

    # ------------------------------------------------------------------
    # Transport entry point
    # ------------------------------------------------------------------

    def receive(self, message: Message, sender: NodeId) -> None:
        """Dispatch one delivered message (transport handler).

        Updates are tested first: they dominate every CUP workload (the
        maintenance stream fans out along the whole subscription tree
        while queries stop at the first fresh cache).
        """
        kind = message.kind
        if self.keepalive_monitor is not None and sender is not None:
            # Any traffic proves the sender alive (§2.1 keep-alives
            # effectively piggyback on protocol messages).
            self.keepalive_monitor.note_heard(sender)
        if kind == "update":
            self._handle_update(message, sender)
        elif kind == "query":
            self._handle_query(message, sender)
        elif kind == "clear_bit":
            self._handle_clear_bit(message, sender)
        elif kind == "keepalive":
            return
        elif kind == "nack":
            if self.recovery is not None:
                self.recovery.handle_nack(message, sender)
        elif kind == "replica":
            self._handle_replica(message)
        else:  # pragma: no cover - guards future message kinds
            raise ValueError(f"unhandled message kind: {kind!r}")

    # ------------------------------------------------------------------
    # Queries (§2.5)
    # ------------------------------------------------------------------

    def post_local_query(self, key: str) -> bool:
        """A local client asks for ``key``; returns True on immediate hit.

        A miss leaves an open local connection that the eventual
        first-time update answers (the paper's asynchronous response
        path); the posting itself never blocks.
        """
        metrics = self.metrics
        metrics.queries_posted += 1
        answered = self._process_query(key, from_neighbor=None)
        if answered:
            metrics.local_hits += 1
        if self.invariant_probe is not None:
            self.invariant_probe.query_posted(self.node_id, key, answered)
        return answered

    def _handle_query(self, message: QueryMessage, sender: NodeId) -> None:
        self.metrics.neighbor_queries += 1
        self._process_query(
            message.key, from_neighbor=sender, path=message.path
        )

    def _process_query(
        self,
        key: str,
        from_neighbor: Optional[NodeId],
        path: Optional[tuple] = None,
    ) -> bool:
        """Common query path; returns True when answered immediately.

        ``path`` is the open-connection chain carried by standard-caching
        queries (``None`` under CUP).
        """
        now = self._sim.now
        state = self.cache.get_or_create(key)
        # "In each of the cases, the node updates its popularity measure
        # for K" (§2.5) — queries from neighbors and local clients alike.
        state.popularity += 1
        if state.justification_deadlines:
            justified, unjustified = state.settle_justification(now)
            self.metrics.justified_updates += justified
            self.metrics.unjustified_updates += unjustified

        # Hit paths materialize the answering entries only when a
        # neighbor needs them on the wire; a local hit — the overwhelming
        # majority of queries in a warm network — answers without
        # building the entry tuple at all.
        if self._is_authority(key, state):
            self.metrics.authority_answers += 1
            if from_neighbor is not None:
                entries = tuple(self.authority_index.fresh_entries(key, now))
                self._answer_query(state, entries, from_neighbor, path, now)
            return True
        if state.has_fresh(now):
            # Case 1: fresh entries cached — answer from here.
            self.metrics.cache_answers += 1
            if from_neighbor is not None:
                entries = tuple(state.fresh_entries(now))
                self._answer_query(state, entries, from_neighbor, path, now)
            return True

        # A miss: classify (first-time vs freshness) at the posting node.
        if from_neighbor is None:
            self.metrics.misses += 1
            if state.entries:
                self.metrics.freshness_misses += 1
            else:
                self.metrics.first_time_misses += 1
            if state.local_waiters == 0:
                state.pending_since = now
            state.local_waiters += 1

        if not self.coalesce:
            # Standard caching: every query travels on its own open
            # connection — forward it regardless of what is in flight.
            self._push_query_upstream(key, state, self._extend_path(path))
            return False

        if from_neighbor is not None:
            state.register_interest(from_neighbor)
            state.waiting.add(from_neighbor)
        if state.pending_first_update:
            if now - state.pending_since <= self.pfu_timeout:
                # Cases 2/3 with the flag already set: coalesce.
                self.metrics.coalesced_queries += 1
                return False
            # The outstanding query evidently died with a departed node;
            # fall through and push a fresh one.
        state.pending_first_update = True
        state.pending_since = now
        state.clear_bit_sent = False
        self._push_query_upstream(key, state, None)
        return False

    def _answer_query(
        self,
        state: KeyState,
        entries: tuple,
        from_neighbor: NodeId,
        path: Optional[tuple],
        now: float,
    ) -> None:
        """Send a first-time update answering one neighbor's query."""
        key = state.key
        if self.coalesce:
            state.register_interest(from_neighbor)
            response = UpdateMessage(key, UpdateType.FIRST_TIME, entries, None, now)
            self._push_updates((from_neighbor,), response)
            if not self.persistent_interest:
                state.clear_interest(from_neighbor)
        else:
            # The response retraces the query's open-connection chain;
            # ``path`` ends at the neighbor that just forwarded to us.
            route = path if path is not None else ()
            if route and route[-1] == from_neighbor:
                route = route[:-1]
            response = UpdateMessage(
                key, UpdateType.FIRST_TIME, entries, None, now, route=route
            )
            self._transport.send(self.node_id, from_neighbor, response)

    def _extend_path(self, path: Optional[tuple]) -> tuple:
        return (*(path or ()), self.node_id)

    def _push_query_upstream(
        self, key: str, state: KeyState, path: Optional[tuple]
    ) -> None:
        parent = self._parent(key, state)
        self.metrics.queries_forwarded += 1
        self._transport.send(self.node_id, parent, QueryMessage(key, path=path))

    # ------------------------------------------------------------------
    # Updates (§2.6)
    # ------------------------------------------------------------------

    def _handle_update(self, update: UpdateMessage, sender: NodeId) -> None:
        now = self._sim.now
        probe = self.invariant_probe
        if probe is not None:
            probe.update_delivered(self.node_id, update, sender)
        metrics = self.metrics
        # Unreliable transport: account the hop sequence before anything
        # can drop the message (even an expired update advances the
        # watermark — its loss must not look like a gap), and suppress
        # duplicates before they touch the cache or cut-off logic.
        recovery = self.recovery
        if (
            recovery is not None
            and update.hop_seq is not None
            and update.route is None
            and not recovery.note_received(sender, update.key, update.hop_seq)
        ):
            return
        # Case 3: the update expired in flight — drop silently.
        if update.entries and update.expiry <= now:
            metrics.updates_dropped_expired += 1
            return
        key = update.key
        states = self.cache.states
        state = states.get(key)
        if state is None:
            state = states[key] = KeyState(key)
        update_type = update.update_type

        if update.route is not None:
            self._relay_open_connection_response(state, update)
            return

        if update_type == UpdateType.FIRST_TIME:
            self._accept_response(state, update, sender)
            return

        # Maintenance update: apply to the cache first.
        if update_type == UpdateType.DELETE:
            for entry in update.entries:
                if state.remove_entry(entry.replica_id) and probe is not None:
                    probe.entry_removed(self.node_id, key, entry.replica_id)
        else:
            carried = update.entries
            if len(carried) == 1:
                # Single-entry refresh/append — the overwhelmingly common
                # maintenance payload — applied inline.  This block is
                # KeyState.apply_entry verbatim (sequence guard + expiry
                # bound maintenance); a semantic change there MUST be
                # mirrored here, or single- and multi-entry updates
                # diverge in cache state.
                entry = carried[0]
                cached = state.entries
                current = cached.get(entry.replica_id)
                if current is None or current.sequence < entry.sequence:
                    cached[entry.replica_id] = entry
                    expires = entry.timestamp + entry.lifetime
                    if (
                        current is not None
                        and expires < current.timestamp + current.lifetime
                    ):
                        # Shrinking replacement (theoretical): re-derive
                        # the expiry bounds, as KeyState.apply_entry.
                        state._recompute_expiry_bounds()
                    else:
                        if expires < state.min_expires:
                            state.min_expires = expires
                        if expires > state.max_expires:
                            state.max_expires = expires
                    if probe is not None:
                        probe.entry_applied(self.node_id, key, entry)
                else:
                    # A stale or duplicate update (older sequence than
                    # cached): it must not re-trigger cut-off logic or be
                    # re-forwarded, or reordered deliveries would echo
                    # through the tree.
                    metrics.updates_stale_discarded += 1
                    return
            else:
                applied = False
                for entry in carried:
                    if state.apply_entry(entry):
                        applied = True
                        if probe is not None:
                            probe.entry_applied(self.node_id, key, entry)
                if not applied:
                    metrics.updates_stale_discarded += 1
                    return

        deadlines = state.justification_deadlines
        if deadlines and deadlines[0] < now:
            metrics.unjustified_updates += state.expire_justification(now)
        if len(deadlines) < state.MAX_JUSTIFICATION_WINDOWS:
            deadlines.append(update.expiry)

        # Cut-off trigger decision (one evaluation per maintenance
        # update): the naive variant triggers on every update, the
        # replica-independent fix (§3.6) only on updates for the key's
        # designated replica — so the decision rate does not scale with
        # the replica count.
        if not self.replica_independent_cutoff:
            triggering = True
        else:
            replica_id = update.replica_id
            if replica_id is None:
                triggering = True
            else:
                designated = state.designated_replica
                if designated is None:
                    state.designated_replica = replica_id
                    triggering = True
                else:
                    triggering = replica_id == designated
        if triggering:
            self.policy.observe_update(state)

        delivered: tuple = ()
        interest = state.interest
        if interest:
            # Receiving on behalf of interested neighbors: apply and push
            # (§2.6 case 2, "popularity high or some interest bits set").
            # The no-gate batched case — an ungated policy at full
            # capacity without recovery stamping, i.e. virtually every
            # hop of a healthy reliable run — is inlined; anything that
            # can gate, suppress, queue or stamp takes the general path.
            channels = self.channels
            if (
                self._forward_always
                and channels.unlimited
                and recovery is None
            ):
                targets = state._interest_sorted
                if targets is None or len(targets) != len(interest):
                    targets = state.sorted_interest()
                if sender is not None and sender in interest:
                    targets = tuple(t for t in targets if t != sender)
                if targets:
                    self._transport.send_fanout(self.node_id, targets, update)
                    channels.forwarded += len(targets)
                    delivered = targets
            else:
                delivered = self._forward_to_interested(
                    state, update, exclude=sender
                )
        elif triggering and not self._is_authority(key, state):
            distance = self._distance_for_policy(key, state)
            if not self.policy.should_keep_receiving(state, distance):
                self._send_clear_bit(key, state, toward=sender)

        # A maintenance update can double as the awaited response: if it
        # leaves us with fresh entries while the PFU flag is set, the
        # pending query is effectively answered.  Waiting neighbors the
        # interest-forward did not reach (push-level gate, capacity
        # suppression) get an ungated first-time response instead —
        # responses always flow, whatever the maintenance plane does.
        if state.pending_first_update and state.has_fresh(now):
            state.pending_first_update = False
            if recovery is not None:
                # A maintenance update doubling as the response also
                # satisfies a degraded pull for this key.
                recovery.note_refreshed(key)
            self._answer_local_waiters(state)
            starved = state.waiting.difference(delivered)
            starved.discard(sender)
            if starved:
                response = UpdateMessage(
                    key, UpdateType.FIRST_TIME,
                    tuple(state.fresh_entries(now)), None, now,
                )
                self._push_updates(
                    tuple(sorted(starved, key=str)), response
                )
            state.waiting.clear()

        if triggering:
            # Popularity counts queries between consecutive (triggering)
            # updates; the interval closes here.
            state.popularity = 0

    def _relay_open_connection_response(
        self, state: KeyState, update: UpdateMessage
    ) -> None:
        """Standard caching: a response retracing its query's connections.

        Every hop caches the carried entries (path caching with
        expiration times — the baseline the paper compares against) and
        forwards to the next node of the recorded chain; the final node
        is the query's poster.
        """
        probe = self.invariant_probe
        for entry in update.entries:
            if state.apply_entry(entry) and probe is not None:
                probe.entry_applied(self.node_id, state.key, entry)
        self.metrics.justified_updates += 1
        if update.route:
            forwarded = update.fork()
            forwarded.route = update.route[:-1]
            self._transport.send(self.node_id, update.route[-1], forwarded)
        else:
            self._answer_local_waiters(state)

    def _accept_response(
        self, state: KeyState, update: UpdateMessage, sender: NodeId
    ) -> None:
        """A first-time update: the asynchronous answer to pushed queries.

        The response fans out to the neighbors whose queries were
        coalesced behind the Pending-First-Update flag — not to every
        subscriber: long-subscribed neighbors that asked nothing are
        served by the maintenance stream, and broadcasting responses to
        them would double-charge the miss path.
        """
        probe = self.invariant_probe
        for entry in update.entries:
            if state.apply_entry(entry) and probe is not None:
                probe.entry_applied(self.node_id, state.key, entry)
        # First-time updates are always justified (§3.1): they carry a
        # response toward the node that issued the query.
        self.metrics.justified_updates += 1
        state.pending_first_update = False
        if self.recovery is not None and update.entries:
            # The degraded pull is answered: the key re-earns full
            # convergence scrutiny.
            self.recovery.note_refreshed(state.key)
        if state.designated_replica is None and update.entries:
            # Designate the cut-off trigger replica (§3.6) from the first
            # response; min() keeps the choice order-independent.
            state.designated_replica = min(
                e.replica_id for e in update.entries
            )
        self._answer_local_waiters(state)
        if state.waiting:
            self._push_updates(
                tuple(
                    neighbor
                    for neighbor in sorted(state.waiting, key=str)
                    if neighbor != sender
                ),
                update,
            )
            state.waiting.clear()
        if not self.persistent_interest:
            state.clear_all_interest()
            return
        # A response is an update arrival: the popularity interval
        # ("queries since the last update", §2.3) closes here, and the
        # cut-off policy gets its look — an aggressive policy (e.g.
        # linear with a high alpha·D threshold) may cut off right after
        # being answered, which is exactly the behaviour §3.4 measures.
        self.policy.observe_update(state)
        if not state.interest and not self._is_authority(state.key, state):
            distance = self._distance_for_policy(state.key, state)
            if not self.policy.should_keep_receiving(state, distance):
                self._send_clear_bit(state.key, state, toward=sender)
        state.popularity = 0

    def _answer_local_waiters(self, state: KeyState) -> None:
        if state.local_waiters:
            self.metrics.answers_delivered += state.local_waiters
            self.metrics.answer_delay_total += (
                self._sim.now - state.pending_since
            ) * state.local_waiters
            self.metrics.answer_delay_count += state.local_waiters
            if self.invariant_probe is not None:
                self.invariant_probe.waiters_answered(
                    self.node_id, state.key, state.local_waiters
                )
            state.local_waiters = 0

    # ------------------------------------------------------------------
    # Forwarding and control flow downstream
    # ------------------------------------------------------------------

    def _forward_to_interested(
        self,
        state: KeyState,
        update: UpdateMessage,
        exclude: Optional[NodeId] = None,
    ) -> tuple:
        """Push an update to every interested neighbor.

        Returns the neighbors the update actually went to (a tuple in
        deterministic fan-out order); a push-level gate or capacity
        suppression removes targets from it (callers use this to rescue
        waiting queriers with an ungated first-time response).

        At full capacity the fan-out is batched: one shared immutable
        payload travels to all k children as k lightweight envelopes
        through a single transport call.  Under a fraction/rate
        constraint — or on a node with a recovery manager, which stamps
        each envelope — the per-child path forks and offers one update
        per neighbor, in the same deterministic order (so capacity coin
        flips consume the random stream identically).
        """
        interest = state.interest
        if not interest:
            return ()
        # Memoized deterministic fan-out order (inlined sorted_interest
        # read: this runs once per forwarded update).
        targets = state._interest_sorted
        if targets is None or len(targets) != len(interest):
            targets = state.sorted_interest()
        # The push-level gate (§3.3) caps *propagation* — maintenance
        # updates only.  First-time updates are query responses; blocking
        # them would break query resolution itself (a push level of 0
        # must degrade to standard caching, not to silence).
        if not self._forward_always and update.update_type != UpdateType.FIRST_TIME and not self.policy.may_forward(
            self._distance_for_forwarding(state)
        ):
            self.metrics.updates_suppressed += len(
                [t for t in targets if t != exclude]
            )
            return ()
        if exclude is not None and exclude in interest:
            targets = tuple(t for t in targets if t != exclude)
        delivered = self._push_updates(targets, update)
        suppressed = len(targets) - len(delivered)
        if suppressed:
            self.metrics.updates_suppressed += suppressed
        return delivered

    def _push_updates(self, targets: tuple, update: UpdateMessage) -> tuple:
        """Offer one update to many neighbors; returns those it reached.

        The batched fast path applies when nothing can suppress or
        reorder the sends (full capacity, no rate pump) and nothing
        stamps them (no recovery manager): the transport fans the shared
        payload out in one call.  Otherwise each neighbor gets its own
        channel offer, preserving per-child coin flip order and queue
        accounting; :meth:`_transmit_update` stamps ``hop_seq`` on the
        way out.
        """
        if not targets:
            return ()
        channels = self.channels
        if channels.unlimited and self.recovery is None:
            self._transport.send_fanout(self.node_id, targets, update)
            channels.forwarded += len(targets)
            return targets
        delivered = []
        push = channels.push
        for neighbor in targets:
            if push(neighbor, update.fork()):
                delivered.append(neighbor)
        return tuple(delivered)

    def _transmit_update(self, neighbor: NodeId, update: UpdateMessage) -> None:
        """Channel drain callback: put one update on the wire."""
        recovery = self.recovery
        if recovery is not None and update.route is None:
            recovery.stamp(neighbor, update)
        self._transport.send(self.node_id, neighbor, update)

    def _recover_by_pull(self, key: str) -> None:
        """Degraded read: refill the cache through the query path.

        Invoked by the recovery manager after retry exhaustion or an
        upstream departure.  Re-issuing a query upstream re-grafts this
        node's interest along the chain (every forwarding hop sets its
        bit), so the subscription tree self-heals and the eventual
        first-time response replaces whatever updates were lost.
        """
        if not self._transport.is_registered(self.node_id):
            # The owner itself departed/crashed with a retry timer still
            # armed; there is nobody to pull for.
            return
        state = self.cache.get_or_create(key)
        if self._is_authority(key, state):
            return
        now = self._sim.now
        if (
            state.pending_first_update
            and now - state.pending_since <= self.pfu_timeout
        ):
            # A pull is already in flight; its response covers this gap.
            return
        state.pending_first_update = True
        state.pending_since = now
        state.clear_bit_sent = False
        self._push_query_upstream(key, state, None)

    def _send_clear_bit(
        self, key: str, state: KeyState, toward: Optional[NodeId]
    ) -> None:
        """Cut off the incoming update supply for ``key`` (§2.7)."""
        if state.clear_bit_sent:
            return
        target = toward if toward is not None else self._parent(key, state)
        if target is None:
            return
        state.clear_bit_sent = True
        self.metrics.clear_bits_sent += 1
        self._transport.send(self.node_id, target, ClearBitMessage(key))

    def _handle_clear_bit(self, message: ClearBitMessage, sender: NodeId) -> None:
        state = self.cache.get(message.key)
        if state is None:
            return
        state.clear_interest(sender)
        if state.interest or state.pending_first_update:
            return
        if self._is_authority(message.key, state):
            return
        # "If the node's popularity measure for K is low and all of its
        # interest bits are clear, the node also pushes a Clear-Bit" —
        # the cascade toward the authority (§2.7).
        distance = self._distance_for_policy(message.key, state)
        if not self.policy.should_keep_receiving(state, distance):
            self._send_clear_bit(message.key, state, toward=None)

    # ------------------------------------------------------------------
    # Authority duties
    # ------------------------------------------------------------------

    def _handle_replica(self, message: ReplicaMessage) -> None:
        now = self._sim.now
        metrics = self.metrics
        event = message.event.value
        if event == "birth":
            metrics.replica_births += 1
        elif event == "refresh":
            metrics.replica_refreshes += 1
        else:
            metrics.replica_deaths += 1
        update = self.authority_index.apply_replica_message(message, now)
        if update is None:
            return
        if update.update_type == UpdateType.REFRESH:
            # §3.6 overhead-reduction techniques (refreshes only —
            # deletes prevent errors and appends add capacity, so they
            # always propagate promptly).
            if self.refresh_sample_fraction < 1.0:
                if self._sample_rng is None:
                    raise RuntimeError(
                        "refresh sampling requires an rng; pass one at "
                        "construction"
                    )
                if self._sample_rng.random() >= self.refresh_sample_fraction:
                    self.metrics.updates_suppressed += 1
                    return
            if self.refresh_aggregation_window is not None:
                self._buffer_refresh(update)
                return
        state = self.cache.get_or_create(message.key)
        self._forward_to_interested(state, update)

    def _buffer_refresh(self, update: UpdateMessage) -> None:
        """Hold a refresh; flush the key's batch when the window closes.

        "When a refresh arrives for one replica, the authority node
        waits a threshold amount of time for other updates for the same
        key to arrive.  It then batches all updates that arrive within
        that time and propagates them together as one update." (§3.6)
        """
        buffer = self._aggregation_buffers.get(update.key)
        if buffer is not None:
            buffer.append(update)
            return
        self._aggregation_buffers[update.key] = [update]
        self._sim.schedule(
            self.refresh_aggregation_window, self._flush_refresh_buffer,
            update.key,
        )

    def _flush_refresh_buffer(self, key: str) -> None:
        buffered = self._aggregation_buffers.pop(key, None)
        if not buffered:
            return
        now = self._sim.now
        # Latest version per replica; drop anything that expired while
        # buffered (possible only with windows near the entry lifetime).
        latest: dict = {}
        for update in buffered:
            for entry in update.entries:
                current = latest.get(entry.replica_id)
                if current is None or current.sequence < entry.sequence:
                    latest[entry.replica_id] = entry
        entries = tuple(
            e for e in latest.values() if e.is_fresh(now)
        )
        if not entries:
            return
        batched = UpdateMessage(
            key=key,
            update_type=UpdateType.REFRESH,
            entries=entries,
            replica_id=min(e.replica_id for e in entries),
            issued_at=now,
        )
        state = self.cache.get_or_create(key)
        self._forward_to_interested(state, batched)

    def sweep_local_index(self) -> int:
        """Failure detection: purge entries of silent replicas (§2.4).

        Returns the number of entries deleted; each deletion propagates
        to interested neighbors like any other delete.
        """
        deletes = self.authority_index.sweep_expired(self._sim.now)
        for update in deletes:
            self.metrics.failure_detections += 1
            state = self.cache.get_or_create(update.key)
            self._forward_to_interested(state, update)
        return len(deletes)

    # ------------------------------------------------------------------
    # Routing helpers (epoch-cached)
    # ------------------------------------------------------------------

    def _is_authority(self, key: str, state: KeyState) -> bool:
        """Epoch-cached "am I the authority for this key?".

        Cached on the KeyState itself (not a single per-node slot), so a
        multi-key workload never thrashes the memo; hot-path lookups
        after the first per epoch are two attribute reads.
        """
        epoch = getattr(self._overlay, "epoch", 0)
        if state.authority_epoch != epoch:
            state.is_authority_here = self._overlay.authority(key) == self.node_id
            state.authority_epoch = epoch
        return state.is_authority_here

    def _parent(self, key: str, state: KeyState) -> Optional[NodeId]:
        epoch = getattr(self._overlay, "epoch", 0)
        if state.parent_epoch != epoch:
            state.parent = self._overlay.next_hop(self.node_id, key)
            state.parent_epoch = epoch
        return state.parent

    def _distance_for_policy(self, key: str, state: KeyState) -> int:
        if not self.policy.needs_distance:
            return 0
        return self._distance(key, state)

    def _distance_for_forwarding(self, state: KeyState) -> int:
        if not self.policy.needs_distance:
            return 0
        return self._distance(state.key, state)

    def _distance(self, key: str, state: KeyState) -> int:
        epoch = getattr(self._overlay, "epoch", 0)
        if state.distance_epoch != epoch:
            state.distance = self._overlay.distance(self.node_id, key)
            state.distance_epoch = epoch
        return state.distance

    # ------------------------------------------------------------------
    # Maintenance / churn support
    # ------------------------------------------------------------------

    def set_capacity(self, capacity: CapacityConfig) -> None:
        """Change outgoing update capacity at runtime (§3.7 faults)."""
        self.channels.set_capacity(capacity)

    def gc(self) -> int:
        """Purge expired cache state; returns discarded key count."""
        return self.cache.gc(self._sim.now)

    def patch_after_churn(self, alive: set) -> None:
        """§2.9: drop departed neighbors from interest vectors."""
        self.cache.patch_interest_after_churn(alive)
        if self.recovery is not None:
            self.recovery.prune_peers(alive)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CupNode({self.node_id!r}, cached_keys={len(self.cache)}, "
            f"owned_keys={sum(1 for _ in self.authority_index.keys())})"
        )
