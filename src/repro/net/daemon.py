"""The live CUP node: an asyncio daemon over the shared protocol core.

One :class:`LiveNode` process hosts exactly one
:class:`~repro.core.node.CupNode` — constructed with the *same* classes
the simulator uses (cache, policies, recovery, keep-alive, channels) on
top of :class:`~repro.net.clock.LiveClock` and
:class:`~repro.net.transport.LiveTransport`.  Nothing in ``core/`` knows
whether it is being simulated.

Cluster mechanics
-----------------

* **Identity.**  A node's id *is* its dialable listen address
  (``"host:port"``), so the membership set doubles as the address book
  and :class:`~repro.overlay.chord.ChordOverlay` — which accepts any
  hashable id — hashes it onto the ring.  Every member derives the same
  ring from the same membership, so routing agrees cluster-wide without
  a coordination protocol.

* **Join.**  A newcomer dials any seed member and sends ``hello``; the
  seed replies ``welcome`` (the full member list) and broadcasts
  ``joined`` to everyone else.  The newcomer then dials every member it
  learned of.  Established members never dial newcomers eagerly — but
  any send toward a member without a connection triggers a background
  heal dial, so the mesh self-repairs (the frame that triggered the
  heal is dropped and counted, exactly like a simulator send to a
  departed node; CUP's PFU timeout and recovery NACKs take it from
  there).

* **Leave / failure.**  Graceful shutdown broadcasts ``leaving``,
  then cancels and awaits every task the node owns.  Silent death is
  caught by the same
  :class:`~repro.core.keepalive.KeepAliveMonitor` the simulator uses:
  heartbeats ride the live transport and any received traffic proves
  life.  A first strike (keep-alive misses or consecutive dial
  failures) only *suspects* the peer — it is probed immediately and
  given one keep-alive window of grace, because a flapping peer that
  answers the probe should not lose its interest bits.  Only a second
  strike (grace expiry, more misses, or enough dial failures) declares
  it dead and removes the member — the overlay absorbs its arc and
  interest bits are patched (§2.9).

* **Dialing.**  Dial failures back off exponentially per peer (capped,
  jittered) instead of being retried by every frame that wants the
  link; frames queued toward a peer are bounded, with overflow counted
  rather than growing without limit against a dead destination.

* **Durability.**  With ``--state-dir`` configured, the daemon
  write-behind-snapshots its durable slice (cache entries + interest,
  authority index, member list, recovery watermarks) through
  :class:`~repro.persistence.nodestore.NodeStore` on a cadence and on
  graceful stop.  At boot the snapshot is restored, so a restarted
  daemon *rejoins warm*: it re-announces itself (``hello`` with a
  ``rejoin`` flag), re-grafts its interests via background pulls, and
  serves local hits from the restored cache immediately while the
  pulls reconcile any staleness accrued during the outage.

* **Clients.**  A connection whose first frame is not ``hello`` is a
  client session: ``put`` routes a replica birth/refresh to the key's
  authority, ``get`` posts a local query and, on a miss, waits for the
  delivery that answers it, ``audit`` runs the attached invariant
  checker's quiescence sweep, ``info`` and ``stop`` do what they say.

The invariant checker reads the daemon itself as a one-node "network"
(``sim``, ``nodes``, ``overlay``, ``metrics``, ``transport``) with
``churn``/``crash`` hazards declared (peers come and go), so every
structural, monotonicity and cost-balance check runs against real
sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import random
import sys
from typing import Dict, List, Optional, Set, Tuple

from repro.core.keepalive import KeepAliveMonitor
from repro.core.messages import ReplicaEvent, ReplicaMessage
from repro.core.node import CupNode
from repro.core.policies import make_policy
from repro.core.recovery import RecoveryConfig
from repro.metrics.collector import MetricsCollector
from repro.net.clock import LiveClock
from repro.net.transport import LiveTransport
from repro.net.wire import (
    FrameDecoder,
    WireError,
    encode_frame,
    entry_to_wire,
    message_from_wire,
    message_to_wire,
    resolve_codec,
)
from repro.overlay.chord import ChordOverlay
from repro.persistence.checkpoint import CheckpointError
from repro.persistence.nodestore import NodeStore, sanitize_restored
from repro.sim.process import PeriodicProcess

_READ_CHUNK = 1 << 16
#: Garbage-collect expired cache state this often (seconds).
_GC_INTERVAL = 60.0
#: How long a joining node keeps trying to reach a seed and hear back.
_JOIN_TIMEOUT = 10.0


@dataclasses.dataclass(frozen=True)
class LiveNodeConfig:
    """Everything a live node needs to serve.

    ``node_id`` defaults to ``"host:port"`` once the listener is bound
    (so ``port=0`` — pick a free port — works); when overridden it must
    still be a dialable ``host:port`` string, because peers use member
    ids as addresses.
    """

    host: str = "127.0.0.1"
    port: int = 9400
    node_id: Optional[str] = None
    #: Seed member addresses to join through (empty = found a cluster).
    peers: Tuple[str, ...] = ()
    mode: str = "cup"  # "cup" | "standard"
    policy: str = "second-chance"
    pfu_timeout: float = 3.0
    keepalive_period: float = 2.0
    keepalive_misses: int = 3
    codec: str = "json"
    invariants: bool = True
    #: Run the unreliable-transport recovery layer.  TCP is reliable
    #: per-connection, but frames sent while a link is still dialing are
    #: dropped — gap detection + NACK recovers them.
    recovery: bool = True
    quiet: bool = False
    #: Directory for the durable state snapshot (None = stateless: a
    #: restart rejoins cold).
    state_dir: Optional[str] = None
    #: Write-behind snapshot cadence when ``state_dir`` is set.
    snapshot_interval: float = 5.0
    #: Per-peer dial backoff: first retry after ``base`` seconds,
    #: doubling up to ``max``, each delay stretched by up to ``jitter``
    #: (fraction) so a restarted cluster does not redial in lockstep.
    dial_backoff_base: float = 0.25
    dial_backoff_max: float = 5.0
    dial_backoff_jitter: float = 0.25
    #: Consecutive dial failures before a member is suspected / declared
    #: dead.  Keep-alive misses escalate through the same suspicion
    #: state, so whichever signal fires first drives the transition.
    suspect_after: int = 2
    dead_after: int = 6
    #: Frames queued toward one peer before further sends are dropped
    #: and counted (``outbox_overflows``) instead of growing unbounded.
    outbox_limit: int = 1024

    def __post_init__(self):
        if self.mode not in ("cup", "standard"):
            raise ValueError(f"mode must be 'cup' or 'standard', got "
                             f"{self.mode!r}")
        if self.snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        if self.dial_backoff_base <= 0:
            raise ValueError("dial_backoff_base must be positive")
        if self.dial_backoff_max < self.dial_backoff_base:
            raise ValueError(
                "dial_backoff_max must be >= dial_backoff_base")
        if self.dial_backoff_jitter < 0:
            raise ValueError("dial_backoff_jitter must be >= 0")
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if self.dead_after < self.suspect_after:
            raise ValueError("dead_after must be >= suspect_after")
        if self.outbox_limit < 1:
            raise ValueError("outbox_limit must be >= 1")
        resolve_codec(self.codec)  # fail fast on unavailable codecs


class _PeerLink:
    """One live connection to a peer, with a bounded outbound queue."""

    __slots__ = (
        "peer_id", "writer", "outbox", "writer_task", "reader_task",
        "welcomed", "codec", "overflows", "on_overflow",
    )

    def __init__(self, peer_id: str, writer: asyncio.StreamWriter,
                 codec: str, limit: int = 0, on_overflow=None):
        self.peer_id = peer_id
        self.writer = writer
        self.codec = codec
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=limit)
        self.writer_task: Optional[asyncio.Task] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.welcomed = asyncio.Event()
        self.overflows = 0
        self.on_overflow = on_overflow

    def send_json(self, obj: dict) -> None:
        frame = encode_frame(obj, self.codec)
        try:
            self.outbox.put_nowait(frame)
        except asyncio.QueueFull:
            # A peer that stopped draining (dead socket, wedged reader)
            # must not grow our heap: drop and count.  The protocol's
            # recovery machinery treats this like any other lost frame.
            self.overflows += 1
            if self.on_overflow is not None:
                self.on_overflow(self)

    async def drain_outbox(self) -> None:
        writer = self.writer
        while True:
            frame = await self.outbox.get()
            writer.write(frame)
            await writer.drain()

    def close(self) -> None:
        if self.writer_task is not None:
            self.writer_task.cancel()
        with contextlib.suppress(Exception):
            self.writer.close()


class _PeerHealth:
    """Dial/liveness bookkeeping for one peer.

    ``state`` walks ``alive -> suspect -> dead``; any received traffic
    snaps it back to ``alive`` and zeroes the failure count.  The two
    timer handles are the peer's pending backoff redial and (while
    suspect) the grace deadline before it is declared dead.
    """

    __slots__ = ("state", "dial_failures", "retry_handle", "grace_handle")

    def __init__(self):
        self.state = "alive"
        self.dial_failures = 0
        self.retry_handle = None
        self.grace_handle = None

    def cancel_timers(self) -> None:
        for handle in (self.retry_handle, self.grace_handle):
            if handle is not None:
                handle.cancel()
        self.retry_handle = None
        self.grace_handle = None


class LiveNode:
    """One daemon: listener, peer mesh, and the hosted CupNode."""

    def __init__(self, config: LiveNodeConfig):
        self.config = config
        self.node_id: Optional[str] = None
        self.clock: Optional[LiveClock] = None
        self.metrics = MetricsCollector()
        self.overlay = ChordOverlay()
        self.transport: Optional[LiveTransport] = None
        self.node: Optional[CupNode] = None
        self.checker = None
        self.keepalive: Optional[KeepAliveMonitor] = None
        self.members: Set[str] = set()
        self._conns: Dict[str, _PeerLink] = {}
        self._dialing: Dict[str, asyncio.Task] = {}
        #: Every unfinished task this node started or serves a session
        #: on; shutdown cancels and awaits them all.
        self._tasks: Set[asyncio.Task] = set()
        self._health: Dict[str, _PeerHealth] = {}
        self._seeds: Set[str] = set()
        self._store: Optional[NodeStore] = None
        self._snapshot_process: Optional[PeriodicProcess] = None
        self._rejoined = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._gc_process: Optional[PeriodicProcess] = None
        #: Client gets waiting on a key, woken by the delivery that
        #: answers them (see :meth:`receive`).
        self._get_waiters: Dict[str, List[asyncio.Future]] = {}
        self._stopped = asyncio.Event()
        self._stopping = False

    # ------------------------------------------------------------------
    # What LiveTransport and the invariant checker consume
    # ------------------------------------------------------------------

    @property
    def sim(self) -> Optional[LiveClock]:
        return self.clock

    @property
    def nodes(self) -> Dict[str, CupNode]:
        return {} if self.node is None else {self.node_id: self.node}

    def receive(self, message, sender) -> None:
        """Deliver, then wake gets it answers (keepalives carry no key)."""
        self.node.receive(message, sender)
        waiters = self._get_waiters.get(getattr(message, "key", None))
        if waiters:
            entries = self._fresh_entries(message.key)
            if entries:
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_result(entries)

    def is_peer(self, node_id) -> bool:
        return node_id in self.members

    def call_soon(self, fn, *args) -> None:
        self.clock.call_soon(fn, *args)

    def send_wire(self, src, dst, message, direct: bool) -> bool:
        link = self._conns.get(dst)
        if link is None:
            if dst in self.members and not self._stopping:
                # Heal in the background; this frame is dropped (the
                # caller counts it) and the protocol's own retry
                # machinery re-covers the loss.
                self._ensure_link(dst)
            return False
        link.send_json({
            "t": "direct" if direct else "msg",
            "src": src,
            "m": message_to_wire(message),
        })
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        config = self.config
        loop = asyncio.get_running_loop()
        self.clock = LiveClock(loop)
        self.transport = LiveTransport(self.clock, router=self)
        self.transport.attach_metrics(self.metrics)
        self._server = await asyncio.start_server(
            self._on_connection, config.host, config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        self.node_id = config.node_id or f"{config.host}:{port}"
        self.members.add(self.node_id)
        self.overlay.join(self.node_id)
        is_cup = config.mode == "cup"
        self.node = CupNode(
            node_id=self.node_id,
            sim=self.clock,
            transport=self.transport,
            overlay=self.overlay,
            policy=make_policy(config.policy),
            metrics=self.metrics,
            persistent_interest=is_cup,
            coalesce=is_cup,
            pfu_timeout=config.pfu_timeout,
            recovery_config=RecoveryConfig() if config.recovery else None,
        )
        self.transport.register(self.node_id, self)
        if config.invariants:
            from repro.invariants.checker import InvariantChecker

            self.checker = InvariantChecker(
                self,
                hazards=("churn", "crash"),
                raise_immediately=False,
            )
            self.transport.add_send_observer(self.checker.on_send)
            self.node.invariant_probe = self.checker
        self.keepalive = KeepAliveMonitor(
            self.clock, self.transport, self.node_id,
            neighbors_fn=self._keepalive_targets,
            period=config.keepalive_period,
            miss_threshold=config.keepalive_misses,
            on_suspect=self._on_suspect,
        )
        self.node.keepalive_monitor = self.keepalive
        if config.state_dir is not None:
            self._store = NodeStore(config.state_dir)
            self._restore_state()
        self.keepalive.start()
        self._gc_process = PeriodicProcess(
            self.clock, _GC_INTERVAL, self.node.gc
        )
        if self._store is not None:
            self._snapshot_process = PeriodicProcess(
                self.clock, config.snapshot_interval, self._snapshot_state
            )
        self._log(f"serving as {self.node_id} "
                  f"(mode={config.mode}, policy={config.policy})")
        self._seeds = {seed for seed in config.peers
                       if seed != self.node_id}
        for seed in config.peers:
            await self._join_via(seed)
        self._seeds.clear()
        if self._rejoined:
            # Best-effort re-hello toward every restored member: ones
            # that answer re-learn us (rejoin hello), ones that are
            # gone fall to the backoff/suspicion machinery and get
            # evicted — membership reconverges either way.
            for member in sorted(self.members):
                if member != self.node_id and member not in self._conns:
                    self._ensure_link(member, probe=True)
            self._reconcile_restored()

    async def _join_via(self, seed: str) -> None:
        if seed == self.node_id:
            return
        loop = self.clock.loop
        deadline = loop.time() + _JOIN_TIMEOUT
        # Keep probing until the backoff machinery lands a connection
        # or the join deadline expires — a seed that is itself still
        # booting (or briefly down) should not fail the join outright.
        while True:
            link = self._conns.get(seed)
            if link is None:
                link = await self._ensure_link(seed)
            if link is not None:
                break
            if loop.time() >= deadline:
                raise ConnectionError(
                    f"could not reach seed {seed} within {_JOIN_TIMEOUT}s")
            await asyncio.sleep(0.05)
        try:
            await asyncio.wait_for(
                link.welcomed.wait(),
                timeout=max(deadline - loop.time(), 0.1),
            )
        except asyncio.TimeoutError:
            raise ConnectionError(
                f"seed member {seed} sent no welcome within {_JOIN_TIMEOUT}s"
            ) from None
        self._log(f"joined via {seed}; members={sorted(self.members)}")

    # ------------------------------------------------------------------
    # Durable state (warm rejoin)
    # ------------------------------------------------------------------

    def _restore_state(self) -> None:
        """Load the state-dir snapshot (if any) into the fresh node.

        A load failure — version skew, fingerprint skew, foreign
        identity, corrupt payload — logs loudly and starts cold rather
        than killing the daemon: the operator asked for a node, and a
        cold node is a correct (if slower) one.
        """
        try:
            state = self._store.load(
                expect_node_id=self.node_id,
                expect_mode=self.config.mode,
            )
        except CheckpointError as exc:
            self._log(f"state restore failed ({exc}); starting cold")
            return
        if state is None:
            self._log(f"no state at {self._store.path}; starting cold")
            return
        kept = sanitize_restored(state, self.clock.now)
        node = self.node
        node.cache.states.update(state.cache.states)
        node.authority_index = state.authority
        if node.recovery is not None and state.recovery is not None:
            node.recovery.import_state(state.recovery)
        peers = 0
        for member in state.members:
            if member != self.node_id and self._add_member(member):
                peers += 1
        self._rejoined = True
        self.metrics.state_restored_keys += kept
        self._log(f"warm rejoin: restored {kept} keys and {peers} "
                  f"peers from {self._store.path}")

    def _reconcile_restored(self) -> None:
        """Background pulls for every restored non-authority key.

        Restored entries serve local hits immediately, but the node was
        deaf while down: pulls re-graft its interest upstream and wash
        out any staleness accrued during the outage.  Authority keys
        and keys already mid-pull are skipped by the pull helper.
        """
        node = self.node
        for key in sorted(node.cache.states):
            node._recover_by_pull(key)

    def _snapshot_state(self) -> None:
        if self._store is None:
            return
        try:
            self._store.save(self)
        except Exception as exc:  # disk full, perms — keep serving
            self.metrics.state_snapshot_failures += 1
            self._log(f"state snapshot failed: {exc}")
        else:
            self.metrics.state_snapshots += 1

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    def request_stop(self) -> None:
        """Begin a graceful shutdown (idempotent, callable from signals)."""
        if self._stopping:
            return
        self._stopping = True
        self._own(self._shutdown())

    def _own(self, awaitable) -> asyncio.Task:
        """Run ``awaitable`` as a task this node owns until it finishes.

        A coroutine is scheduled as a new task; a task is adopted.
        """
        task = asyncio.ensure_future(awaitable)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _shutdown(self) -> None:
        self._log("leaving the cluster")
        if self.keepalive is not None:
            self.keepalive.stop()
        if self._gc_process is not None:
            self._gc_process.stop()
        if self._snapshot_process is not None:
            self._snapshot_process.stop()
        self._snapshot_state()  # the state a graceful stop resumes from
        # Gets still waiting answer now, with the error reply.
        for waiters in self._get_waiters.values():
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result([])
        for health in self._health.values():
            health.cancel_timers()
        if self._server is not None:
            # No new sessions; accepts already under way start theirs
            # during the breath below, so the sweep after it sees them.
            self._server.close()
        for link in list(self._conns.values()):
            link.send_json({"t": "leaving", "id": self.node_id})
        # One breath for the leaving frames to flush through the queues.
        await asyncio.sleep(0.05)
        for link in list(self._conns.values()):
            link.close()
        self._conns.clear()
        # Sessions, link readers and writers (replaced links included)
        # and dials: none may outlive the stop.
        tasks = self._tasks - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        for result in await asyncio.gather(*tasks, return_exceptions=True):
            if isinstance(result, Exception):
                self._log(f"task failed during shutdown: {result!r}")
        if self._server is not None:
            await self._server.wait_closed()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _keepalive_targets(self):
        return self.overlay.neighbors(self.node_id)

    def _add_member(self, member: str) -> bool:
        if member in self.members:
            return False
        self.members.add(member)
        # A (re)joining member starts with a clean bill of health —
        # stale suspicion from a previous incarnation must not linger.
        stale = self._health.pop(member, None)
        if stale is not None:
            stale.cancel_timers()
        self.overlay.join(member)
        if self.checker is not None:
            self.checker.on_membership_change("join", member)
        return True

    def _remove_member(self, member: str, reason: str) -> None:
        if member == self.node_id or member not in self.members:
            return
        self.members.discard(member)
        health = self._health.pop(member, None)
        if health is not None:
            health.cancel_timers()
        self.overlay.leave(member)
        self.node.patch_after_churn(self.members)
        if self.checker is not None:
            self.checker.on_membership_change(reason, member)
        link = self._conns.pop(member, None)
        if link is not None:
            if link.reader_task is not None:
                link.reader_task.cancel()
            link.close()
        self._log(f"member {member} removed ({reason}); "
                  f"members={sorted(self.members)}")

    # ------------------------------------------------------------------
    # Peer health (alive -> suspect -> dead)
    # ------------------------------------------------------------------

    def _health_of(self, peer_id: str) -> _PeerHealth:
        health = self._health.get(peer_id)
        if health is None:
            health = self._health[peer_id] = _PeerHealth()
        return health

    def _peer_alive(self, peer_id: str) -> None:
        """Any contact with the peer clears suspicion and backoff."""
        health = self._health.get(peer_id)
        if health is None:
            return
        health.dial_failures = 0
        health.cancel_timers()
        if health.state != "alive":
            self._log(f"member {peer_id} is back ({health.state} "
                      "cleared)")
            health.state = "alive"

    def _on_suspect(self, _reporter, suspect) -> None:
        # KeepAliveMonitor fires once per suspicion episode; a second
        # firing means a probe re-armed it and the peer stayed silent.
        health = self._health_of(suspect)
        if health.state == "alive":
            self._mark_suspect(suspect, "keep-alive misses")
        elif health.state == "suspect":
            self._declare_dead(suspect, "keep-alive misses while suspect")

    def _mark_suspect(self, peer_id: str, why: str) -> None:
        if self._stopping or peer_id not in self.members:
            return
        health = self._health_of(peer_id)
        if health.state != "alive":
            return
        health.state = "suspect"
        self.metrics.peers_suspected += 1
        self._log(f"member {peer_id} suspected ({why})")
        # Probe immediately: a suspicion must resolve, not linger.
        self._ensure_link(peer_id, probe=True)
        if health.grace_handle is None:
            grace = (self.config.keepalive_period
                     * self.config.keepalive_misses)
            health.grace_handle = self.clock.loop.call_later(
                grace, self._suspect_grace_expired, peer_id
            )

    def _suspect_grace_expired(self, peer_id: str) -> None:
        health = self._health.get(peer_id)
        if health is None or health.state != "suspect":
            return
        health.grace_handle = None
        self._declare_dead(peer_id, "suspicion grace expired")

    def _declare_dead(self, peer_id: str, why: str) -> None:
        if self._stopping or peer_id not in self.members:
            return
        health = self._health.get(peer_id)
        if health is not None:
            health.state = "dead"
            health.cancel_timers()
        self.metrics.peers_declared_dead += 1
        self._log(f"member {peer_id} declared dead ({why})")
        self._remove_member(peer_id, "crash")

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _ensure_link(self, peer_id: str, probe: bool = False):
        """A live link to ``peer_id`` — existing, or a background dial.

        Returns the link when one is already up; otherwise returns the
        (possibly fresh) dial task's eventual link via ``await``, or
        ``None`` synchronously for fire-and-forget callers.  While the
        peer is in backoff cooldown, plain callers get ``None`` — the
        pending redial owns the next attempt — and only ``probe=True``
        callers (suspicion probes, client puts, joins) cut the cooldown
        short and dial now.
        """
        link = self._conns.get(peer_id)
        if link is not None:
            return _immediate(link)
        task = self._dialing.get(peer_id)
        if task is not None:
            return task
        health = self._health.get(peer_id)
        if health is not None and health.retry_handle is not None:
            if not probe:
                return _immediate(None)
            health.retry_handle.cancel()
            health.retry_handle = None
        task = self._own(self._dial(peer_id))
        self._dialing[peer_id] = task
        task.add_done_callback(
            lambda _t: self._dialing.pop(peer_id, None)
        )
        return task

    def _make_link(self, peer_id: str,
                   writer: asyncio.StreamWriter) -> _PeerLink:
        return _PeerLink(
            peer_id, writer, self.config.codec,
            limit=self.config.outbox_limit,
            on_overflow=self._outbox_overflow,
        )

    def _outbox_overflow(self, link: _PeerLink) -> None:
        self.metrics.outbox_overflows += 1
        if link.overflows == 1:
            self._log(f"outbox to {link.peer_id} full "
                      f"({self.config.outbox_limit} frames); dropping")

    async def _dial(self, peer_id: str):
        host, _, port = peer_id.rpartition(":")
        try:
            reader, writer = await asyncio.open_connection(host, int(port))
        except (OSError, ValueError) as exc:
            self._note_dial_failure(peer_id, exc)
            return None
        self._peer_alive(peer_id)
        link = self._make_link(peer_id, writer)
        self._register_link(link)
        hello = {"t": "hello", "id": self.node_id}
        if self._rejoined:
            hello["rejoin"] = True
        link.send_json(hello)
        link.reader_task = self._own(self._peer_read_loop(link, reader))
        return link

    def _backoff_delay(self, failures: int) -> float:
        config = self.config
        delay = min(
            config.dial_backoff_base * (2 ** max(failures - 1, 0)),
            config.dial_backoff_max,
        )
        return delay * (1.0 + config.dial_backoff_jitter
                        * random.random())

    def _wants_link(self, peer_id: str) -> bool:
        return (not self._stopping
                and peer_id != self.node_id
                and peer_id not in self._conns
                and (peer_id in self.members or peer_id in self._seeds))

    def _note_dial_failure(self, peer_id: str, exc: Exception) -> None:
        if self._stopping:
            return
        self.metrics.dial_failures += 1
        health = self._health_of(peer_id)
        health.dial_failures += 1
        failures = health.dial_failures
        if peer_id in self.members:
            if failures >= self.config.dead_after:
                self._declare_dead(
                    peer_id, f"{failures} consecutive dial failures"
                )
                return
            if failures >= self.config.suspect_after:
                self._mark_suspect(
                    peer_id, f"{failures} consecutive dial failures"
                )
        elif peer_id not in self._seeds:
            # Neither a member nor a seed being joined: nobody wants
            # this link anymore, so don't keep a retry alive for it.
            self._health.pop(peer_id, None)
            return
        delay = self._backoff_delay(failures)
        self._log(f"dial {peer_id} failed ({exc}); "
                  f"retry {failures} in {delay:.2f}s")
        if health.retry_handle is not None:
            health.retry_handle.cancel()
        health.retry_handle = self.clock.loop.call_later(
            delay, self._redial, peer_id
        )

    def _redial(self, peer_id: str) -> None:
        health = self._health.get(peer_id)
        if health is not None:
            health.retry_handle = None
        if not self._wants_link(peer_id):
            return
        self.metrics.dial_retries += 1
        self._ensure_link(peer_id, probe=True)

    def _register_link(self, link: _PeerLink) -> None:
        # Simultaneous dials can race a second connection into place;
        # the newest wins the registry and the older one drains until
        # its EOF (frames on either are delivered — TCP order holds per
        # connection, and the recovery layer absorbs cross-connection
        # reordering like any other transport anomaly).
        self._conns[link.peer_id] = link
        link.writer_task = self._own(link.drain_outbox())

    def _link_closed(self, link: _PeerLink) -> None:
        link.close()
        if self._conns.get(link.peer_id) is link:
            del self._conns[link.peer_id]
            # A member's link dropping is the first crash signal most
            # peers get (keep-alives only probe overlay neighbors):
            # redial so the backoff machinery either heals the mesh or
            # escalates through suspect -> dead and evicts the member.
            if self._wants_link(link.peer_id):
                self._ensure_link(link.peer_id)

    async def _peer_read_loop(self, link: _PeerLink,
                              reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    self._process_peer_frame(link, frame)
        except WireError as exc:
            self._log(f"dropping corrupt link to {link.peer_id}: {exc}")
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._link_closed(link)

    def _process_peer_frame(self, link: _PeerLink, frame: dict) -> None:
        # Any frame from the peer proves life: clear suspicion/backoff.
        self._peer_alive(link.peer_id)
        t = frame.get("t")
        if t == "msg" or t == "direct":
            self.transport.deliver_wire(
                frame.get("src"), self.node_id,
                message_from_wire(frame["m"]),
            )
        elif t == "welcome":
            for member in frame.get("members", ()):
                if not isinstance(member, str) or member == self.node_id:
                    continue
                self._add_member(member)
                if member not in self._conns and member not in self._dialing:
                    self._ensure_link(member)
            link.welcomed.set()
        elif t == "joined":
            member = frame.get("id")
            if isinstance(member, str):
                self._add_member(member)
        elif t == "leaving":
            member = frame.get("id")
            if isinstance(member, str):
                self._remove_member(member, "leave")
        elif t == "hello":
            # A re-hello on an established link: answer with the current
            # member list (harmless, keeps the handshake idempotent).
            self._welcome(link, frame)
        else:
            raise WireError(f"unknown peer frame type {t!r}")

    def _welcome(self, link: _PeerLink, hello: dict) -> None:
        peer_id = hello.get("id")
        if not isinstance(peer_id, str) or not peer_id:
            raise WireError(f"hello frame without a valid id: {hello!r}")
        fresh = self._add_member(peer_id)
        link.send_json({
            "t": "welcome",
            "id": self.node_id,
            "members": sorted(self.members),
        })
        if fresh:
            for other_id, other in list(self._conns.items()):
                if other_id != peer_id:
                    other.send_json({"t": "joined", "id": peer_id})
            how = "rejoined warm" if hello.get("rejoin") else "joined"
            self._log(f"member {peer_id} {how}; "
                      f"members={sorted(self.members)}")

    # ------------------------------------------------------------------
    # Inbound connections (peers and clients share the listener)
    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._own(asyncio.current_task())
        decoder = FrameDecoder()
        link: Optional[_PeerLink] = None
        stop_after = False
        try:
            # A stopping node closes client sessions once their requests
            # are answered.
            while not (stop_after or link is None and self._stopping):
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    if link is not None:
                        self._process_peer_frame(link, frame)
                    elif frame.get("t") == "hello":
                        peer_id = frame.get("id")
                        if not isinstance(peer_id, str) or not peer_id:
                            raise WireError(
                                f"hello frame without a valid id: {frame!r}"
                            )
                        link = self._make_link(peer_id, writer)
                        self._register_link(link)
                        self._welcome(link, frame)
                    else:
                        stop_after = await self._handle_client_frame(
                            frame, writer
                        )
                        if stop_after:
                            break
        except WireError as exc:
            self._log(f"dropping corrupt connection: {exc}")
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if link is not None:
                self._link_closed(link)
            else:
                with contextlib.suppress(Exception):
                    writer.close()
        if stop_after:
            self.request_stop()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    async def _handle_client_frame(self, frame: dict,
                                   writer: asyncio.StreamWriter) -> bool:
        """Serve one client request; returns True for a stop request."""
        t = frame.get("t")
        stop = False
        try:
            if t == "put":
                reply = await self._client_put(frame)
            elif t == "get":
                reply = await self._client_get(frame)
            elif t == "info":
                reply = self._client_info()
            elif t == "audit":
                reply = self._client_audit()
            elif t == "hazard":
                reply = self._client_hazard(frame)
            elif t == "stop":
                reply = {"t": "ok", "id": self.node_id}
                stop = True
            else:
                reply = {"t": "error",
                         "error": f"unknown request type {t!r}"}
        except Exception as exc:  # a bad request must not kill the node
            reply = {"t": "error", "error": f"{type(exc).__name__}: {exc}"}
        writer.write(encode_frame(reply, self.config.codec))
        await writer.drain()
        return stop

    async def _client_put(self, frame: dict) -> dict:
        key = frame["key"]
        message = ReplicaMessage(
            event=ReplicaEvent(frame.get("event", "birth")),
            key=key,
            replica_id=frame["replica_id"],
            address=frame.get("address", ""),
            lifetime=float(frame.get("lifetime", 300.0)),
        )
        authority = self.overlay.authority(key)
        if authority != self.node_id:
            # A replica announcement is fire-and-forget control traffic
            # with no retry of its own, so unlike protocol sends (whose
            # loss the recovery machinery absorbs) it must not race a
            # link that is still dialing: wait for the connection.  A
            # probe dial cuts through any backoff cooldown — the client
            # asked now, and the answer should be fresh.
            link = await self._ensure_link(authority, probe=True)
            if link is None:
                return {"t": "error", "authority": authority,
                        "error": f"authority {authority} is unreachable"}
        self.transport.send_direct(authority, message)
        return {"t": "ok", "authority": authority}

    def _fresh_entries(self, key: str) -> list:
        """What a get for ``key`` answers with now; empty means wait (at
        the authority too: a birth may still be in flight)."""
        node = self.node
        now = self.clock.now
        state = node.cache.get_or_create(key)
        if node._is_authority(key, state):
            return node.authority_index.fresh_entries(key, now)
        return state.fresh_entries(now)

    async def _client_get(self, frame: dict) -> dict:
        key = frame["key"]
        timeout = float(frame.get("timeout", 5.0))
        loop = self.clock.loop
        deadline = loop.time() + timeout
        hit = self.node.post_local_query(key)
        entries = self._fresh_entries(key)
        while not entries:
            remaining = deadline - loop.time()
            if remaining <= 0 or self._stopping:
                error = ("node is stopping" if self._stopping
                         else f"no fresh entries within {timeout}s")
                return {"t": "result", "ok": False, "hit": False,
                        "key": key, "entries": [], "error": error}
            waiter = loop.create_future()
            waiters = self._get_waiters.setdefault(key, [])
            waiters.append(waiter)
            try:
                entries = await asyncio.wait_for(waiter, min(1.0, remaining))
            except asyncio.TimeoutError:
                if remaining > 1.0:
                    # Re-post every second, past the PFU timeout, so a
                    # query frame lost to a mid-dial window gets
                    # re-pushed upstream.
                    self.node.post_local_query(key)
                    entries = self._fresh_entries(key)
            finally:
                waiters.remove(waiter)
                if not waiters:
                    del self._get_waiters[key]
        return {
            "t": "result", "ok": True, "hit": hit, "key": key,
            "entries": [entry_to_wire(e) for e in entries],
            "authority": self.overlay.authority(key),
        }

    def _client_info(self) -> dict:
        checker = self.checker
        recovery = self.node.recovery
        store = self._store
        return {
            "t": "info",
            "id": self.node_id,
            "members": sorted(self.members),
            "connections": sorted(self._conns),
            "mode": self.config.mode,
            "rejoined": self._rejoined,
            "transport": {
                "sent": self.transport.sent,
                "sent_direct": self.transport.sent_direct,
                "received": self.transport.received,
                "delivered": self.transport.delivered,
                "dropped": self.transport.dropped,
            },
            "recovery": self.metrics.recovery_report(),
            "open_gaps": (
                len(recovery.open_gaps()) if recovery is not None else 0
            ),
            "livenode": self.metrics.livenode_report(),
            "peers": {
                peer: {"state": health.state,
                       "dial_failures": health.dial_failures}
                for peer, health in sorted(self._health.items())
            },
            "persistence": (
                None if store is None
                else {"path": store.path, "saves": store.saves}
            ),
            "violations": (
                len(checker.violations) if checker is not None else None
            ),
        }

    def _client_hazard(self, frame: dict) -> dict:
        """Open/close the checker's hazard windows (drill orchestration).

        A chaos driver injects a real fault, then tells each *survivor*
        which hazards its checker should tolerate while the fault's
        effects wash through — the live twin of the simulator scenarios
        declaring hazards per phase.
        """
        checker = self.checker
        if checker is None:
            return {"t": "error",
                    "error": "invariants disabled on this node"}
        action = frame.get("action", "open")
        hazards = frame.get("hazards") or []
        if action == "open":
            duration = frame.get("duration")
            checker.open_hazard_window(
                hazards,
                None if duration is None else float(duration),
            )
        elif action == "close":
            checker.close_hazard_window(hazards or None)
        else:
            return {"t": "error",
                    "error": f"unknown hazard action {action!r}"}
        return {"t": "ok", "id": self.node_id,
                "active": sorted(checker.active_hazards())}

    def _client_audit(self) -> dict:
        checker = self.checker
        if checker is None:
            return {"t": "audit", "ok": None, "violations": [],
                    "error": "invariants disabled on this node"}
        before = len(checker.violations)
        checker.check_quiescent()
        fresh = checker.violations[before:]
        return {
            "t": "audit",
            "ok": not checker.violations,
            "violations": [str(v) for v in checker.violations],
            "fresh_violations": [str(v) for v in fresh],
            "audits_run": checker.audits_run,
        }

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _log(self, text: str) -> None:
        if not self.config.quiet:
            prefix = self.node_id or f"{self.config.host}:?"
            print(f"[{prefix}] {text}", flush=True)


def _immediate(value):
    """An awaitable resolving instantly to ``value`` (link cache hits)."""
    future = asyncio.get_event_loop().create_future()
    future.set_result(value)
    return future


async def run_node(config: LiveNodeConfig,
                   install_signals: bool = True) -> LiveNode:
    """Start a node, serve until stopped, return the (stopped) node."""
    import signal

    node = LiveNode(config)
    await node.start()
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, node.request_stop)
    await node.serve_forever()
    return node


def serve(config: LiveNodeConfig) -> int:
    """Blocking entry point used by ``repro node serve|join``."""
    try:
        asyncio.run(run_node(config))
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0
