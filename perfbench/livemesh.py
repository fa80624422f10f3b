"""The ``live-mesh`` workload: 32 live daemons in one asyncio loop.

Every node is a :class:`~repro.net.daemon.LiveNode` with the default
:class:`LiveNodeConfig` plus ``port=0``, ``quiet`` and its own state
directory, all served by one event loop in this process.  The
benchmark is their client: it speaks the daemon's client frames
(``put``/``get``/``info``/``audit``) over reused loopback connections,
one request at a time per connection, as any client would.

A run boots the cluster several times (set-up: until membership has
converged everywhere), seeds every key with one put, then drives an
open-loop Poisson mix of gets and puts — a steady phase at a fixed rate
below the knee, then a rate ladder that stops at the first step whose
get p99 breaks the latency limit or whose generator falls behind.
Requests are timed from the moment they were due, so a stall shows in
every request it delays.

Each key has exactly one replica, ``<key>@r``; every put re-announces
it (``refresh``) at a new address that carries the put's version,
``replica-of-<key>#<n>``.  A key's puts enter through one node, its
writer, one at a time, so the authority applies them in version order.
A get is correct when it succeeds, returns exactly that replica, at a
version that was put, and never at a version older than one its node
returned to an earlier get.  After the load, the hottest keys are read
on every node: each node that the key's updates still reach must
return its last acknowledged version within a few seconds (a node that
cut off its update supply serves what it holds until the entry
expires, by design).  Then fresh probe keys are born, read on every
node, refreshed, and read until every node returns the refreshed
version.  Last, every
node's ``audit`` op must report zero invariant violations.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import itertools
import os
import random
import resource
import shutil
import statistics
import tempfile
import time

from common import GcWatch, Result, peak_rss_mb, percentile
from layers import finish, ratio, recovery_metrics, span_metrics
from tracing import SpanRecorder, install

from repro.net.daemon import LiveNode, LiveNodeConfig
from repro.net.wire import FrameDecoder, encode_frame

#: Workload parameters, echoed into the report (see README.md).
PARAMS = {
    "nodes": 32,
    "keys": 1024,
    "zipf_s": 1.0,
    "get_fraction": 0.8,
    "boots": 9,
    "connections_per_node": 8,
    "steady_rate": 350.0,
    "steady_share": 0.55,
    "ladder_start": 500.0,
    "ladder_coarse": 1.5,
    "ladder_fine": 1.08,
    "ladder_steps": 10,
    "ladder_step_share": 0.05,
    "converged_keys": 32,
    "probe_keys": 32,
    "settle_s": 0.2,
    "converge_s": 5.0,
    "get_p99_limit_ms": 250.0,
    "late_p99_limit_ms": 150.0,
    "lifetime_s": 300.0,
    "port": 24700,
}

_READ_CHUNK = 1 << 16


def replica_of(key: str) -> str:
    return f"{key}@r"


class Connection:
    """One client connection; the daemon answers its frames in order."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.pending = []

    async def request(self, frame: dict, sent_at=None) -> dict:
        self.writer.write(encode_frame(frame))
        if sent_at is not None:
            sent_at.append(time.perf_counter())
        while not self.pending:
            data = await self.reader.read(_READ_CHUNK)
            if not data:
                raise ConnectionError("node closed the client connection")
            self.pending.extend(self.decoder.feed(data))
        return self.pending.pop(0)

    def close(self) -> None:
        self.writer.close()


class Client:
    """Up to ``limit`` reused connections per node, opened on demand.

    A request takes an idle connection to its node, opens one while the
    node has fewer than ``limit``, or waits for one to come back — the
    wait counts in its latency, as it would for any bounded client.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.idle = {}
        self.count = {}
        self.opened = []

    async def open_all(self, node_ids) -> None:
        """Open every node's connections up front (outside timed phases)."""
        for node_id in node_ids:
            taken = [await self._take(node_id)
                     for _ in range(self.limit - self.count.get(node_id, 0))]
            for connection in taken:
                self.idle[node_id].put_nowait(connection)

    async def _take(self, node_id: str) -> Connection:
        idle = self.idle.setdefault(node_id, asyncio.Queue())
        if idle.empty() and self.count.get(node_id, 0) < self.limit:
            self.count[node_id] = self.count.get(node_id, 0) + 1
            host, port = node_id.rsplit(":", 1)
            connection = Connection(
                *await asyncio.open_connection(host, int(port))
            )
            self.opened.append(connection)
            return connection
        return await idle.get()

    async def request(self, node_id: str, frame: dict, sent_at=None) -> dict:
        connection = await self._take(node_id)
        try:
            reply = await connection.request(frame, sent_at)
        except BaseException:
            connection.close()
            self.count[node_id] -= 1
            raise
        self.idle[node_id].put_nowait(connection)
        return reply

    async def close(self) -> None:
        for connection in self.opened:
            connection.close()
        for connection in self.opened:
            try:
                await connection.writer.wait_closed()
            except ConnectionError:
                pass
        self.opened.clear()
        self.idle.clear()
        self.count.clear()


async def boot(root: str, count: int):
    """Start ``count`` nodes; return them and the seconds to convergence.

    Node ids are listen addresses and hash onto the Chord ring, so the
    nodes bind fixed loopback addresses (``127.0.1.<i>`` on one port):
    every run routes over the same ring.  A port found busy moves the
    whole cluster to the next one.
    """
    for port in range(PARAMS["port"], PARAMS["port"] + 32):
        try:
            return await _boot_on(root, count, port)
        except OSError:
            continue
    raise RuntimeError("no free port for the cluster")


async def _boot_on(root: str, count: int, port: int):
    started = time.perf_counter()
    nodes = []
    try:
        for index in range(count):
            node = LiveNode(LiveNodeConfig(
                host=f"127.0.1.{index + 1}", port=port, quiet=True,
                peers=(nodes[0].node_id,) if nodes else (),
                state_dir=os.path.join(root, f"n{index}"),
            ))
            await node.start()
            nodes.append(node)
    except OSError:
        await stop(nodes)
        raise
    members = {node.node_id for node in nodes}
    deadline = started + 30.0
    while not all(node.members == members for node in nodes):
        if time.perf_counter() > deadline:
            raise RuntimeError("membership did not converge within 30s")
        await asyncio.sleep(0.002)
    return nodes, time.perf_counter() - started


async def stop(nodes) -> None:
    for node in nodes:
        node.request_stop()
    for node in nodes:
        await node.serve_forever()


class Versions:
    """The versions put for each key, and those that gets returned."""

    def __init__(self):
        self.sent = {}
        self.acked = {}
        self.locks = {}
        #: (node_id, key) -> (reply times, highest version returned by
        #: then), both in reply order.
        self.replies = {}

    async def put(self, client: Client, node_id: str, key: str,
                  event: str, sent_at=None):
        """Put the key's next version; ``(frame, reply)``.

        Puts of one key wait for each other, so versions reach the
        writer, and through its ordered link the authority, in order.
        """
        async with self.locks.setdefault(key, asyncio.Lock()):
            version = self.sent.get(key, 0) + 1
            self.sent[key] = version
            frame = put_frame(key, event, version)
            reply = await client.request(node_id, frame, sent_at)
            if reply.get("t") == "ok":
                self.acked[key] = version
        return frame, reply

    def check_get(self, node_id: str, key: str, reply: dict,
                  sent_at: float, replied_at: float):
        """``None`` when the get's answer is correct, else why it is not."""
        if reply.get("t") != "result" or not reply.get("ok"):
            return f"get {key} failed: {reply}"
        entries = reply["entries"]
        replicas = sorted(entry.get("replica_id") for entry in entries)
        if replicas != [replica_of(key)]:
            return f"wrong answer: get {key} returned replicas {replicas}"
        version = version_of(entries[0])
        if not 1 <= version <= self.sent.get(key, 0):
            return (f"wrong answer: get {key} returned version {version}, "
                    f"which was never put")
        times, highest = self.replies.setdefault((node_id, key), ([], []))
        earlier = bisect.bisect_left(times, sent_at)
        if earlier and highest[earlier - 1] > version:
            return (f"wrong answer: get {key} on {node_id} returned version "
                    f"{version} after it had returned {highest[earlier - 1]}")
        times.append(replied_at)
        highest.append(max(version, highest[-1]) if highest else version)
        return None


def version_of(entry: dict) -> int:
    """The put version in an entry's address; 0 when it carries none."""
    _, _, version = entry.get("address", "").rpartition("#")
    return int(version) if version.isdigit() else 0


class Plan:
    """The seeded inputs — keys, writers, Zipf sampler, op schedules —
    and the versions put so far."""

    def __init__(self, seed: int, node_ids):
        self.rng = random.Random(seed)
        self.node_ids = list(node_ids)
        # Popularity rank follows the key's index, so the hot keys (and
        # their authorities) are the same in every run; the seed draws
        # the arrival times, target nodes, op mix and key sequence.
        self.keys = [f"key{index:05d}" for index in range(PARAMS["keys"])]
        weights = [1.0 / (rank + 1) ** PARAMS["zipf_s"]
                   for rank in range(len(self.keys))]
        self.cumulative = list(itertools.accumulate(weights))
        self.writer = {key: self.node_ids[index % len(self.node_ids)]
                       for index, key in enumerate(self.keys)}
        self.versions = Versions()

    def key(self) -> str:
        point = self.rng.random() * self.cumulative[-1]
        return self.keys[bisect.bisect_left(self.cumulative, point)]

    def schedule(self, rate: float, duration: float):
        """Open-loop Poisson arrivals: ``(offset_s, node_id, frame)``."""
        rng = self.rng
        ops = []
        offset = rng.expovariate(rate)
        while offset < duration:
            key = self.key()
            node_id = rng.choice(self.node_ids)
            if rng.random() < PARAMS["get_fraction"]:
                ops.append((offset, node_id, {"t": "get", "key": key}))
            else:
                # The versioned frame is made when the put is sent.
                ops.append((offset, self.writer[key], {"t": "put", "key": key}))
            offset += rng.expovariate(rate)
        return ops


def put_frame(key: str, event: str, version: int) -> dict:
    return {"t": "put", "key": key, "replica_id": replica_of(key),
            "address": f"replica-of-{key}#{version}", "event": event,
            "lifetime": PARAMS["lifetime_s"]}


def failures_of(steady, ladder) -> list:
    """Errors that make a run incorrect.

    Every error at the steady rate counts.  On the ladder, a step that
    broke the limit may have had gets time out: those were refused by
    an overloaded system and are counted as failed ops, not as wrong
    answers.  A wrong answer is a failure wherever it appears.
    """
    wrong = [error for phase in ladder for error in phase.errors
             if error.startswith("wrong answer")]
    return steady.errors + wrong


class Phase:
    """Samples of one open-loop phase."""

    def __init__(self, rate: float):
        self.rate = rate
        self.hit_ms = []
        self.miss_ms = []
        self.put_ms = []
        self.late_ms = []
        self.errors = []
        self.attempted = 0
        self.started = 0.0
        self.finished = 0.0
        # Set for the steady phase only: process CPU seconds per
        # request, collector deltas, and peak memory at its end.
        self.cpu_per_op = 0.0
        self.collector = {}
        self.peak_rss_mb = 0.0
        #: (node_id, key, sent_at, replied_at) of every get miss.
        self.misses = []

    @property
    def get_ms(self):
        return self.hit_ms + self.miss_ms

    def achieved_rate(self) -> float:
        done = len(self.get_ms) + len(self.put_ms)
        return done / (self.finished - self.started)


async def drive(client: Client, versions: Versions, ops,
                rate: float) -> Phase:
    """Send ``ops`` on schedule, each in its own task; await them all."""
    phase = Phase(rate)
    clock = time.perf_counter
    loop_sleep = asyncio.sleep

    async def one(due: float, node_id: str, frame: dict):
        sent_at = []
        try:
            if frame["t"] == "put":
                frame, reply = await versions.put(
                    client, node_id, frame["key"], "refresh", sent_at
                )
            else:
                reply = await client.request(node_id, frame, sent_at)
        except (ConnectionError, OSError) as exc:
            phase.errors.append(f"{frame['t']} to {node_id}: {exc}")
            return
        replied = clock()
        if frame["t"] == "put":
            problem = None if reply.get("t") == "ok" else f"put failed: {reply}"
        else:
            problem = versions.check_get(node_id, frame["key"], reply,
                                         sent_at[0], replied)
        if problem is not None:
            phase.errors.append(problem)
            return
        latency = (replied - due) * 1000.0
        if frame["t"] == "put":
            phase.put_ms.append(latency)
        elif reply["hit"]:
            phase.hit_ms.append(latency)
        else:
            phase.miss_ms.append(latency)
            phase.misses.append((node_id, frame["key"], sent_at[0], replied))

    tasks = []
    phase.started = start = clock()
    for offset, node_id, frame in ops:
        due = start + offset
        wait = due - clock()
        if wait > 0:
            await loop_sleep(wait)
        phase.late_ms.append((clock() - due) * 1000.0)
        tasks.append(asyncio.ensure_future(one(due, node_id, frame)))
    phase.attempted = len(tasks)
    await asyncio.gather(*tasks)
    phase.finished = clock()
    return phase


class LoopLag:
    """A ticker on the shared loop; records how late each tick wakes."""

    def __init__(self, period: float = 0.005):
        self.period = period
        self.lag_ms = []
        self._task = None

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._tick())

    async def _tick(self) -> None:
        while True:
            due = time.perf_counter() + self.period
            await asyncio.sleep(self.period)
            self.lag_ms.append((time.perf_counter() - due) * 1000.0)

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


async def seed_keys(client: Client, plan: Plan) -> list:
    """One birth per key, through its writer; returns failures."""
    gate = asyncio.Semaphore(64)
    failures = []

    async def put(key: str):
        async with gate:
            _, reply = await plan.versions.put(client, plan.writer[key], key,
                                               "birth")
        if reply.get("t") != "ok":
            failures.append(f"birth of {key} failed: {reply}")

    await asyncio.gather(*(put(key) for key in plan.keys))
    return failures


def subscribers(by_id: dict, key: str) -> set:
    """The key's authority and every node its updates reach.

    CUP pushes an update to the neighbors whose interest bits are set,
    and they on to theirs; a node that cut off its supply (§2.7) keeps
    serving the entry it holds until the entry's lifetime ends.  Read
    from the in-process nodes, after the load has settled.
    """
    authority = next(iter(by_id.values())).overlay.authority(key)
    reached = {authority}
    frontier = [authority]
    while frontier:
        state = by_id[frontier.pop()].node.cache.get(key)
        for child in state.interest if state is not None else ():
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    return reached


async def read_all(client: Client, versions: Versions, pairs) -> tuple:
    """Get each ``(node_id, key)`` pair; ``({pair: version}, failures)``."""
    found = {}
    failures = []
    clock = time.perf_counter

    async def get(node_id: str, key: str):
        sent_at = []
        reply = await client.request(node_id, {"t": "get", "key": key},
                                     sent_at)
        problem = versions.check_get(node_id, key, reply, sent_at[0], clock())
        if problem is None:
            found[node_id, key] = version_of(reply["entries"][0])
        else:
            failures.append(f"after the load: {problem}")

    await asyncio.gather(*(get(node_id, key) for node_id, key in pairs))
    return found, failures


async def read_at_last(client: Client, versions: Versions, pairs) -> tuple:
    """Read ``(node_id, key)`` pairs until each is at its key's last version.

    A pair read at an older version is read again every ``settle_s``
    for up to ``converge_s``, so an update that is late (a collector
    pause, a snapshot) is told apart from one that was lost.  The last
    version is exact when every put was acknowledged; a put that failed
    may or may not have reached the authority.  Returns ``(failures,
    pairs at an older version on the first read)``.
    """
    failures = []
    deadline = time.perf_counter() + PARAMS["converge_s"]
    late = list(pairs)
    first_late = None
    while True:
        found, problems = await read_all(client, versions, late)
        failures += problems
        late = [(node_id, key) for (node_id, key), version in found.items()
                if not versions.acked.get(key, 0) <= version
                <= versions.sent[key]]
        if first_late is None:
            first_late = len(late)
        if not late or time.perf_counter() > deadline:
            break
        await asyncio.sleep(PARAMS["settle_s"])
    failures += [
        f"after the load: get {key} on {node_id} returned version "
        f"{found[node_id, key]} for {PARAMS['converge_s']:g} s; the last "
        f"acknowledged is {versions.acked.get(key, 0)}"
        for node_id, key in late
    ]
    return failures, first_late


async def check_converged(client: Client, plan: Plan, nodes) -> tuple:
    """Read the hot keys on every node, after the load.

    Every answer passes :meth:`Versions.check_get`, and every node that
    the key's updates still reach returns the last acknowledged version.
    Returns ``(failures, reads, reads that had to be at the last
    version, of those the ones that were late on the first read)``.
    """
    versions = plan.versions
    by_id = {node.node_id: node for node in nodes}
    keys = plan.keys[:PARAMS["converged_keys"]]
    reached = {key: subscribers(by_id, key) for key in keys}
    pairs = [(node_id, key) for key in keys for node_id in plan.node_ids]
    subscribed = [(node_id, key) for node_id, key in pairs
                  if node_id in reached[key]]
    _, failures = await read_all(
        client, versions,
        [(node_id, key) for node_id, key in pairs
         if node_id not in reached[key]],
    )
    problems, late = await read_at_last(client, versions, subscribed)
    return failures + problems, len(pairs), len(subscribed), late


async def check_propagation(client: Client, plan: Plan) -> tuple:
    """A refresh reaches every node that caches its key.

    Fresh probe keys are born and read on every node (each miss
    subscribes its node to the key's updates), then refreshed once: every
    node must return the refreshed version.  Returns ``(failures, reads
    that were late on the first read after the refresh)``.
    """
    versions = plan.versions
    keys = [f"probe{index:03d}" for index in range(PARAMS["probe_keys"])]
    pairs = [(node_id, key) for key in keys for node_id in plan.node_ids]
    failures = []
    for event in ("birth", "refresh"):
        puts = await asyncio.gather(*(
            versions.put(client, plan.node_ids[index % len(plan.node_ids)],
                         key, event)
            for index, key in enumerate(keys)
        ))
        failures += [f"probe {event} failed: {reply}"
                     for _, reply in puts if reply.get("t") != "ok"]
        await asyncio.sleep(PARAMS["settle_s"])
        if event == "birth":
            failures += (await read_all(client, versions, pairs))[1]
    problems, late = await read_at_last(client, versions, pairs)
    return failures + problems, late


def passes(phase: Phase) -> bool:
    """A ladder step meets the limit: no errors, p99 and lateness in bound."""
    return (
        not phase.errors
        and percentile(phase.get_ms, 0.99) <= PARAMS["get_p99_limit_ms"]
        and percentile(phase.late_ms, 0.99) <= PARAMS["late_p99_limit_ms"]
    )


async def climb(client: Client, plan: Plan, step_s: float) -> list:
    """The rate ladder: coarse steps up to the knee, then fine ones.

    Rates grow by ``ladder_coarse`` until a step breaks the limit, then
    by ``ladder_fine`` from the highest passing rate.  One failed step
    can be a transient (a collector pause, a snapshot burst), so a rate
    is only judged over the limit when it fails twice running.
    """
    ladder = []
    best = None
    rate = PARAMS["ladder_start"]
    factor = PARAMS["ladder_coarse"]
    while len(ladder) < PARAMS["ladder_steps"]:
        phase = await drive(client, plan.versions,
                            plan.schedule(rate, step_s), rate)
        ladder.append(phase)
        if passes(phase):
            best = rate
            rate *= factor
            continue
        if len(ladder) < 2 or ladder[-2].rate != rate:
            continue  # retry the same rate once
        if factor == PARAMS["ladder_fine"] or best is None:
            break
        factor = PARAMS["ladder_fine"]
        rate = best * factor
        if rate >= ladder[-1].rate:
            break
    return ladder


async def steady_phase(client: Client, plan: Plan, nodes, seconds: float):
    """The fixed-rate phase, with the loop-lag ticker running beside it.

    Collector totals and peak memory are taken as the phase ends, so the
    protocol metrics and ``peak_rss_mb`` cover the same fixed amount of
    work in every run, whatever the ladder later reaches.
    """
    lag = LoopLag()
    lag.start()
    before = collector_totals(nodes)
    cpu_before = time.process_time()
    steady = await drive(
        client, plan.versions,
        plan.schedule(PARAMS["steady_rate"], seconds * PARAMS["steady_share"]),
        PARAMS["steady_rate"],
    )
    steady.cpu_per_op = (time.process_time() - cpu_before) / steady.attempted
    await lag.stop()
    steady.collector = _delta(collector_totals(nodes), before)
    steady.peak_rss_mb = peak_rss_mb()
    return steady, lag


async def audit_all(client: Client, nodes) -> list:
    failures = []
    for node in nodes:
        reply = await client.request(node.node_id, {"t": "audit"})
        if reply.get("t") != "audit" or reply.get("violations"):
            failures.append(
                f"audit on {node.node_id}: {reply.get('violations')}"
            )
    return failures


async def info_all(client: Client, nodes) -> list:
    return [await client.request(node.node_id, {"t": "info"})
            for node in nodes]


def _summed(infos, section: str) -> dict:
    total = {}
    for info in infos:
        for name, value in info[section].items():
            total[name] = total.get(name, 0) + value
    return total


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before.get(name, 0) for name in after}


def collector_totals(nodes) -> dict:
    totals = {"queries_posted": 0, "local_hits": 0, "misses": 0,
              "miss_cost": 0, "total_cost": 0}
    for node in nodes:
        for name in totals:
            totals[name] += getattr(node.metrics, name)
    return totals


async def session(seed: int, seconds: float, root: str, gc_watch: GcWatch,
                  boots: int, recorder=None, with_ladder=True) -> dict:
    """Boot (``boots`` times), seed, load, check, stop; return findings."""
    out = {"failures": [], "boot_s": []}
    nodes = None
    for index in range(boots):
        gc_watch.phase = "setup"
        nodes, boot_s = await boot(os.path.join(root, f"boot{index}"),
                                   PARAMS["nodes"])
        gc_watch.phase = None
        out["boot_s"].append(boot_s)
        if index < boots - 1:
            await stop(nodes)
            gc.collect()  # the stopped cluster's garbage, outside any timing
    client = Client(PARAMS["connections_per_node"])
    try:
        plan = Plan(seed, [node.node_id for node in nodes])
        await client.open_all(plan.node_ids)
        out["failures"] += await seed_keys(client, plan)
        before = await info_all(client, nodes)
        builds_before = sum(node.overlay.table_builds for node in nodes)
        collector_before = collector_totals(nodes)
        if recorder is not None:
            out["span_first"] = recorder.mark()
            recorder.track_updates = True
        gc_watch.phase = "run"
        steady, lag = await steady_phase(client, plan, nodes, seconds)
        ladder = []
        if with_ladder:
            ladder = await climb(client, plan,
                                 seconds * PARAMS["ladder_step_share"])
        gc_watch.phase = None
        if recorder is not None:
            recorder.track_updates = False
            out["span_last"] = recorder.mark()
        # Counters cover the load only, not the checks that follow it.
        out["table_builds"] = sum(
            node.overlay.table_builds for node in nodes
        ) - builds_before
        out["collector"] = _delta(collector_totals(nodes), collector_before)
        out["keystates_end"] = sum(len(node.node.cache.states)
                                   for node in nodes)
        after = await info_all(client, nodes)
        out["failures"] += failures_of(steady, ladder)
        await asyncio.sleep(PARAMS["settle_s"])  # in-flight propagation
        converged, *out["converged"] = await check_converged(client, plan,
                                                             nodes)
        propagated, out["probe_late"] = await check_propagation(client, plan)
        out["failures"] += converged + propagated
        out["failures"] += await audit_all(client, nodes)
        out.update(steady=steady, lag=lag, ladder=ladder)
        out["transport"] = _delta(_summed(after, "transport"),
                                  _summed(before, "transport"))
        out["recovery"] = _delta(_summed(after, "recovery"),
                                 _summed(before, "recovery"))
        out["livenode"] = _summed(after, "livenode")
        out["links_open"] = sum(len(info["connections"]) for info in after)
    finally:
        await client.close()
        await stop(nodes)
    return out


def capacity(ladder) -> tuple:
    """The achieved rate of the highest passing step, and its offered rate."""
    passing = [phase for phase in ladder if passes(phase)]
    if not passing:
        return 0.0, 0.0
    best = max(passing, key=lambda phase: phase.rate)
    return best.achieved_rate(), best.rate


def tally(found: dict) -> tuple:
    """``(attempted, failed)`` over the steady phase and the ladder."""
    phases = [found["steady"]] + found["ladder"]
    attempted = sum(phase.attempted for phase in phases)
    return attempted, sum(len(phase.errors) for phase in phases)


def end_to_end(found: dict) -> dict:
    steady = found["steady"]
    totals = steady.collector
    return {
        "setup_s": (statistics.median(found["boot_s"]), "s"),
        "peak_rss_mb": (steady.peak_rss_mb, "MB"),
        # At the steady rate; over-limit ladder steps may refuse work.
        "answered_frac": (
            1.0 - len(steady.errors) / steady.attempted, "ratio"
        ),
        # Requests served per CPU-second of this process (the one loop
        # that runs every node and the client) at the steady rate.
        "queries_per_s": (1.0 / steady.cpu_per_op, "1/s"),
        "miss_latency_hops": (
            ratio(totals["miss_cost"], totals["misses"]), "hops"
        ),
        "cost_per_query_hops": (
            ratio(totals["total_cost"], totals["queries_posted"]), "hops"
        ),
        "miss_delay_ms": (statistics.median(steady.miss_ms), "ms"),
    }


def notes(found: dict, seed: int) -> list:
    steady = found["steady"]
    achieved, offered = capacity(found["ladder"])
    gets = steady.get_ms
    lines = [
        f"parameters: {PARAMS}",
        f"seed {seed}; boots (s): "
        + ", ".join(f"{value:.3f}" for value in found["boot_s"]),
        f"steady phase at {steady.rate:g} ops/s: {steady.attempted} ops, "
        f"{len(steady.hit_ms)} get hits, {len(steady.miss_ms)} get misses, "
        f"{len(steady.put_ms)} puts",
        f"live_get_hit_p50_ms   {percentile(steady.hit_ms, 0.5):.3f} ms "
        f"(n={len(steady.hit_ms)})",
        f"live_get_miss_p50_ms  {percentile(steady.miss_ms, 0.5):.3f} ms "
        f"(n={len(steady.miss_ms)})",
        f"live_get_p99_ms       {percentile(gets, 0.99):.3f} ms "
        f"(n={len(gets)})",
        f"live_put_p50_ms       {percentile(steady.put_ms, 0.5):.3f} ms "
        f"(n={len(steady.put_ms)})",
        f"live_capacity_ops_per_s {achieved:.1f} 1/s (offered {offered:.1f}; "
        f"limit get p99 <= {PARAMS['get_p99_limit_ms']:g} ms, "
        f"late p99 <= {PARAMS['late_p99_limit_ms']:g} ms)",
        f"steady CPU per request {steady.cpu_per_op * 1000:.4f} ms; "
        f"failed_frac {len(steady.errors) / steady.attempted:.6f} ratio",
        "after the load: {} (node, hot key) gets, {} on nodes that updates "
        "still reach (these must be at the last version; {} were late on "
        "the first read)".format(*found["converged"]),
        f"probe keys: {found['probe_late']} of "
        f"{PARAMS['probe_keys'] * PARAMS['nodes']} reads were late on the "
        "first read after the refresh",
        f"loadgen late p99 {percentile(steady.late_ms, 0.99):.3f} ms; "
        f"loop lag p99 {percentile(found['lag'].lag_ms, 0.99):.3f} ms",
        "ladder (offered ops/s: get p99 ms / late p99 ms / errors):",
    ]
    for phase in found["ladder"]:
        lines.append(
            f"  {phase.rate:8.1f}: {percentile(phase.get_ms, 0.99):8.2f} / "
            f"{percentile(phase.late_ms, 0.99):7.2f} / {len(phase.errors)}"
            f"{'' if passes(phase) else '  <- over the limit'}"
        )
    return lines


def layers_of(found: dict, recorder, gc_watch, untraced_cpu_per_op):
    times, counts, spans = recorder.window(found["span_first"],
                                           found["span_last"])
    steady = found["steady"]
    values = span_metrics(times)
    values.update(recovery_metrics(found["recovery"]))
    transport = found["transport"]
    livenode = found["livenode"]
    totals = found["collector"]
    gets = len(steady.get_ms) + sum(len(p.get_ms) for p in found["ladder"])
    lags = []
    for phase in [steady] + found["ladder"]:
        for node_id, key, sent_at, replied in phase.misses:
            # The answering update: the last to reach the node for the
            # key after the get was sent and before its reply arrived.
            arrivals = recorder.update_times.get((node_id, key), ())
            before_reply = bisect.bisect_right(arrivals, replied)
            if before_reply and arrivals[before_reply - 1] >= sent_at:
                lags.append((replied - arrivals[before_reply - 1]) * 1000.0)
    values.update({
        "core.node.hit_ratio": ratio(totals["local_hits"],
                                     totals["queries_posted"]),
        "overlay.table_builds": found["table_builds"],
        "core.cache.keystates_end": found["keystates_end"],
        "net.transport.sends": transport["sent"] + transport["sent_direct"],
        "net.transport.received": transport["received"],
        "net.transport.dropped": transport["dropped"],
        "net.daemon.get_reposts": times.get(
            "CupNode.post_local_query", (0, 0.0))[0] - gets,
        "net.daemon.reply_lag_p50_ms": (
            statistics.median(lags) if lags else 0.0
        ),
        "net.daemon.links_open": found["links_open"],
        "net.daemon.loop_lag_p99_ms": percentile(found["lag"].lag_ms, 0.99),
        "net.daemon.outbox_overflows": livenode["outbox_overflows"],
        "net.daemon.dial_failures": livenode["dial_failures"],
        "net.daemon.dial_retries": livenode["dial_retries"],
        "loadgen.late_p99_ms": percentile(steady.late_ms, 0.99),
        "loadgen.capacity_ops_per_s": capacity(found["ladder"])[0],
        "trace.overhead_ratio": steady.cpu_per_op / untraced_cpu_per_op - 1.0,
    })
    return finish("live-mesh", values, times, counts, spans, gc_watch)


async def _measure(seed, seconds, trace, root, gc_watch) -> Result:
    if not trace:
        found = await session(seed, seconds, os.path.join(root, "untraced"),
                              gc_watch, PARAMS["boots"])
        attempted, failed = tally(found)
        return Result(attempted=attempted, failed=failed,
                      metrics=end_to_end(found), failures=found["failures"],
                      notes=notes(found, seed))
    # Traced: an untraced steady phase first, as the overhead baseline
    # (CPU per request), then the traced session with every wrapper
    # installed before its cluster boots.
    baseline = await session(seed, seconds, os.path.join(root, "base"),
                             gc_watch, 1, with_ladder=False)
    gc.collect()
    recorder = SpanRecorder()
    install(recorder)
    gc_watch.reset()
    found = await session(seed, seconds, os.path.join(root, "traced"),
                          gc_watch, 1, recorder=recorder)
    layers, trace_failures = layers_of(found, recorder, gc_watch,
                                       baseline["steady"].cpu_per_op)
    attempted, failed = tally(found)
    failures = baseline["failures"] + found["failures"] + trace_failures
    return Result(attempted=attempted + baseline["steady"].attempted,
                  failed=failed + len(baseline["steady"].errors),
                  metrics=end_to_end(found), layers=layers,
                  failures=failures, notes=notes(found, seed))


def _raise_fd_limit() -> None:
    """32 meshed nodes hold ~2k sockets in this one process."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 8192 if hard == resource.RLIM_INFINITY else min(hard, 8192)
    if soft != resource.RLIM_INFINITY and soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    del workload  # one live workload
    _raise_fd_limit()
    gc_watch = GcWatch()
    here = os.path.dirname(os.path.abspath(__file__))
    root = tempfile.mkdtemp(prefix=".live-", dir=here)
    try:
        return asyncio.run(_measure(seed, seconds, trace, root, gc_watch))
    finally:
        gc_watch.close()
        shutil.rmtree(root, ignore_errors=True)
