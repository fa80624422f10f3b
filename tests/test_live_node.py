"""Live daemon: in-process clusters over real localhost sockets.

Each test drives an ``asyncio.run`` scenario (plain pytest — no asyncio
plugin): daemons bind OS-assigned ports, dial each other, and push CUP
traffic through :class:`~repro.net.transport.LiveTransport` — the same
core classes the simulator runs, now over TCP.
"""

import asyncio
import time

import pytest

from repro.net.clock import LiveClock
from repro.net.daemon import LiveNode, LiveNodeConfig, _PeerLink
from repro.net.seam import (
    conforming,
    missing_clock_api,
    missing_router_methods,
    missing_transport_methods,
)
from repro.net.transport import LiveTransport
from repro.net.wire import FrameDecoder, encode_frame
from repro.sim.engine import Simulator
from repro.sim.network import Transport


# ----------------------------------------------------------------------
# Seam conformance: both worlds provide the surface core/ consumes
# ----------------------------------------------------------------------


class _NullRouter:
    def send_wire(self, src, dst, message, direct):
        return False

    def is_peer(self, node_id):
        return False

    def call_soon(self, fn, *args):
        fn(*args)


def test_transport_seam_conformance_both_worlds():
    sim = Simulator()
    live = LiveTransport(LiveClock(), _NullRouter())
    assert missing_transport_methods(Transport(sim)) == []
    assert missing_transport_methods(live) == []
    assert conforming([Transport(sim), live])


def test_clock_seam_conformance_both_worlds():
    assert missing_clock_api(Simulator()) == []
    assert missing_clock_api(LiveClock()) == []


def test_router_seam_conformance():
    assert missing_router_methods(_NullRouter()) == []
    assert missing_router_methods(LiveNode(LiveNodeConfig(port=0))) == []


def test_live_clock_tracks_wall_time():
    clock = LiveClock()
    assert abs(clock.now - time.time()) < 1.0
    with pytest.raises(ValueError):
        asyncio.run(_schedule_negative(clock))


async def _schedule_negative(clock):
    clock.schedule(-1.0, lambda: None)


def test_live_transport_rejects_self_send():
    transport = LiveTransport(LiveClock(), _NullRouter())
    with pytest.raises(ValueError):
        transport.send("n1", "n1", _Probe())


def test_live_transport_counts_unroutable_as_dropped():
    transport = LiveTransport(LiveClock(), _NullRouter())
    transport.send("n1", "n2", _Probe())
    assert transport.sent == 1
    assert transport.dropped == 1


def test_live_transport_counts_wire_arrivals_as_received():
    transport = LiveTransport(LiveClock(), _NullRouter())
    inbox = []

    class Handler:
        def receive(self, message, sender):
            inbox.append((message, sender))

    transport.register("n2", Handler())
    transport.deliver_wire("n1", "n2", _Probe())
    assert transport.received == 1
    assert transport.delivered == 1
    assert inbox and inbox[0][1] == "n1"


class _Probe:
    kind = "keepalive"
    hops = 0


# ----------------------------------------------------------------------
# Cluster scenarios
# ----------------------------------------------------------------------


async def _poll(predicate, timeout=10.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(interval)


async def _start_cluster(count, **overrides):
    overrides.setdefault("quiet", True)
    overrides.setdefault("keepalive_period", 0.2)
    first = LiveNode(LiveNodeConfig(port=0, **overrides))
    await first.start()
    nodes = [first]
    for _ in range(count - 1):
        node = LiveNode(
            LiveNodeConfig(port=0, peers=(first.node_id,), **overrides)
        )
        await node.start()
        nodes.append(node)
    want = {node.node_id for node in nodes}
    await _poll(lambda: all(node.members == want for node in nodes))
    return nodes


async def _stop_all(nodes):
    for node in reversed(nodes):
        if not node._stopped.is_set():
            node.request_stop()
            await node.serve_forever()


def _run_cluster(count, scenario, **overrides):
    async def main():
        nodes = await _start_cluster(count, **overrides)
        try:
            return await scenario(nodes)
        finally:
            await _stop_all(nodes)

    return asyncio.run(main())


def test_three_nodes_converge_membership():
    async def scenario(nodes):
        want = {node.node_id for node in nodes}
        for node in nodes:
            assert node.members == want
            assert set(node.overlay.node_ids()) == want

    _run_cluster(3, scenario)


def test_put_propagates_and_get_hits_everywhere():
    async def scenario(nodes):
        key = "live/key"
        reply = await nodes[0]._client_put(
            {"t": "put", "key": key, "replica_id": "r1",
             "address": "addr", "lifetime": 120.0}
        )
        assert reply["t"] == "ok"
        authority = reply["authority"]
        assert authority in {node.node_id for node in nodes}
        for node in nodes:
            result = await node._client_get({"key": key, "timeout": 10.0})
            assert result["ok"], result
            assert result["entries"][0]["replica_id"] == "r1"
        # CUP left every subscriber a local copy: repeat gets are hits.
        for node in nodes:
            again = await node._client_get({"key": key, "timeout": 5.0})
            assert again["hit"], again

    _run_cluster(3, scenario)


def test_refresh_pushes_to_subscribers_unprompted():
    async def scenario(nodes):
        key = "live/refresh"
        put = {"t": "put", "key": key, "replica_id": "r1",
               "address": "addr", "lifetime": 120.0}
        authority_id = (await nodes[0]._client_put(dict(put)))["authority"]
        subscribers = [n for n in nodes if n.node_id != authority_id]
        for node in subscribers:
            first = await node._client_get({"key": key, "timeout": 10.0})
            assert first["ok"], first
        await nodes[0]._client_put(dict(put))  # birth again -> REFRESH push

        def arrived(node):
            state = node.node.cache.get_or_create(key)
            entries = state.fresh_entries(node.clock.now)
            return any(e.sequence >= 2 for e in entries)

        await _poll(lambda: all(arrived(n) for n in subscribers))

    _run_cluster(3, scenario)


def test_quiescent_audit_is_clean_after_traffic():
    async def scenario(nodes):
        for i, key in enumerate(["a", "b", "c"]):
            await nodes[i % len(nodes)]._client_put(
                {"t": "put", "key": key, "replica_id": f"r{i}",
                 "address": "x", "lifetime": 60.0}
            )
        for node in nodes:
            for key in ["a", "b", "c"]:
                result = await node._client_get(
                    {"key": key, "timeout": 10.0}
                )
                assert result["ok"], result
        await asyncio.sleep(0.1)  # drain in-flight clear-bit traffic
        for node in nodes:
            audit = node._client_audit()
            assert audit["ok"] is True, audit["violations"]
            info = node._client_info()
            assert info["violations"] == 0

    _run_cluster(3, scenario)


def test_graceful_leave_shrinks_membership_without_violations():
    async def scenario(nodes):
        leaver = nodes[-1]
        leaver.request_stop()
        await leaver.serve_forever()
        rest = nodes[:-1]
        want = {node.node_id for node in rest}
        await _poll(lambda: all(node.members == want for node in rest))
        for node in rest:
            assert node._client_audit()["ok"] is True

    _run_cluster(3, scenario)


def test_silent_crash_is_detected_by_keepalive():
    async def scenario(nodes):
        victim = nodes[-1]
        # Die without a leaving broadcast: stop timers, drop sockets.
        victim.keepalive.stop()
        victim._server.close()
        for link in list(victim._conns.values()):
            if link.reader_task is not None:
                link.reader_task.cancel()
            link.close()
        victim._conns.clear()
        victim._stopping = True
        victim._stopped.set()
        rest = nodes[:-1]
        want = {node.node_id for node in rest}
        await _poll(
            lambda: all(node.members == want for node in rest),
            timeout=20.0,
        )
        for node in rest:
            assert node._client_audit()["ok"] is True

    _run_cluster(3, scenario, keepalive_period=0.1, keepalive_misses=3)


def test_garbage_frames_drop_the_connection_not_the_node():
    async def scenario(nodes):
        node = nodes[0]
        host, _, port = node.node_id.rpartition(":")
        reader, writer = await asyncio.open_connection(host, int(port))
        writer.write(b"GET / HTTP/1.1\r\n\r\n")
        await writer.drain()
        data = await asyncio.wait_for(reader.read(64), timeout=5.0)
        assert data == b""  # connection dropped, nothing leaked back
        writer.close()
        # The daemon survives and still serves well-formed clients.
        reply = await _socket_request(node, {"t": "info"})
        assert reply["t"] == "info"
        assert reply["id"] == node.node_id

    _run_cluster(2, scenario)


def test_socket_client_protocol_end_to_end():
    async def scenario(nodes):
        put = await _socket_request(
            nodes[0],
            {"t": "put", "key": "sock/key", "replica_id": "r1",
             "address": "a", "lifetime": 60.0},
        )
        assert put["t"] == "ok"
        got = await _socket_request(
            nodes[1], {"t": "get", "key": "sock/key", "timeout": 10.0}
        )
        assert got["ok"], got
        assert got["entries"][0]["key"] == "sock/key"
        bad = await _socket_request(nodes[0], {"t": "frobnicate"})
        assert bad["t"] == "error"

    _run_cluster(2, scenario)


async def _socket_request(node, frame):
    host, _, port = node.node_id.rpartition(":")
    reader, writer = await asyncio.open_connection(host, int(port))
    try:
        writer.write(encode_frame(frame))
        await writer.drain()
        return await _read_reply(reader)
    finally:
        writer.close()


async def _read_reply(reader):
    decoder = FrameDecoder()
    while True:
        data = await asyncio.wait_for(reader.read(1 << 16), timeout=15.0)
        assert data, "daemon closed the connection without replying"
        frames = decoder.feed(data)
        if frames:
            return frames[0]


def _key_owned_by(node):
    return next(key for key in (f"wake/{i}" for i in range(10_000))
                if node.overlay.authority(key) == node.node_id)


@pytest.mark.parametrize("put_via", ["authority", "peer", None])
def test_get_at_authority_waits_for_the_birth(put_via):
    # A get posted at the authority before any birth waits on its empty
    # index.  The birth wakes it whether it is put through the authority
    # itself (local delivery) or through another node (off the wire);
    # with no put, the get re-posts once a second until it times out and
    # leaves no waiter behind.
    async def scenario(nodes):
        authority, peer = nodes
        key = _key_owned_by(authority)
        posted = authority.metrics.queries_posted
        get = asyncio.ensure_future(authority._client_get(
            {"key": key, "timeout": 10.0 if put_via else 1.5}
        ))
        await _poll(lambda: key in authority._get_waiters)
        if put_via is not None:
            via = authority if put_via == "authority" else peer
            put = await via._client_put(
                {"t": "put", "key": key, "replica_id": "r1",
                 "address": "addr", "lifetime": 120.0}
            )
            assert put["authority"] == authority.node_id
        result = await get
        assert key not in authority._get_waiters
        if put_via is None:
            assert result["ok"] is False, result
            assert "no fresh entries" in result["error"]
            assert authority.metrics.queries_posted == posted + 2
        else:
            assert result["ok"], result
            assert result["entries"][0]["replica_id"] == "r1"
            # Woken by the delivery, not by a re-post a second later.
            assert authority.metrics.queries_posted == posted + 1

    _run_cluster(2, scenario)


def test_stop_answers_gets_still_in_flight():
    async def main():
        node = LiveNode(LiveNodeConfig(port=0, quiet=True))
        await node.start()
        host, _, port = node.node_id.rpartition(":")
        reader, writer = await asyncio.open_connection(host, int(port))
        writer.write(encode_frame(
            {"t": "get", "key": "never/put", "timeout": 30.0}
        ))
        await writer.drain()
        await _poll(lambda: "never/put" in node._get_waiters)
        node.request_stop()
        await asyncio.wait_for(node.serve_forever(), timeout=5.0)
        # The session was answered and closed before stop returned.
        assert asyncio.all_tasks() == {asyncio.current_task()}
        assert not node._get_waiters
        reply = await _read_reply(reader)
        writer.close()
        await writer.wait_closed()
        assert reply["ok"] is False, reply
        assert reply["error"] == "node is stopping"

    asyncio.run(main())


def _pending_tasks_of(node):
    """Unfinished tasks running a coroutine of ``node`` or of its links."""
    owned = []
    for task in asyncio.all_tasks():
        frame = task.get_coro().cr_frame
        owner = None if frame is None else frame.f_locals.get("self")
        if isinstance(owner, _PeerLink):
            # A link reaches its node through its overflow callback.
            owner = owner.on_overflow.__self__
        if owner is node:
            owned.append(task)
    return owned


def test_stop_leaves_no_task_of_the_stopped_node_in_a_cluster():
    async def scenario(nodes):
        first, middle = nodes[0], nodes[1]
        # A second connection from a peer (the simultaneous-dial race)
        # replaces the middle node's link to it; the replaced link's
        # tasks belong to the middle node all the same.
        replaced = middle._conns[first.node_id]
        await first._dial(middle.node_id)
        await _poll(lambda: middle._conns[first.node_id] is not replaced)
        middle.request_stop()
        await asyncio.wait_for(middle.serve_forever(), timeout=5.0)
        assert _pending_tasks_of(middle) == []

    _run_cluster(3, scenario)


def test_config_rejects_unknown_mode_and_codec():
    with pytest.raises(ValueError):
        LiveNodeConfig(mode="gossip")
    with pytest.raises(Exception):
        LiveNodeConfig(codec="carrier-pigeon")


def test_config_rejects_bad_resilience_knobs():
    with pytest.raises(ValueError):
        LiveNodeConfig(snapshot_interval=0.0)
    with pytest.raises(ValueError):
        LiveNodeConfig(dial_backoff_base=0.0)
    with pytest.raises(ValueError):
        LiveNodeConfig(dial_backoff_base=2.0, dial_backoff_max=1.0)
    with pytest.raises(ValueError):
        LiveNodeConfig(suspect_after=0)
    with pytest.raises(ValueError):
        LiveNodeConfig(suspect_after=4, dead_after=2)
    with pytest.raises(ValueError):
        LiveNodeConfig(outbox_limit=0)


# ----------------------------------------------------------------------
# Crash durability and connection resilience
# ----------------------------------------------------------------------


async def _hard_kill(node):
    """Die like ``kill -9``: no leaving frame, no final snapshot."""
    node.keepalive.stop()
    if node._gc_process is not None:
        node._gc_process.stop()
    if node._snapshot_process is not None:
        node._snapshot_process.stop()
    node._server.close()
    for task in list(node._dialing.values()):
        task.cancel()
    for link in list(node._conns.values()):
        if link.reader_task is not None:
            link.reader_task.cancel()
        link.close()
    node._conns.clear()
    for health in node._health.values():
        health.cancel_timers()
    node._stopping = True
    node._stopped.set()


def test_warm_rejoin_restores_cache_and_reconverges(tmp_path):
    state_dir = str(tmp_path / "state")
    common = dict(quiet=True, keepalive_period=0.2)

    async def main():
        first = LiveNode(LiveNodeConfig(port=0, **common))
        await first.start()
        second = LiveNode(LiveNodeConfig(
            port=0, peers=(first.node_id,), state_dir=state_dir,
            snapshot_interval=60.0, **common,
        ))
        await second.start()
        want = {first.node_id, second.node_id}
        await _poll(lambda: first.members == want
                    and second.members == want)

        # A key whose authority is FIRST, so SECOND holds a subscriber
        # copy that only durability can bring back after the crash.
        key = next(
            f"rejoin/k{i}" for i in range(200)
            if second.overlay.authority(f"rejoin/k{i}") == first.node_id
        )
        put = await second._client_put(
            {"t": "put", "key": key, "replica_id": "r1",
             "lifetime": 300.0}
        )
        assert put["t"] == "ok"
        got = await second._client_get(
            {"t": "get", "key": key, "timeout": 10.0}
        )
        assert got["ok"], got
        await _poll(lambda: second.node.cache.states[key].has_fresh(
            second.clock.now))
        second._snapshot_state()  # the cadence's write, forced
        assert second.metrics.state_snapshots == 1
        victim_port = int(second.node_id.rsplit(":", 1)[1])
        await _hard_kill(second)
        await _poll(lambda: first.members == {first.node_id},
                    timeout=20.0)

        # Restart on the same port from the state dir alone: no seeds.
        reborn = LiveNode(LiveNodeConfig(
            port=victim_port, state_dir=state_dir,
            snapshot_interval=60.0, **common,
        ))
        await reborn.start()
        try:
            assert reborn._rejoined is True
            assert reborn.metrics.state_restored_keys >= 1
            assert key in reborn.node.cache.states
            # Immediate local hit from the restored cache — before any
            # pull could have refilled it over the network.
            hit = await reborn._client_get(
                {"t": "get", "key": key, "timeout": 5.0}
            )
            assert hit["ok"] and hit["hit"], hit
            await _poll(lambda: first.members == want
                        and reborn.members == want, timeout=20.0)
            assert reborn._client_info()["rejoined"] is True
        finally:
            await _stop_all([first, reborn])

    asyncio.run(main())


def test_cold_start_without_state_file_serves_normally(tmp_path):
    # A configured-but-empty state dir must behave exactly like a
    # stateless boot (the chaos drill's cold path).
    async def main():
        node = LiveNode(LiveNodeConfig(
            port=0, quiet=True, state_dir=str(tmp_path / "empty"),
        ))
        await node.start()
        try:
            assert node._rejoined is False
            info = node._client_info()
            assert info["rejoined"] is False
            assert info["persistence"]["saves"] == 0
        finally:
            await _stop_all([node])

    asyncio.run(main())


def test_unreachable_member_is_suspected_then_declared_dead():
    async def scenario(nodes):
        node = nodes[0]
        ghost = "127.0.0.1:1"  # nothing listens on port 1
        node._add_member(ghost)
        node._ensure_link(ghost, probe=True)
        await _poll(lambda: ghost not in node.members, timeout=20.0)
        assert node.metrics.dial_failures >= node.config.dead_after
        assert node.metrics.dial_retries >= 1
        assert node.metrics.peers_suspected >= 1
        assert node.metrics.peers_declared_dead >= 1
        assert ghost not in node._health  # bookkeeping fully reclaimed

    _run_cluster(1, scenario, dial_backoff_base=0.02,
                 dial_backoff_max=0.05, dial_backoff_jitter=0.0)


def test_dial_backoff_gates_non_probe_callers():
    async def scenario(nodes):
        node = nodes[0]
        ghost = "127.0.0.1:1"
        node._seeds.add(ghost)  # keep the retry alive w/o membership
        assert (await node._ensure_link(ghost)) is None
        assert node._health[ghost].retry_handle is not None
        # During the cooldown a plain caller gets None without a dial;
        # only the pending (far-future) redial owns the next attempt.
        assert (await node._ensure_link(ghost)) is None
        assert node.metrics.dial_failures == 1

    _run_cluster(1, scenario, dial_backoff_base=30.0,
                 dial_backoff_max=30.0)


def test_outbox_is_bounded_and_overflow_counted():
    async def scenario(nodes):
        a, b = nodes
        link = a._conns[b.node_id]
        link.writer_task.cancel()  # wedge the drain: queue can only fill
        for _ in range(a.config.outbox_limit + 5):
            link.send_json({"t": "joined", "id": "overflow-probe"})
        assert link.outbox.qsize() <= a.config.outbox_limit
        assert link.overflows >= 5
        assert a.metrics.outbox_overflows >= 5
        assert a._client_info()["livenode"]["outbox_overflows"] >= 5

    _run_cluster(2, scenario, outbox_limit=8)


def test_hazard_window_client_op():
    async def scenario(nodes):
        node = nodes[0]
        reply = await _socket_request(
            node, {"t": "hazard", "action": "open",
                   "hazards": ["loss"], "duration": 30.0},
        )
        assert reply["t"] == "ok"
        assert "loss" in reply["active"]
        reply = await _socket_request(
            node, {"t": "hazard", "action": "close",
                   "hazards": ["loss"]},
        )
        assert reply["t"] == "ok"
        assert "loss" not in reply["active"]
        bad = await _socket_request(
            node, {"t": "hazard", "action": "open",
                   "hazards": ["bogus"]},
        )
        assert bad["t"] == "error"

    _run_cluster(1, scenario)


def test_info_reports_resilience_surface():
    async def scenario(nodes):
        info = nodes[0]._client_info()
        assert info["rejoined"] is False
        assert info["open_gaps"] == 0
        assert info["persistence"] is None
        assert "state_restored_keys" in info["livenode"]
        assert isinstance(info["peers"], dict)

    _run_cluster(1, scenario)


def test_client_buffers_pipelined_response_frames(monkeypatch):
    # Two responses landing in one recv() must serve two requests in
    # order — the decoded leftover used to be dropped on the floor.
    from repro.net import client as client_mod
    from repro.net.client import NodeClient

    replies = [{"t": "ok", "n": 1}, {"t": "ok", "n": 2}]
    blob = b"".join(encode_frame(reply) for reply in replies)

    class _FakeSocket:
        def __init__(self):
            self._chunks = [blob, b""]

        def sendall(self, data):
            pass

        def recv(self, _n):
            return self._chunks.pop(0)

        def close(self):
            pass

    monkeypatch.setattr(
        client_mod.socket, "create_connection",
        lambda *args, **kwargs: _FakeSocket(),
    )
    client = NodeClient("127.0.0.1:1")
    assert client.request({"t": "a"})["n"] == 1
    assert client.request({"t": "b"})["n"] == 2
