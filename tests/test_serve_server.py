"""Tests for the network serving tier (:mod:`repro.serve.server`).

Covers the wire protocol, admission control, the micro-batcher, the
end-to-end server over a Unix socket, index hot swap (cache
invalidation, in-flight safety, no mapping/fd leak), the thread-safety
contract of the engine under the coalescer, and the format-2 rejection
on every load path.
"""

import asyncio
import contextlib
import gc
import os
import random
import socket
import sys
import tempfile
import threading

import pytest

from repro import TILLIndex
from repro.errors import IndexFormatError
from repro.graph.projection import span_reaches_bruteforce
from repro.serve import QueryEngine
from repro.serve.admission import AdmissionController, TokenBucket, parse_quota
from repro.serve.batching import MicroBatcher
from repro.serve.client import ServeClient, run_loadgen
from repro.serve.protocol import (
    BAD_REQUEST,
    INTERNAL,
    OVERLOADED,
    QUOTA_EXCEEDED,
    ProtocolError,
    decode_response,
    encode_answer,
    encode_error,
    parse_request,
)
from repro.serve.server import IndexProvider, ReachabilityServer, ServerConfig

from tests.conftest import FORMAT2_REJECTION, random_graph, write_format2


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_span_request_round_trip(self):
        r = parse_request(
            b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,"id":"q7"}\n'
        )
        assert (r.op, r.u, r.v, r.window, r.id) == ("span", 1, 2, (0, 9), "q7")
        assert r.tenant == "default"

    def test_theta_request_carries_theta_and_tenant(self):
        r = parse_request(
            b'{"op":"theta","u":"a","v":"b","t1":1,"t2":5,"theta":2,'
            b'"tenant":"acme"}'
        )
        assert r.theta == 2 and r.tenant == "acme"

    @pytest.mark.parametrize("line", [
        b"not json at all",
        b"[1,2,3]",
        b'{"op":"frobnicate"}',
        b'{"op":"span","u":1,"v":2,"t1":0}',          # missing t2
        b'{"op":"span","u":1,"v":2,"t1":true,"t2":9}',  # bool timestamp
        b'{"op":"span","u":1,"v":2,"t1":"0","t2":9}',   # string timestamp
        b'{"op":"theta","u":1,"v":2,"t1":0,"t2":9}',    # theta missing
        b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,"tenant":""}',
    ])
    def test_bad_requests_raise_bad_request(self, line):
        with pytest.raises(ProtocolError) as info:
            parse_request(line)
        assert info.value.code == BAD_REQUEST

    def test_control_ops_need_no_query_fields(self):
        assert parse_request(b'{"op":"ping"}').op == "ping"
        assert parse_request(b'{"op":"stats"}').op == "stats"
        assert parse_request(b'{"op":"reload"}').op == "reload"
        assert parse_request(b'{"op":"metrics"}').op == "metrics"

    def test_trace_field_is_optional_and_validated(self):
        r = parse_request(b'{"op":"span","u":1,"v":2,"t1":0,"t2":9}')
        assert r.trace_id is None and r.parent_span is None
        r = parse_request(
            b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,'
            b'"trace":{"id":"req-7","span":"client"}}'
        )
        assert r.trace_id == "req-7" and r.parent_span == "client"
        for bad in (b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,"trace":7}',
                    b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,'
                    b'"trace":{"id":""}}',
                    b'{"op":"span","u":1,"v":2,"t1":0,"t2":9,'
                    b'"trace":{"span":"x"}}'):
            with pytest.raises(ProtocolError) as info:
                parse_request(bad)
            assert info.value.code == BAD_REQUEST

    def test_encode_decode(self):
        doc = decode_response(encode_answer(3, True))
        assert doc == {"id": 3, "ok": True, "answer": True}
        doc = decode_response(encode_error("x", OVERLOADED, "busy"))
        assert doc["ok"] is False and doc["code"] == OVERLOADED

    def test_encoded_lines_are_newline_terminated(self):
        assert encode_answer(None, False).endswith(b"\n")
        assert b"\n" not in encode_answer(None, False)[:-1]


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_token_bucket_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert [bucket.allow(0.0) for _ in range(4)] == [
            True, True, True, False
        ]
        assert bucket.allow(0.5)  # 1 token refilled at 2/s
        assert not bucket.allow(0.5)

    def test_quota_gate_is_deterministic_with_fake_clock(self):
        clock = lambda: 100.0  # frozen: no refill ever
        controller = AdmissionController(
            max_inflight=0, quotas={"acme": (1.0, 2.0)}, clock=clock
        )
        codes = [controller.try_admit("acme") for _ in range(4)]
        assert codes == [None, None, QUOTA_EXCEEDED, QUOTA_EXCEEDED]
        # unmetered tenant is untouched by acme's empty bucket
        assert controller.try_admit("other") is None

    def test_inflight_bound_rejects_overloaded(self):
        controller = AdmissionController(max_inflight=2)
        assert controller.try_admit("t") is None
        assert controller.try_admit("t") is None
        assert controller.try_admit("t") == OVERLOADED
        controller.release()
        assert controller.try_admit("t") is None
        assert controller.stats()["rejected"] == {OVERLOADED: 1}
        assert controller.stats()["peak_inflight"] == 2

    def test_default_quota_applies_to_unlisted_tenants(self):
        controller = AdmissionController(
            max_inflight=0, default_quota=(0.0, 1.0), clock=lambda: 0.0
        )
        assert controller.try_admit("anyone") is None
        assert controller.try_admit("anyone") == QUOTA_EXCEEDED

    def test_parse_quota(self):
        assert parse_quota("acme=5") == ("acme", (5.0, 5.0))
        assert parse_quota("acme=5:20") == ("acme", (5.0, 20.0))
        assert parse_quota("*=0.5") == ("*", (0.5, 1.0))
        for bad in ("acme", "=5", "acme=fast"):
            with pytest.raises(ValueError):
                parse_quota(bad)


# ----------------------------------------------------------------------
# micro-batcher
# ----------------------------------------------------------------------


class TestMicroBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_coalesces_same_key_flushes_on_timer(self):
        calls = []

        async def execute(key, pairs, meta):
            calls.append((key, list(pairs)))
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100, max_delay=0.01)
            futures = [batcher.submit("span", (0, i), 1, 9, None)
                       for i in range(5)]
            answers = await asyncio.gather(*futures)
            await batcher.drain()
            return answers

        answers = self._run(scenario())
        assert answers == [True] * 5
        assert len(calls) == 1  # one coalesced engine call
        assert calls[0][0] == ("span", 1, 9, None)
        assert len(calls[0][1]) == 5

    def test_size_trigger_flushes_before_timer(self):
        sizes = []

        async def execute(key, pairs, meta):
            sizes.append(len(pairs))
            return [False] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=3, max_delay=60.0)
            futures = [batcher.submit("span", (0, i), 1, 9, None)
                       for i in range(3)]
            # max_delay is a minute: only the size trigger can flush.
            await asyncio.wait_for(asyncio.gather(*futures), timeout=5)
            await batcher.drain()

        self._run(scenario())
        assert sizes == [3]

    def test_distinct_keys_do_not_coalesce(self):
        keys = []

        async def execute(key, pairs, meta):
            keys.append(key)
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=10, max_delay=0.005)
            a = batcher.submit("span", (0, 1), 1, 9, None)
            b = batcher.submit("span", (0, 1), 1, 5, None)   # other window
            c = batcher.submit("theta", (0, 1), 1, 9, 2)     # other op
            await asyncio.gather(a, b, c)
            await batcher.drain()

        self._run(scenario())
        assert sorted(keys) == [
            ("span", 1, 5, None), ("span", 1, 9, None), ("theta", 1, 9, 2)
        ]

    def test_executor_exception_delivered_per_future(self):
        async def execute(key, pairs, meta):
            raise RuntimeError("kernel exploded")

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=10, max_delay=0.001)
            futures = [batcher.submit("span", (0, i), 1, 9, None)
                       for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.drain()
            return results

        results = self._run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_meta_and_traces_reach_a_3arg_executor(self):
        seen = []

        async def execute(key, pairs, meta):
            seen.append(dict(meta))
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100, max_delay=0.005)
            metas = [{}, {}, None]
            futures = [
                batcher.submit("span", (0, 0), 1, 9, None,
                               trace="t-0", meta=metas[0]),
                batcher.submit("span", (0, 1), 1, 9, None,
                               trace="t-1", meta=metas[1]),
                batcher.submit("span", (0, 2), 1, 9, None),  # untraced
            ]
            await asyncio.gather(*futures)
            await batcher.drain()
            return metas

        metas = self._run(scenario())
        # one coalesced flush: the executor saw the batch label and
        # every member trace id
        assert len(seen) == 1
        assert seen[0]["traces"] == ["t-0", "t-1"]
        assert seen[0]["batch"].startswith("b")
        # the caller-owned meta dicts were filled in place at flush
        for meta in metas[:2]:
            assert meta["batch"] == seen[0]["batch"]
            assert meta["size"] == 3
            assert meta["cause"] in ("tick", "size", "drain")

    def test_drain_flushes_pending(self):
        flushed = []

        async def execute(key, pairs, meta):
            flushed.extend(pairs)
            return [True] * len(pairs)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100, max_delay=60.0)
            future = batcher.submit("span", (7, 8), 1, 9, None)
            assert batcher.pending_queries == 1
            await batcher.drain()
            assert batcher.pending_queries == 0
            assert await future is True

        self._run(scenario())
        assert flushed == [(7, 8)]

    def test_lone_submit_flushes_without_waiting_for_max_delay(self):
        causes = []

        async def execute(key, pairs, meta):
            return [True] * len(pairs)

        async def scenario():
            # max_delay is a minute and is ignored: the end of the loop
            # tick flushes a lone query.
            batcher = MicroBatcher(execute, max_batch=100, max_delay=60.0)
            meta = {}
            future = batcher.submit("span", (0, 1), 1, 9, None, meta=meta)
            assert await asyncio.wait_for(future, timeout=1) is True
            causes.append(meta["cause"])
            await batcher.drain()

        self._run(scenario())
        assert causes == ["tick"]

    def test_compat_delay_and_thread_fields(self):
        async def execute(key, pairs, meta):
            return [True] * len(pairs)

        # Accepted for old callers and ignored.
        assert MicroBatcher(execute, max_delay=0.5).max_delay == 0.5
        assert ServerConfig(batch_delay=0.5).batch_delay == 0.5
        assert ServerConfig(executor_threads=1).executor_threads == 1
        with pytest.raises(ValueError):
            ServerConfig(executor_threads=2)


class TestBatcherCoalescing:
    """Span coalescing keys must ignore θ; θ keys must not."""

    def _run(self, submits):
        """Drive a MicroBatcher with a recording executor; returns the
        flushed (key, pairs) list."""
        flushed = []

        async def scenario():
            async def execute(key, pairs, meta):
                flushed.append((key, list(pairs)))
                return [True] * len(pairs)

            batcher = MicroBatcher(execute, max_batch=64, max_delay=0.005)
            futures = [
                batcher.submit(op, pair, t1, t2, theta)
                for op, pair, t1, t2, theta in submits
            ]
            await asyncio.gather(*futures)
            await batcher.drain()

        asyncio.run(scenario())
        return flushed

    def test_span_submits_with_mixed_theta_share_one_batch(self):
        flushed = self._run([
            ("span", ("a", "b"), 1, 9, None),
            ("span", ("a", "c"), 1, 9, 3),
            ("span", ("b", "c"), 1, 9, 7),
        ])
        assert len(flushed) == 1
        key, pairs = flushed[0]
        assert key == ("span", 1, 9, None)
        assert len(pairs) == 3

    def test_theta_submits_with_mixed_theta_stay_separate(self):
        flushed = self._run([
            ("theta", ("a", "b"), 1, 9, 3),
            ("theta", ("a", "c"), 1, 9, 3),
            ("theta", ("b", "c"), 1, 9, 7),
        ])
        keys = sorted(key for key, _ in flushed)
        assert keys == [("theta", 1, 9, 3), ("theta", 1, 9, 7)]
        sizes = {key: len(pairs) for key, pairs in flushed}
        assert sizes[("theta", 1, 9, 3)] == 2
        assert sizes[("theta", 1, 9, 7)] == 1


# ----------------------------------------------------------------------
# end-to-end server over a Unix socket
# ----------------------------------------------------------------------


@contextlib.contextmanager
def running_server(provider, config=None, telemetry=None, loop_errors=None):
    """A live server on a scratch Unix socket, torn down on exit.

    With *loop_errors* (a list), every context that reaches the server
    loop's exception handler is appended to it.
    """
    with tempfile.TemporaryDirectory(prefix="repro-serve-test-") as scratch:
        socket_path = os.path.join(scratch, "serve.sock")
        server = ReachabilityServer(
            provider, config or ServerConfig(max_batch=32),
            telemetry=telemetry,
        )
        ready = threading.Event()
        failure = []

        async def serve():
            if loop_errors is not None:
                asyncio.get_running_loop().set_exception_handler(
                    lambda _loop, context: loop_errors.append(context)
                )
            await server.serve(socket_path=socket_path, ready=ready)

        def run():
            try:
                asyncio.run(serve())
            except Exception as exc:  # surfaced in the main thread below
                failure.append(exc)
                ready.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(20), "server never became ready"
        if failure:
            raise failure[0]
        try:
            yield server, socket_path
        finally:
            server.stop()
            thread.join(20)
            assert not thread.is_alive(), "server did not shut down"
            if failure:
                raise failure[0]


@contextlib.contextmanager
def _raw_connection(socket_path):
    """A plain Unix-socket connection and an iterator over its lines."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(socket_path)
    reader = sock.makefile("rb")
    try:
        yield sock, iter(reader.readline, b"")
    finally:
        reader.close()
        sock.close()


@pytest.fixture(scope="module")
def served_graph():
    return random_graph(3, num_vertices=10, num_edges=45)


@pytest.fixture(scope="module")
def served_index(served_graph):
    return TILLIndex.build(served_graph)


class TestServerEndToEnd:
    def test_answers_match_index(self, served_graph, served_index):
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index  # serve the prebuilt index
        pairs = [(u, v) for u in range(6) for v in range(6)]
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                for u, v in pairs:
                    got = client.span(u, v, 1, 10)
                    assert got["ok"], got
                    assert got["answer"] == served_index.span_reachable(
                        u, v, (1, 10)
                    )
                    got = client.theta(u, v, 1, 9, 3)
                    assert got["ok"], got
                    assert got["answer"] == served_index.theta_reachable(
                        u, v, (1, 9), 3
                    )

    def test_pipelined_responses_in_request_order(self, served_graph,
                                                  served_index):
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                sent = []
                for u in range(8):
                    sent.append(client.send(
                        {"op": "span", "u": u, "v": (u + 1) % 8,
                         "t1": 1, "t2": 10}
                    ))
                client.flush()
                for expected_id in sent:
                    assert client.recv()["id"] == expected_id

    def test_control_ops_and_error_codes(self, served_graph, served_index):
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                assert client.ping()["result"]["pong"] is True
                stats = client.stats()["result"]
                assert stats["engine"]["queries"] >= 0
                assert "admission" in stats and "batcher" in stats
                # malformed line -> per-request error, connection survives
                bad = client.call({"op": "warp"})
                assert bad["code"] == BAD_REQUEST
                # unknown vertex rejected before batching
                missing = client.span(999, 0, 1, 10)
                assert missing["code"] == "unknown-vertex"
                # inverted window -> bad-window for that batch only
                inverted = client.span(0, 1, 10, 1)
                assert inverted["code"] == "bad-window"
                # and the connection still answers real queries
                assert client.span(0, 1, 1, 10)["ok"]

    def test_oversize_line_gets_error_frame_then_close(self, served_graph,
                                                       served_index):
        """A request line past the stream's 64 KiB limit is answered
        with a bad-request frame before the connection closes."""
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                assert client.ping()["ok"]
                reply = client.call({"op": "ping", "pad": "x" * 70_000})
                assert reply["ok"] is False
                assert reply["code"] == BAD_REQUEST
                assert "too long" in reply["error"]
                with pytest.raises(ConnectionError):
                    client.recv()
            # The server keeps serving other connections.
            with ServeClient(socket_path=socket_path) as client:
                assert client.ping()["ok"]

    def test_same_tick_queries_share_batches(self, served_graph,
                                             served_index):
        """Lines read in one loop wake-up coalesce without a timer."""
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        n = 50
        with running_server(provider) as (_server, socket_path):
            with _raw_connection(socket_path) as (sock, lines):
                sock.sendall(b"".join(
                    b'{"op":"span","u":%d,"v":%d,"t1":1,"t2":10,"id":%d}\n'
                    % (k % 10, (k * 3 + 1) % 10, k) for k in range(n)
                ))
                replies = [decode_response(next(lines)) for _ in range(n)]
            assert [r["id"] for r in replies] == list(range(n))
            assert all(r["ok"] for r in replies)
            with ServeClient(socket_path=socket_path) as client:
                batcher = client.stats()["result"]["batcher"]
        assert batcher["flushed_queries"] == n
        assert batcher["flushed_batches"] < n

    def test_graceful_stop_ends_idle_connections_cleanly(self, served_graph,
                                                          served_index):
        """Stopping with a connected idle client raises nothing on the
        loop (no cancelled connection handler) and the client sees EOF."""
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        loop_errors = []
        with contextlib.ExitStack() as stack:
            with running_server(provider, loop_errors=loop_errors) as (
                    _server, socket_path):
                sock, lines = stack.enter_context(
                    _raw_connection(socket_path))
                sock.sendall(b'{"op":"ping","id":1}\n')
                assert decode_response(next(lines))["result"]["pong"]
            # The server has stopped; the client is still connected.
            sock.settimeout(5)
            assert sock.recv(1) == b""
        assert loop_errors == []

    def test_response_queue_is_bounded(self, served_graph, served_index,
                                       monkeypatch):
        """A client that pipelines far past the response-queue bound
        before reading gets every answer, in order, while the server
        never queues more than the bound."""
        from repro.serve import server as server_module

        bound = 4
        monkeypatch.setattr(server_module, "RESPONSE_QUEUE_LIMIT", bound)
        depths = []
        write_responses = ReachabilityServer._write_responses

        async def sampled(self, queue, writer):
            get = queue.get

            async def sampled_get():
                item = await get()
                depths.append(queue.qsize() + 1)  # incl. the one taken
                return item

            queue.get = sampled_get
            await write_responses(self, queue, writer)

        monkeypatch.setattr(ReachabilityServer, "_write_responses", sampled)
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        n = 1000
        with running_server(provider) as (_server, socket_path):
            with _raw_connection(socket_path) as (sock, lines):
                sock.sendall(b"".join(
                    b'{"op":"ping","id":%d}\n' % k for k in range(n)
                ))
                ids = [decode_response(next(lines))["id"] for _ in range(n)]
        assert ids == list(range(n))
        # The reader filled the queue to the bound and never past it.
        assert max(depths) == bound

    def test_vartheta_cap_maps_to_unsupported(self, served_graph):
        provider = IndexProvider(served_graph, vartheta=2)
        with running_server(provider) as (_server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                over_cap = client.span(0, 1, 1, 10)  # length 10 > cap 2
                assert over_cap["code"] == "unsupported"
                assert client.span(0, 1, 1, 2)["ok"]  # length 2 == cap

    def test_quota_exhaustion_rejects_only_that_tenant(self, served_graph,
                                                       served_index):
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        config = ServerConfig(
            max_batch=32,
            quotas={"metered": (0.0, 3.0)},  # 3 queries, ever
        )
        with running_server(provider, config) as (_server, socket_path):
            with ServeClient(socket_path=socket_path,
                             tenant="metered") as client:
                outcomes = [client.span(0, 1, 1, 10) for _ in range(5)]
            allowed = [r for r in outcomes if r["ok"]]
            rejected = [r for r in outcomes if not r["ok"]]
            assert len(allowed) == 3
            assert {r["code"] for r in rejected} == {QUOTA_EXCEEDED}
            with ServeClient(socket_path=socket_path) as client:
                assert client.span(0, 1, 1, 10)["ok"]

    def test_loadgen_against_live_server(self, served_graph, served_index):
        provider = IndexProvider(served_graph)
        provider.open = lambda: served_index
        queries = [(u % 10, (u * 3 + 1) % 10, 1, 10, None if u % 2 else 3)
                   for u in range(120)]
        with running_server(provider) as (_server, socket_path):
            result = run_loadgen(queries, socket_path=socket_path,
                                 concurrency=3, pipeline=5)
        assert result["ok"] == 120
        assert result["errors"] == 0 and not result["failures"]
        assert result["qps"] > 0
        for key in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms"):
            assert result[key] >= 0.0


# ----------------------------------------------------------------------
# hot swap
# ----------------------------------------------------------------------


@pytest.fixture()
def saved_index_path(served_graph, served_index, tmp_path):
    path = str(tmp_path / "serve.till")
    served_index.save(path, format=3)
    return path


class TestHotSwap:
    def test_swap_bumps_generation_and_invalidates_cache(self, served_graph,
                                                         served_index):
        engine = QueryEngine(served_index)
        pairs = [(u, (u + 1) % 8) for u in range(8)]
        engine.span_many(pairs, (1, 10))
        engine.reset_stats()
        engine.span_many(pairs, (1, 10))
        assert engine.stats().cache_hits == len(pairs)  # primed
        generation = engine.stats().generation
        engine.swap_index(served_index)
        assert engine.stats().generation > generation
        engine.reset_stats()
        engine.span_many(pairs, (1, 10))
        stats = engine.stats()
        assert stats.cache_hits == 0  # every pre-swap answer is stale
        assert stats.cache_misses == len(pairs)

    def test_in_flight_queries_on_old_mmap_complete(self, served_graph,
                                                    saved_index_path):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True)
        engine = QueryEngine(provider.open(), thread_safe=True)
        old_index = engine.index
        assert old_index.flat.is_mmap
        expected = old_index.span_reachable(0, 1, (1, 10))
        engine.swap_index(provider.open())
        # The old mapping stays valid while anything references it: a
        # batch that bound `index` before the swap finishes correctly.
        assert old_index.span_reachable(0, 1, (1, 10)) == expected
        assert engine.span_many([(0, 1)], (1, 10)) == [expected]

    @pytest.mark.skipif(not os.path.exists("/proc/self/fd"),
                        reason="needs /proc (Linux)")
    def test_repeated_swaps_leak_no_fds_or_mappings(self, served_graph,
                                                    saved_index_path):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True)
        engine = QueryEngine(provider.open())
        basename = os.path.basename(saved_index_path)

        def fd_count():
            return len(os.listdir("/proc/self/fd"))

        def mapping_count():
            with open("/proc/self/maps") as fh:
                return sum(basename in line for line in fh)

        gc.collect()
        fds_before = fd_count()
        for _ in range(8):
            old = engine.swap_index(provider.open())
            del old
            engine.span_many([(0, 1), (1, 2)], (1, 10))
        gc.collect()
        assert fd_count() <= fds_before  # loads close their fd post-mmap
        # Only the live index's mapping remains after 8 swaps.
        assert mapping_count() <= 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/fd"),
                        reason="needs /proc (Linux)")
    def test_reload_onto_format2_file_keeps_old_index(self, served_graph,
                                                      saved_index_path):
        """A format-2 replacement fails the swap with a typed error
        frame; the mapped old index keeps answering and no fd leaks."""
        provider = IndexProvider(served_graph, saved_index_path, mmap=True)
        pairs = [(u, v) for u in range(10) for v in range(10) if u != v]
        with running_server(provider) as (server, socket_path):
            with ServeClient(socket_path=socket_path) as client:
                assert client.ping()["ok"]
                gc.collect()
                fds_before = len(os.listdir("/proc/self/fd"))
                # Replace the file the way docs/usage.md says to (a
                # rename, so the old mapping keeps its inode).
                staged = saved_index_path + ".new"
                write_format2(staged)
                os.replace(staged, saved_index_path)
                reply = client.reload()
                assert reply["ok"] is False and reply["code"] == INTERNAL
                assert FORMAT2_REJECTION in reply["error"]
                assert server.hot_swaps == 0
                for u, v in pairs:
                    got = client.span(u, v, 1, 10)
                    assert got["ok"], got
                    assert got["answer"] == span_reaches_bruteforce(
                        served_graph, u, v, (1, 10)
                    ), (u, v)
                gc.collect()
                assert len(os.listdir("/proc/self/fd")) == fds_before

    def test_server_hot_swap_under_load_zero_failures(self, served_graph,
                                                      saved_index_path):
        provider = IndexProvider(served_graph, saved_index_path, mmap=True)
        queries = [(u % 10, (u * 7 + 2) % 10, 1, 10, None)
                   for u in range(300)]
        with running_server(provider) as (server, socket_path):
            swap_results = []

            def swapper():
                with ServeClient(socket_path=socket_path) as client:
                    for _ in range(3):
                        swap_results.append(client.reload())

            swap_thread = threading.Thread(target=swapper)
            swap_thread.start()
            result = run_loadgen(queries, socket_path=socket_path,
                                 concurrency=3, pipeline=4)
            swap_thread.join(30)
            assert server.hot_swaps >= 3
        assert result["errors"] == 0 and not result["failures"]
        assert result["ok"] == len(queries)
        assert all(r["ok"] for r in swap_results)
        generations = [r["result"]["generation"] for r in swap_results]
        assert generations == sorted(generations)  # monotone


# ----------------------------------------------------------------------
# engine thread-safety (opt-in ``thread_safe=True``)
# ----------------------------------------------------------------------


class TestThreadSafety:
    def test_threaded_hammer_keeps_answers_and_stats_consistent(self):
        g = random_graph(11, num_vertices=10, num_edges=50)
        engine = QueryEngine(TILLIndex.build(g), thread_safe=True)
        pairs = [(u, v) for u in range(10) for v in range(10)]
        windows = [(1, 10), (2, 8), (3, 7)]
        expected = {w: engine.span_many(pairs, w) for w in windows}
        engine.reset_stats()
        threads, rounds = 8, 12
        mismatches = []
        barrier = threading.Barrier(threads)

        def hammer(seed):
            barrier.wait()
            for i in range(rounds):
                window = windows[(seed + i) % len(windows)]
                if engine.span_many(pairs, window) != expected[window]:
                    mismatches.append((seed, i, window))

        workers = [threading.Thread(target=hammer, args=(t,))
                   for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert not mismatches
        stats = engine.stats()
        total = threads * rounds * len(pairs)
        assert stats.queries == total
        assert stats.batches == threads * rounds
        # every query is either answered or a cache hit -- none lost
        assert stats.cache_hits + stats.cache_misses == total

    def test_threaded_engine_hammer_under_swap(self):
        """Batches racing swap_index keep answering identically: each
        in-flight batch binds one index at entry."""
        graph = random_graph(21, num_vertices=12, num_edges=60, max_time=12)
        index = TILLIndex.build(graph)
        other = TILLIndex.build(graph)
        vertices = list(graph.vertices())
        rng = random.Random(7)
        batch = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(200)]
        window = (graph.min_time, graph.max_time)
        engine = QueryEngine(index, cache_size=64, thread_safe=True)
        want = engine.span_many(batch, window)
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    if engine.span_many(batch, window) != want:
                        errors.append("answer drift")
                        return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(6):
                engine.swap_index(other)
                engine.swap_index(index)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []

    def test_cache_hammer_with_concurrent_generation_bumps(self):
        from repro.serve import GenerationalLRUCache

        cache = GenerationalLRUCache(capacity=64, thread_safe=True)
        errors = []

        def worker(seed):
            try:
                for i in range(2000):
                    key = (seed, i % 100)
                    cache.put(key, bool(i % 2))
                    cache.get(key)
                    cache.get((seed, (i + 50) % 100))
                    if i % 500 == 499:
                        cache.bump_generation()
            except Exception as exc:
                errors.append(exc)

        workers = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
        assert not errors
        assert len(cache) <= 64
        assert cache.hits + cache.misses > 0

    def test_unsafe_engine_has_no_lock(self):
        g = random_graph(12, num_vertices=6, num_edges=20)
        engine = QueryEngine(TILLIndex.build(g))
        assert engine._lock is None  # default pays zero locking cost
        safe = QueryEngine(engine.index, thread_safe=True)
        assert safe._lock is not None


# ----------------------------------------------------------------------
# strict --mmap format check
# ----------------------------------------------------------------------


class TestStrictMmap:
    """A format-2 file fails every load path with the same rebuild
    message, mapped or not."""

    @pytest.fixture()
    def format2_path(self, tmp_path):
        path = str(tmp_path / "legacy.till")
        write_format2(path)
        return path

    @pytest.fixture()
    def cli_graph(self, monkeypatch):
        monkeypatch.setattr(
            "repro.cli._load_source",
            lambda source, directed=True: random_graph(
                3, num_vertices=10, num_edges=45
            ),
        )

    def test_load_rejects_format2(self, served_graph, format2_path):
        for use_mmap in (False, True):
            with pytest.raises(IndexFormatError) as info:
                TILLIndex.load(format2_path, served_graph, mmap=use_mmap)
            message = str(info.value)
            assert FORMAT2_REJECTION in message
            assert f"repro build SOURCE -o {format2_path}" in message

    def test_cli_query_mmap_rejects_format2(self, format2_path, capsys,
                                            cli_graph):
        from repro.cli import main

        for flags in ([], ["--mmap"]):
            code = main(["query", "chess", "0", "1", "1", "10",
                         "--index", format2_path] + flags)
            assert code == 2
            err = capsys.readouterr().err
            assert FORMAT2_REJECTION in err
            assert "repro build SOURCE -o" in err

    def test_cli_serve_mmap_rejects_format2(self, format2_path, capsys,
                                            cli_graph):
        from repro.cli import main

        sock = format2_path + ".sock"
        for flags in ([], ["--mmap"]):
            code = main(["serve", "chess", "--index", format2_path,
                         "--socket", sock] + flags)
            assert code == 2
            assert FORMAT2_REJECTION in capsys.readouterr().err
            # rejected before the socket was ever bound
            assert not os.path.exists(sock)
