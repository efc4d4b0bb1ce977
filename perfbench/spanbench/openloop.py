"""Open-loop NDJSON client: independent users at a fixed arrival rate.

Request *k* is due at ``t0 + k / rate`` whether or not earlier answers
came back, so a stalled server accumulates a queue exactly as it would
under real independent traffic.  Latency is measured from the *due*
time to the arrival of the response carrying the request's echoed
``id`` — not from the actual send — so generator lateness is charged to
the request, and reported separately so a slow client is visible.

One thread drives up to two connections (requests alternate between
them) with a selector loop: no per-request threads, and the process
stays within one core of the two-core budget.
"""

from __future__ import annotations

import json
import resource
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class RungResult:
    rate: float
    sent: int
    latency_by_slot: Dict[int, float] = field(default_factory=dict)
    answers: Dict[int, object] = field(default_factory=dict)
    errors: Dict[str, int] = field(default_factory=dict)
    timeouts: int = 0
    late_ms: List[float] = field(default_factory=list)
    drain_s: float = 0.0
    client_cpu_s: float = 0.0

    @property
    def latencies_ms(self) -> List[float]:
        return list(self.latency_by_slot.values())


def connect(path: str, timeout: float = 30.0) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def call(path: str, doc: dict, timeout: float = 10.0) -> dict:
    """One blocking request/response (control ops such as ``stats``)."""
    sock = connect(path)
    try:
        sock.settimeout(timeout)
        sock.sendall((json.dumps(doc) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
        return json.loads(buf)
    finally:
        sock.close()


def run_rung(path: str, lines: Sequence[bytes], ids: Sequence[int],
             rate: float, grace_s: float = 2.0,
             connections: int = 2) -> RungResult:
    """Send *lines* open-loop at *rate* per second and collect answers.

    ``ids[k]`` is the ``id`` carried by ``lines[k]``.  Requests still
    unanswered ``grace_s`` after the last one was due are timeouts.
    """
    n = len(lines)
    socks = [connect(path) for _ in range(connections)]
    sel = selectors.DefaultSelector()
    for s in socks:
        s.setblocking(False)
        sel.register(s, selectors.EVENT_READ)
    pending_out = [bytearray() for _ in socks]
    bufs = [b""] * connections
    slot_of = {request_id: k for k, request_id in enumerate(ids)}
    result = RungResult(rate=rate, sent=n)
    received = 0
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    perf = time.perf_counter
    t0 = perf() + 0.01
    due = [t0 + k / rate for k in range(n)]
    last_due = due[-1] if n else t0
    deadline = last_due + grace_s
    k = 0
    try:
        while received < n:
            now = perf()
            while k < n and due[k] <= now:
                pending_out[k % connections] += lines[k]
                result.late_ms.append((now - due[k]) * 1e3)
                k += 1
            for c, s in enumerate(socks):
                out = pending_out[c]
                if out:
                    try:
                        sent = s.send(out)
                        del out[:sent]
                    except BlockingIOError:
                        pass
            if now > deadline:
                break
            wait = due[k] - perf() if k < n else deadline - perf()
            if any(pending_out):
                wait = min(wait, 0.0005)
            for key, _ in sel.select(max(0.0, wait)):
                s = key.fileobj
                c = socks.index(s)
                try:
                    chunk = s.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                arrived = perf()
                data = bufs[c] + chunk
                *done, bufs[c] = data.split(b"\n")
                for raw in done:
                    doc = json.loads(raw)
                    slot = slot_of.get(doc.get("id"))
                    if slot is None:
                        continue
                    received += 1
                    result.latency_by_slot[slot] = (arrived - due[slot]) * 1e3
                    if doc.get("ok"):
                        result.answers[slot] = doc.get("answer")
                    else:
                        code = doc.get("code", "?")
                        result.errors[code] = result.errors.get(code, 0) + 1
        result.timeouts = n - received
    finally:
        for s in socks:
            sel.unregister(s)
            s.close()
        sel.close()
    end = perf()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result.drain_s = max(0.0, end - last_due)
    result.client_cpu_s = (usage1.ru_utime + usage1.ru_stime) - (
        usage0.ru_utime + usage0.ru_stime)
    return result
