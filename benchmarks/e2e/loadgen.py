"""Open-loop HTTP/1.1 load generator on one asyncio event loop.

Independent users make an open loop: request ``i`` is *due* at
``t0 + i / rate`` whatever the server is doing.  A scheduler task
releases each request to a shared queue at its due time, and a fixed
set of keep-alive connections (one task each, at most one request in
flight per connection) drain the queue.  When the server stalls, due
requests pile up in the queue, so each request is timed **from when it
was due**: the wait a stall imposes on later requests is part of their
latency, not hidden by a slower send rate.

Every observation keeps all four timestamps, which split a latency
into generator lateness (``queued - due``; the run is not valid open
loop when this grows), connection wait (``sent - queued``) and the
exchange itself (``done - sent``).
"""

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["Observation", "Request", "encode", "run_open_loop"]


@dataclass(frozen=True)
class Request:
    """One planned request: its wire bytes plus what the checker needs."""

    kind: str               # hash | wallet | domain | campaign | scan
    key: object             # the looked-up value, or the scanned IoCs
    hit: bool               # whether the served index knows it
    wire: bytes             # the encoded HTTP request


@dataclass
class Observation:
    """One request as it happened."""

    index: int
    conn: int
    due: float
    queued: float
    sent: float
    done: float
    status: int             # 0 = transport failure
    body: bytes

    @property
    def latency_s(self) -> float:
        """Due time to the complete response."""
        return self.done - self.due


def encode(method: str, path: str, api_key: str,
           body: Optional[bytes] = None) -> bytes:
    """The wire form of one keep-alive request."""
    head = [f"{method} {path} HTTP/1.1", "Host: bench",
            f"X-Api-Key: {api_key}"]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + (body or b"")


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter,
                    wire: bytes) -> Tuple[int, bytes]:
    writer.write(wire)
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


async def run_open_loop(host: str, port: int, requests: Sequence[Request],
                        rate: float, duration_s: float, connections: int,
                        on_response: Optional[
                            Callable[[Observation], None]] = None,
                        on_tick: Optional[Callable[[float], None]] = None,
                        until: Optional[Callable[[], bool]] = None,
                        max_extra_s: float = 30.0) -> List[Observation]:
    """Drive ``requests`` (cycled) at ``rate`` per second.

    Scheduling stops once ``duration_s`` has passed and ``until()`` (if
    given) is true, or ``max_extra_s`` later regardless; every released
    request is still completed.  ``on_tick(elapsed_s)`` is called from
    the scheduler each time it wakes, at least once per due request.
    Returns the observations in completion order.
    """
    queue: asyncio.Queue = asyncio.Queue()
    observations: List[Observation] = []
    start = time.perf_counter()

    async def schedule() -> None:
        index = 0
        while True:
            now = time.perf_counter()
            if on_tick is not None:
                on_tick(now - start)
            elapsed = now - start
            if elapsed >= duration_s and (
                    until is None or until()
                    or elapsed >= duration_s + max_extra_s):
                break
            due = start + index / rate
            if due > now:
                await asyncio.sleep(due - now)
                continue
            while due <= now:
                queue.put_nowait((index, due, now))
                index += 1
                due = start + index / rate
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection(conn: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                index, due, queued = item
                request = requests[index % len(requests)]
                sent = time.perf_counter()
                try:
                    status, body = await _exchange(reader, writer,
                                                   request.wire)
                except (ConnectionError, asyncio.IncompleteReadError,
                        ValueError) as exc:
                    status, body = 0, repr(exc).encode()
                    writer.close()
                    reader, writer = await asyncio.open_connection(
                        host, port)
                observation = Observation(index, conn, due, queued, sent,
                                          time.perf_counter(), status, body)
                observations.append(observation)
                if on_response is not None:
                    on_response(observation)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    tasks = [asyncio.ensure_future(connection(conn))
             for conn in range(connections)]
    tasks.append(asyncio.ensure_future(schedule()))
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return observations
