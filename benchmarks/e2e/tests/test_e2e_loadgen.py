"""The open-loop generator times requests from when they were due."""

import asyncio
import time

from loadgen import Request, encode, run_open_loop

STALL_S = 0.2


async def _stub_server(stall_at: float):
    """An HTTP/1.1 server that answers instantly, except that the first
    request arriving after ``stall_at`` seconds is held for 200 ms."""
    started = time.perf_counter()
    state = {"stalled": False}

    async def handle(reader, writer):
        try:
            while True:
                await reader.readuntil(b"\r\n\r\n")
                if (not state["stalled"]
                        and time.perf_counter() - started >= stall_at):
                    state["stalled"] = True
                    await asyncio.sleep(STALL_S)
                body = b'{"generation": 1}'
                writer.write(b"HTTP/1.1 200 OK\r\ncontent-length: "
                             + str(len(body)).encode() + b"\r\n\r\n" + body)
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_a_stall_delays_later_requests_from_their_due_time():
    async def scenario():
        server, port = await _stub_server(stall_at=0.3)
        try:
            request = Request("hash", "x", True,
                              encode("GET", "/v1/hash/x", "k"))
            return await run_open_loop("127.0.0.1", port, [request],
                                       rate=100.0, duration_s=1.0,
                                       connections=1)
        finally:
            server.close()
            await server.wait_closed()

    observations = sorted(asyncio.run(scenario()), key=lambda o: o.index)
    assert len(observations) == 100
    assert all(o.status == 200 for o in observations)
    stalled = max(observations, key=lambda o: o.done - o.sent)
    assert stalled.done - stalled.sent >= STALL_S
    # requests due while the server stalled queued behind it: their
    # own exchange was quick, but they are timed from their due time
    behind = [o for o in observations
              if stalled.due < o.due < stalled.done - 0.05]
    assert len(behind) >= 10
    for o in behind:
        assert o.done - o.sent < 0.05
        assert o.latency_s >= stalled.done - o.due - 0.005
        assert o.latency_s > 0.05
    # the generator itself stayed on schedule throughout
    assert max(o.queued - o.due for o in observations) < 0.05
