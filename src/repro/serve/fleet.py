"""Multi-process serving: N forked workers, one listening port.

One asyncio process saturates a single core; the fleet forks ``workers``
child processes that each run their own event loop + :class:`~repro.
serve.http.HttpServer` against the *same* (host, port).  Two socket
strategies, picked at start:

* **SO_REUSEPORT** (Linux/BSD, the default): the parent binds a
  non-listening reservation socket (resolving an ephemeral port once),
  then every child binds + listens on its own ``SO_REUSEPORT`` socket;
  the kernel hashes incoming connections across the listening sockets,
  so accepted load spreads without a user-space dispatcher.
* **fork-inherited listen socket** (fallback): the parent binds and
  listens once; children adopt the inherited fd and race ``accept()``.

Either way the :class:`~repro.serve.index.IntelIndex` is built exactly
once, **pre-fork**: children share its pages copy-on-write, so N
workers cost one index's RSS (the index is immutable, and CPython's
refcount writes only fault the touched pages, a small fraction of the
table payloads).  Hot swap stays a single-process feature — a fleet
serves one frozen generation for its lifetime, which is exactly the
bench / bulk-scan deployment shape, and why ``repro serve`` refuses
``--workers N`` over a ``--checkpoint`` that keeps advancing.

Children are real processes, not daemons of a thread pool: SIGTERM
asks a child's loop to stop, the child closes its server and leaves
via ``os._exit`` (never running the parent's atexit/finalizers twice).
``stop()`` escalates to SIGKILL only for stragglers.
"""

import asyncio
import os
import select
import signal
import socket
import sys
import time
from typing import List, Optional

from repro.serve.http import Handler, HttpServer, create_listen_socket

__all__ = ["ServerFleet", "reuse_port_supported"]

#: seconds a child gets to bind + report readiness.
_READY_TIMEOUT_S = 30.0
#: seconds between SIGTERM and SIGKILL at shutdown.
_TERM_GRACE_S = 10.0


def reuse_port_supported() -> bool:
    """Whether this platform can balance via ``SO_REUSEPORT``."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:  # pragma: no cover - kernel without the option
        return False
    finally:
        probe.close()


class ServerFleet:
    """``workers`` forked HTTP servers sharing one (host, port).

    The handler (typically ``IntelService.handle`` over a pre-built
    index) is inherited through fork memory — build everything heavy
    *before* ``start()``.  Not a context manager by accident: it is
    one (``with ServerFleet(...) as fleet:``), and ``stop()`` is
    idempotent.

    Requires ``os.fork`` (POSIX).  On platforms without it,
    ``start()`` raises RuntimeError — callers keep the single-process
    :class:`~repro.serve.http.BackgroundServer` path.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.handler = handler
        self.host = host
        self.port = port
        self.workers = workers
        self.pids: List[int] = []
        self._parent_sock: Optional[socket.socket] = None
        self._reuse_port = False

    def start(self) -> "ServerFleet":
        """Bind the port, fork the workers, wait for readiness."""
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise RuntimeError("ServerFleet requires os.fork (POSIX)")
        self._reuse_port = reuse_port_supported()
        if self._reuse_port:
            # non-listening reservation: resolves an ephemeral port and
            # keeps it ours between child binds; never receives traffic
            self._parent_sock = create_listen_socket(
                self.host, self.port, reuse_port=True, listen=False)
        else:  # pragma: no cover - SO_REUSEPORT-less platforms
            self._parent_sock = create_listen_socket(
                self.host, self.port, reuse_port=False, listen=True)
        self.port = self._parent_sock.getsockname()[1]
        ready_fds = []
        try:
            for _ in range(self.workers):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:  # child
                    os.close(read_fd)
                    self._child_main(write_fd)  # never returns
                os.close(write_fd)
                ready_fds.append(read_fd)
                self.pids.append(pid)
            self._await_ready(ready_fds)
        except BaseException:
            self.stop()
            raise
        finally:
            for fd in ready_fds:
                os.close(fd)
        return self

    # -- child side --------------------------------------------------------

    def _child_main(self, ready_fd: int) -> None:
        """Worker body; exits the process, never returns."""
        exit_code = 1
        try:
            asyncio.run(self._child_serve(ready_fd))
            exit_code = 0
        except BaseException:  # pragma: no cover - crash diagnostics
            import traceback
            traceback.print_exc(file=sys.stderr)
        finally:
            # bypass parent-inherited atexit/buffers; the child must
            # never fall back into the parent's call stack
            os._exit(exit_code)

    async def _child_serve(self, ready_fd: int) -> None:
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stopping.set)
        loop.add_signal_handler(signal.SIGINT, stopping.set)
        if self._reuse_port:
            # this worker's own listening socket; the kernel balances
            # connections across all workers' sockets
            sock = create_listen_socket(self.host, self.port,
                                        reuse_port=True)
        else:  # pragma: no cover - fallback path
            sock = self._parent_sock
        server = HttpServer(self.handler, host=self.host,
                            port=self.port, sock=sock)
        await server.start()
        os.write(ready_fd, b"1")
        os.close(ready_fd)
        await stopping.wait()
        await server.stop()

    # -- parent side -------------------------------------------------------

    def _await_ready(self, ready_fds: List[int]) -> None:
        """Block until every child wrote its readiness byte."""
        deadline = time.monotonic() + _READY_TIMEOUT_S
        for fd, pid in zip(ready_fds, self.pids):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"worker {pid} not ready in "
                                   f"{_READY_TIMEOUT_S:.0f}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable or os.read(fd, 1) != b"1":
                raise RuntimeError(f"worker {pid} failed to start")

    def stop(self) -> None:
        """SIGTERM every worker, reap, SIGKILL stragglers."""
        for pid in self.pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + _TERM_GRACE_S
        pending = list(self.pids)
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid  # reaped elsewhere (signal handler etc.)
                if done == pid:
                    pending.remove(pid)
            if pending:
                time.sleep(0.02)
        for pid in pending:  # pragma: no cover - hung worker
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except ProcessLookupError:
                pass
        self.pids = []
        if self._parent_sock is not None:
            self._parent_sock.close()
            self._parent_sock = None

    def alive(self) -> List[int]:
        """Worker pids still running (0 = exited/reaped)."""
        live = []
        for pid in self.pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            live.append(pid)
        return live

    def __enter__(self) -> "ServerFleet":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
