"""Multi-process serving fleet: real forks, real sockets.

A two-worker :class:`~repro.serve.fleet.ServerFleet` over the shared
pipeline-result index: point lookups and a bulk ``/v1/scan`` answered
correctly, connections actually landing on the forked children (every
``/v1/healthz`` pid is one of the fleet's), and ``stop()`` leaving no
live child behind.  POSIX-only by construction — the fleet refuses to
start without ``os.fork``.  ``repro serve`` refuses a fleet over a
checkpoint, which the fleet could not follow, and a SIGTERM to its
process stops every worker.
"""

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.serve.app import IntelService
from repro.serve.auth import ApiKeyRegistry
from repro.serve.client import IntelClient
from repro.serve.fleet import _TERM_GRACE_S, ServerFleet, reuse_port_supported
from repro.serve.index import build_index

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="ServerFleet requires os.fork")

_KEY = "fleet-key"


@pytest.fixture(scope="module")
def index(pipeline_result):
    return build_index(pipeline_result, generation=1, source="test")


@pytest.fixture(scope="module")
def service(index):
    registry = ApiKeyRegistry()
    registry.add(_KEY, name="tests")
    return IntelService(index, registry)


def _healthz_pid(host, port):
    with IntelClient(host, port, api_key=_KEY) as client:
        status, payload = client.request("GET", "/v1/healthz")
    assert status == 200
    return payload["pid"]


def _alive(pids):
    live = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        live.append(pid)
    return live


def _await_fleet(log: Path, proc, timeout: float = 120.0):
    """(host, port, worker pids) from ``repro serve``'s ready line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        match = re.search(r"serving on http://([\d.]+):(\d+) with \d+ "
                          r"workers \(pids ([\d ]+)\)", log.read_text())
        if match:
            return (match.group(1), int(match.group(2)),
                    [int(pid) for pid in match.group(3).split()])
        assert proc.poll() is None, log.read_text()
        time.sleep(0.1)
    raise AssertionError(f"no fleet in {timeout}s: {log.read_text()}")


class TestServerFleet:
    def test_rejects_zero_workers(self, service):
        with pytest.raises(ValueError):
            ServerFleet(service.handle, workers=0)

    def test_reuse_port_probe_is_boolean(self):
        assert reuse_port_supported() in (True, False)

    def test_two_worker_smoke(self, service, index):
        parent = os.getpid()
        with ServerFleet(service.handle, workers=2) as fleet:
            assert len(fleet.pids) == 2
            assert parent not in fleet.pids
            assert sorted(fleet.alive()) == sorted(fleet.pids)

            # every keep-alive connection is held by one of the forked
            # children (which one the kernel picks is its business)
            seen = {_healthz_pid(fleet.host, fleet.port)
                    for _ in range(8)}
            assert seen <= set(fleet.pids)

            # point + bulk queries answer from the pre-fork COW index
            wallet = index.examples(limit=1)["wallets"][0]
            sha = index.examples(limit=1)["hashes"][0]
            with IntelClient(fleet.host, fleet.port,
                             api_key=_KEY) as client:
                status, payload = client.request(
                    "GET", f"/v1/wallet/{wallet}")
                assert status == 200
                assert payload["found"] is True
                assert payload["kind"] == "wallet"
                status, payload = client.request(
                    "POST", "/v1/scan",
                    body={"iocs": [sha, wallet, "not-an-ioc"]})
                assert status == 200
                hits = {h["indicator"] for h in payload["hits"]}
                assert {sha, wallet} <= hits
                assert payload["submitted"] == 3
                assert payload["generation"] == 1
            pids = list(fleet.pids)
        # clean exit: every child reaped, none left running
        assert fleet.pids == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_stop_is_idempotent(self, service):
        fleet = ServerFleet(service.handle, workers=2).start()
        fleet.stop()
        fleet.stop()
        assert fleet.alive() == []

    def test_children_exit_on_sigterm(self, service):
        fleet = ServerFleet(service.handle, workers=2).start()
        try:
            victim = fleet.pids[0]
            os.kill(victim, signal.SIGTERM)
            _done, status = os.waitpid(victim, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # the surviving worker still answers on the shared port
            assert _healthz_pid(fleet.host, fleet.port) == fleet.pids[1]
        finally:
            fleet.stop()


class TestServeCommand:
    def test_checkpoint_fleet_refused_before_building(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        def unexpected(*_args, **_kwargs):
            raise AssertionError("must refuse before building anything")

        monkeypatch.setattr(cli, "_get_world", unexpected)
        monkeypatch.setattr(ServerFleet, "start", unexpected)
        code = cli.main(["serve", "--workers", "2", "--port", "0",
                         "--checkpoint", str(tmp_path)])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_store_fleet_still_forks(self, tmp_path, monkeypatch):
        forked = []

        def fake_fleet(service, args):
            forked.append(args.workers)
            return 0

        monkeypatch.setattr(cli, "_serve_fleet", fake_fleet)
        code = cli.main(["serve", "--workers", "2", "--port", "0",
                         "--scale", "0.003", "--api-key", _KEY,
                         "--store", str(tmp_path / "store")])
        assert code == 0
        assert forked == [2]

    def test_sigterm_to_parent_stops_every_worker(self, tmp_path):
        """``kill``, service managers and ``Popen.terminate`` send the
        parent SIGTERM; no worker may outlive it or keep the port."""
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        log = tmp_path / "serve.err"
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--scale", "0.004", "--workers", "2", "--port", "0",
                 "--api-key", _KEY],
                env=env, cwd=repo, stdout=subprocess.DEVNULL, stderr=err)
        pids = []
        try:
            host, port, pids = _await_fleet(log, proc)
            assert len(_alive(pids)) == 2
            proc.terminate()
            proc.wait(timeout=_TERM_GRACE_S + 5)
            assert _alive(pids) == [], log.read_text()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((host, port), timeout=1).close()
            assert proc.returncode == 0, log.read_text()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in _alive(pids):
                os.kill(pid, signal.SIGKILL)
