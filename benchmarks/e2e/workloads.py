"""The four workloads of the end-to-end benchmark.

``batch``, ``ingest`` and ``outofcore`` run the paper's measurement
(Figure 3) through its three drivers over the same world, so their
outputs must agree digest for digest; ``serve`` drives the threat-intel
API while it hot-swaps to newer checkpoints.  Why each workload exists,
and which layers it stresses or bypasses, is written up in
``README.md``.

Every workload measures one fixed world (seed :data:`WORLD_SEED`), and
the run's seed draws what a fixed world leaves open: the order in which
the pipelines receive its samples, and the request mix of ``serve``.
Worlds drawn from the seed differ in cost per sample by up to a
quarter, because world-level draws (the stock-tool catalog, the
heavy-tailed campaign sizes) set the quadratic dropper-chain term; two
seeds would then measure two inputs rather than one program.  The
measurement must not depend on arrival order, so every seed has to
reproduce the one digest pinned for the plan.

All times are reference-normalised (see :mod:`measure`).
"""

import asyncio
import gc
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from loadgen import Observation, Request, encode, run_open_loop
from measure import SpeedClock, Speedometer, normalise, pin_to_cpu, speed
from oracle import result_digest
# nearest rank, of an ascending sequence
from repro.serve.metrics import percentile

__all__ = ["MOVES", "Outcome", "PLANS", "Plan", "WORKLOADS", "plan_digest"]

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: the world every workload measures
WORLD_SEED = 2019
#: scale of the world each pipeline run warms up on, once per process
WARM_SCALE = 0.002
#: feed window of every ingestion run (the CLI default ingest plan)
BATCH_DAYS = 30
#: defaults of the out-of-core driver, spelled out
CHUNK_SAMPLES = 4096
NUM_SHARDS = 8
PREFETCH = 2
#: the serve workload's API key and client concurrency
API_KEY = "e2e-bench"
CONNECTIONS = min(2, os.cpu_count() or 1)
#: share of the serve window before the first newer snapshot is
#: published
PUBLISH_AT = 0.6
#: the server's checkpoint poll period: short, so that the phase of the
#: poll cycle adds at most this much to the measured staleness
POLL_S = 0.02


@dataclass(frozen=True)
class Plan:
    """Input sizes of one benchmark profile."""

    name: str
    scale: float            # scale of the pipelines' world
    setups: int             # set-ups timed per pipeline run (at least)
    serve_scale: float      # scale of the served world
    serve_rate: float       # offered load, requests per second
    spawns: int             # server start-ups timed per serve run

    @property
    def key(self) -> str:
        """Identifies the input a digest was pinned for."""
        return f"{self.name}:seed={WORLD_SEED},scale={self.scale}"


PLANS = {
    # 9,380 samples in three streamed chunks.  The serve rate is half
    # the sustained capacity that ``capacity.py`` measured on a 2-vCPU
    # host, 3,052 requests/s (README, "Offered load").
    "full": Plan("full", scale=0.06, setups=3, serve_scale=0.01,
                 serve_rate=1500.0, spawns=3),
    "smoke": Plan("smoke", scale=0.004, setups=1, serve_scale=0.004,
                  serve_rate=200.0, spawns=1),
}

#: layers each workload must exercise in a traced run (README's
#: layer-to-metric map), and layers it must leave idle.
MOVES = {
    "batch": ("corpus.generate", "core.sanity", "core.static_analysis",
              "core.dynamic_analysis", "yarm.scan", "wallets.detect",
              "intel.vt.children_of", "core.enrichment",
              "osint.stock_tools.match", "fuzzyhash.ctph.compute",
              "core.profit", "core.aggregation"),
    "ingest": ("corpus.generate", "core.sanity", "core.static_analysis",
               "core.dynamic_analysis", "yarm.scan", "wallets.detect",
               "intel.vt.children_of", "core.enrichment",
               "osint.stock_tools.match", "fuzzyhash.ctph.compute",
               "core.profit", "ingest.checkpoint.commit",
               "ingest.checkpoint.snapshot", "ingest.checkpoint.load",
               "ingest.aggregator.add_record",
               "ingest.aggregator.campaigns"),
    "outofcore": ("corpus.skeleton", "corpus.chunk_wait", "core.sanity",
                  "core.static_analysis", "core.dynamic_analysis",
                  "yarm.scan", "wallets.detect", "core.profit",
                  "scale.columnar.append", "scale.columnar.read",
                  "scale.shards.aggregate"),
    "serve": ("serve.index.build", "serve.snapshot.rebuild",
              "serve.app.handle", "serve.index.lookup",
              "serve.index.scan"),
}
IDLE = {"outofcore": ("intel.vt.children_of", "core.enrichment")}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    #: per-layer values computed by the workload itself (trace runs)
    extras: Dict[str, float] = field(default_factory=dict)
    #: span/count records of traced processes other than this one
    child_records: List[Dict[str, Any]] = field(default_factory=list)
    #: raw (wall-clock) counterparts and other detail for the report
    info: Dict[str, Any] = field(default_factory=dict)


def plan_digest(plan: Plan) -> str:
    """Batch-pipeline digest of the plan's world (the pinned oracle)."""
    from repro.core.pipeline import MeasurementPipeline
    from repro.corpus.generator import generate_world
    from repro.corpus.model import ScenarioConfig
    world = generate_world(ScenarioConfig(seed=WORLD_SEED, scale=plan.scale))
    return result_digest(MeasurementPipeline(world).run())


# -- the three measurement drivers -------------------------------------------
#
# A driver is a set-up, which builds its input from the world's config
# and the seed of the arrival order, and a pass over that input.  Every
# pass gets a freshly built input: a second pass over the same objects
# would find lazily built catalog indexes already warm, which a user
# never does.


def _world(config, order_seed: int):
    """The world, its samples in the seed's arrival order."""
    from repro.corpus.generator import generate_world
    world = generate_world(config)
    random.Random(order_seed).shuffle(world.samples)
    return world


def _corpus(config, order_seed: int):
    """The streamed world, each chunk's samples in the seed's order."""
    from repro.scale.stream import StreamingCorpus
    corpus = StreamingCorpus(config, chunk_samples=CHUNK_SAMPLES,
                             keep_sample_hashes=False)
    stream = corpus.chunks

    def chunks():
        rng = random.Random(order_seed)
        for chunk in stream():
            rng.shuffle(chunk.samples)
            yield chunk

    corpus.chunks = chunks
    return corpus


@dataclass
class PassResult:
    """One timed pass of a driver over its input."""

    samples: int
    digest: str
    run_s: float
    run_wall_s: float
    #: feed-batch latencies in reference seconds (ingest only)
    units: List[float] = field(default_factory=list)
    #: the pass's own stale time when it is not set-up + run (ingest:
    #: the cold resume)
    stale_s: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _batch_pass(world, clock: SpeedClock, work: Path) -> PassResult:
    from repro.core.pipeline import MeasurementPipeline
    from repro.perf.cache import clear_caches

    clear_caches()
    result, run_wall_s, run_s = clock.timed(
        lambda: MeasurementPipeline(world).run())
    return PassResult(result.stats.collected, result_digest(result), run_s,
                      run_wall_s)


def _ingest_pass(world, clock: SpeedClock, work: Path) -> PassResult:
    from repro.ingest.service import IngestionService
    from repro.perf.cache import clear_caches

    checkpoint = work / "checkpoint"
    marks: List[float] = []

    def on_commit(point: str, _batch_id: int) -> None:
        if point == "post-commit":
            marks.append(time.perf_counter())

    def ingest():
        marks.append(time.perf_counter())
        return IngestionService(world, checkpoint, batch_days=BATCH_DAYS,
                                fsync=True, fault_hook=on_commit).run()

    clear_caches()
    ingested, run_wall_s, run_s = clock.timed(ingest)
    batches = [normalise(clock.meter.samples, a, b)
               for a, b in zip(marks, marks[1:])]

    def resume():
        service = IngestionService(world, checkpoint, batch_days=BATCH_DAYS,
                                   resume=True, fsync=True)
        service.restore_state()
        return service.current_result()

    clear_caches()
    restored, _, resume_s = clock.timed(resume)
    digest = result_digest(ingested.result)
    errors = []
    if result_digest(restored) != digest:
        errors.append(f"resumed digest {result_digest(restored)} != "
                      f"ingested digest {digest}")
    extras = {
        "ingest.checkpoint.mib": sum(
            p.stat().st_size for p in checkpoint.iterdir()) / 2 ** 20,
        "ingest.batch_s.p50": statistics.median(
            b.wall_s for b in ingested.batches),
        "ingest.batch_s.max": max(b.wall_s for b in ingested.batches),
    }
    shutil.rmtree(checkpoint)
    return PassResult(ingested.result.stats.collected, digest, run_s,
                      run_wall_s, units=batches, stale_s=resume_s,
                      extras=extras, errors=errors)


def _outofcore_pass(corpus, clock: SpeedClock, work: Path) -> PassResult:
    from repro.perf.cache import clear_caches
    from repro.scale.pipeline import ScalePipeline

    workdir = work / "scale"
    clear_caches()
    result, run_wall_s, run_s = clock.timed(
        lambda: ScalePipeline(corpus, workdir=workdir,
                              num_shards=NUM_SHARDS,
                              prefetch=PREFETCH).run())
    extras = {
        "scale.columnar.mib": sum(p.stat().st_size for p in
                                  result.store.segment_paths()) / 2 ** 20,
        "scale.spill.mib": result.spill_bytes / 2 ** 20,
    }
    digest = result_digest(result)
    shutil.rmtree(workdir)
    return PassResult(result.stats.collected, digest, run_s, run_wall_s,
                      extras=extras)


#: each pipeline workload's set-up and pass
DRIVERS: Dict[str, Tuple[Callable, Callable]] = {
    "batch": (_world, _batch_pass),
    "ingest": (_world, _ingest_pass),
    "outofcore": (_corpus, _outofcore_pass),
}


def _peak_rss_mib() -> float:
    from repro.common.memory import peak_rss_mib
    return peak_rss_mib()


def _ctph_counts() -> Tuple[int, int]:
    from repro.perf.cache import cache_stats
    stats = cache_stats()["ctph"]
    return stats["hits"], stats["misses"]


def run_pipeline(workload: str, plan: Plan, seed: int, seconds: float,
                 work: Path, tracer=None) -> Outcome:
    """Set up ``plan.setups`` times, and pass over a freshly set-up
    input until ``seconds`` have passed (at least once).

    With a tracer, each pass is followed by a second, traced pass over
    a fresh input, and tracing overhead is the ratio of the two.
    """
    pin_to_cpu(0)
    with Speedometer() as meter:
        return _passes(workload, plan, seed, seconds, work, tracer,
                       SpeedClock(meter))


def _passes(workload: str, plan: Plan, seed: int, seconds: float,
            work: Path, tracer, clock: SpeedClock) -> Outcome:
    from repro.corpus.model import ScenarioConfig

    setup, run_pass = DRIVERS[workload]
    # imports, kernel compiles and regex caches, paid once per process
    run_pass(setup(ScenarioConfig(seed=WORLD_SEED, scale=WARM_SCALE), seed),
             clock, work)
    clock.intervals.clear()

    config = ScenarioConfig(seed=WORLD_SEED, scale=plan.scale)
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    for _ in range(plan.setups - 1):
        gc.collect()
        setups.append(clock.timed(setup, config, seed)[2])

    passes: List[PassResult] = []
    traced_runs: List[float] = []
    stale: List[float] = []
    extras: Dict[str, float] = {}
    ctph = [0, 0]
    errors: List[str] = []
    attempted = failed = 0
    while True:
        gc.collect()
        given, _, setup_s = clock.timed(setup, config, seed)
        setups.append(setup_s)
        result = run_pass(given, clock, work)
        del given
        attempted += 1
        if passes and result.digest != passes[0].digest:
            result.errors.append(f"digest {result.digest} != first pass "
                                 f"{passes[0].digest}")
        if result.errors:
            failed += 1
            errors.extend(f"pass {len(passes)}: {e}" for e in result.errors)
        passes.append(result)
        stale.append(result.stale_s if result.stale_s is not None
                     else setup_s + result.run_s)
        if tracer is not None:
            gc.collect()
            with tracer:
                traced = run_pass(setup(config, seed), clock, work)
            traced_runs.append(traced.run_s)
            hits, misses = _ctph_counts()
            ctph[0] += hits
            ctph[1] += misses
            for name, value in traced.extras.items():
                extras[name] = extras.get(name, 0.0) + value
        if time.perf_counter() >= deadline:
            break
    peak_rss = _peak_rss_mib()

    units = sorted([u for p in passes for u in p.units]
                   if workload == "ingest" else [p.run_s for p in passes])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(p.samples / p.run_s
                                              for p in passes),
        "p50_ms": percentile(units, 50) * 1e3,
        "p90_ms": percentile(units, 90) * 1e3,
        "stale_s": statistics.median(stale),
        "peak_rss_mib": peak_rss,
    }
    info = {"samples": passes[0].samples, "setups_s": setups,
            "passes": [{"run_s": p.run_s, "run_wall_s": p.run_wall_s}
                       for p in passes],
            "units": len(units), "stale_s": stale,
            "reference_factor": sum(r for _, r in clock.intervals)
            / sum(w for w, _ in clock.intervals)}
    outcome = Outcome(metrics, attempted, failed, errors,
                      digest=passes[0].digest, info=info)
    if tracer is not None:
        visits = len(traced_runs)
        outcome.extras = {name: value / visits
                          for name, value in extras.items()}
        outcome.extras["perf.cache.ctph_hit_ratio"] = (
            ctph[0] / (ctph[0] + ctph[1]) if sum(ctph) else 0.0)
        outcome.extras["trace.overhead_frac"] = (
            sum(traced_runs) / sum(p.run_s for p in passes) - 1.0)
        outcome.info["traced_visits"] = visits
    return outcome


# -- serve -------------------------------------------------------------------


class ServeChild:
    """One ``repro serve --checkpoint`` process on a free local port,
    pinned to the second CPU (the load generator holds the first)."""

    def __init__(self, checkpoint: Path, work: Path, name: str,
                 spans: Optional[Path] = None, run_id: str = "") -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.host = "127.0.0.1"
        self._log_path = work / f"{name}.log"
        self._speed_path = work / f"{name}.speed.json"
        command = [sys.executable, str(HERE / "serve_child.py"),
                   "--cpu", "1", "--speed", str(self._speed_path)]
        if spans is not None:
            command += ["--spans", str(spans), "--run-id", run_id]
        command += ["--", "--checkpoint", str(checkpoint),
                    "--port", str(self.port), "--api-key", API_KEY,
                    "--poll-interval", str(POLL_S)]
        self._log = open(self._log_path, "wb")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=self._log,
                                     stderr=subprocess.STDOUT, env=env)
        self.healthy: Optional[float] = None

    def _log_tail(self) -> str:
        self._log.flush()
        return self._log_path.read_text(errors="replace")[-2000:]

    def wait_healthy(self, timeout_s: float = 120.0) -> None:
        """Block until ``/v1/healthz`` answers 200."""
        deadline = time.perf_counter() + timeout_s
        request = (b"GET /v1/healthz HTTP/1.1\r\nHost: bench\r\n"
                   b"Connection: close\r\n\r\n")
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up:\n"
                                   + self._log_tail())
            try:
                with socket.create_connection((self.host, self.port),
                                              timeout=5) as sock:
                    sock.sendall(request)
                    if sock.recv(64).startswith(b"HTTP/1.1 200"):
                        self.healthy = time.perf_counter()
                        return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server not healthy in time:\n"
                           + self._log_tail())

    def cpu_s(self) -> float:
        """CPU time of every thread of the server, from schedstat."""
        total_ns = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            total_ns += int((task / "schedstat").read_text().split()[0])
        return total_ns / 1e9

    def peak_rss_mib(self) -> float:
        """The server's resident high-water mark (VmHWM)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
                ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the child writes its probe samples), then reap."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def samples(self) -> List[Tuple[float, float, float]]:
        """The server's speedometer samples (after :meth:`stop`)."""
        return [tuple(s) for s in json.loads(self._speed_path.read_text())]


_BASE58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


class Traffic:
    """The seeded request mix over every index generation served.

    Point lookups over hash / wallet / domain / campaign, 80% drawn
    from keys every generation holds and 20% well-formed keys none
    holds, with a 16-IoC ``/v1/scan`` as every 10th request.
    """

    KINDS = ("hash", "wallet", "domain", "campaign")
    TABLES = {"hash": "hashes", "wallet": "wallets", "domain": "domains",
              "campaign": "campaigns"}

    def __init__(self, indexes: List[Any], seed: int,
                 size: int = 4000) -> None:
        rng = random.Random(seed)
        tables = [index.examples(10 ** 9) for index in indexes]
        self.known = {kind: sorted(set.intersection(
            *(set(t[self.TABLES[kind]]) for t in tables)))
            for kind in self.KINDS}
        taken = {kind: set.union(*(set(t[self.TABLES[kind]])
                                   for t in tables))
                 for kind in self.KINDS}
        self.requests: List[Request] = []
        for i in range(size):
            if i % 10 == 9:
                iocs = [self._key(rng, rng.choice(self.KINDS[:3]),
                                  rng.random() < 0.8, taken)[0]
                        for _ in range(16)]
                body = json.dumps({"iocs": iocs}).encode()
                self.requests.append(Request(
                    "scan", iocs, True,
                    encode("POST", "/v1/scan", API_KEY, body)))
                continue
            kind = rng.choice(self.KINDS)
            key, hit = self._key(rng, kind, rng.random() < 0.8, taken)
            self.requests.append(Request(
                kind, key, hit,
                encode("GET", f"/v1/{kind}/{key}", API_KEY)))

    def _key(self, rng: random.Random, kind: str, hit: bool,
             taken: Dict[str, set]) -> Tuple[Any, bool]:
        if hit and self.known[kind]:
            return rng.choice(self.known[kind]), True
        while True:
            if kind == "hash":
                key: Any = f"{rng.getrandbits(256):064x}"
            elif kind == "wallet":
                key = "4" + "".join(rng.choice(_BASE58) for _ in range(94))
            elif kind == "domain":
                key = f"miss-{rng.getrandbits(40):x}.example.net"
            else:
                key = max(taken["campaign"], default=0) + 1 + \
                    rng.randrange(1000)
            if key not in taken[kind]:
                return key, False


def _normal(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True))


_GENERATION = re.compile(rb'"generation": (\d+)')


def _generation(body: bytes) -> Optional[int]:
    """The top-level ``generation`` of a response body, without parsing
    it all (bodies are ``json.dumps(..., sort_keys=True)`` objects and
    only their top level carries the key): the load generator shares
    its CPU with every response."""
    match = _GENERATION.search(body)
    return int(match.group(1)) if match else None


class ResponseChecker:
    """Checks every response against the index of its generation.

    Generation ``g`` serves the ``g``-th checkpoint copy (one rebuild
    per publish).  Status: a hit answers 200, a miss 404, a scan 200.
    Generations never decrease on a connection.  Every 100th
    request's payload is compared in full: a point lookup's ``intel``
    must equal the index entry; a scan must report every submitted IoC
    the index knows, each with the index's intel.
    """

    def __init__(self, traffic: Traffic, indexes: List[Any]) -> None:
        self.traffic = traffic
        self.indexes = indexes
        self.failed = 0
        self.errors: List[str] = []
        self._conn_generation: Dict[int, int] = {}

    def _fail(self, observation: Observation, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"request {observation.index}: {why}")

    def __call__(self, observation: Observation) -> Optional[int]:
        """Check one response; returns its generation when valid."""
        request = self.traffic.requests[
            observation.index % len(self.traffic.requests)]
        expected = 200 if request.hit else 404
        if observation.status != expected:
            self._fail(observation, f"{request.kind} {request.key!r}: "
                       f"status {observation.status} != {expected}")
            return None
        generation = _generation(observation.body)
        if generation not in range(1, len(self.indexes) + 1):
            self._fail(observation, f"bad generation {generation!r}")
            return None
        if generation < self._conn_generation.get(observation.conn, 0):
            self._fail(observation, "generation went backwards")
        self._conn_generation[observation.conn] = generation
        if observation.index % 100 == 0:
            why = self._payload_error(request,
                                      json.loads(observation.body),
                                      self.indexes[generation - 1])
            if why:
                self._fail(observation, why)
        return generation

    @staticmethod
    def _payload_error(request: Request, payload: Dict[str, Any],
                       index) -> Optional[str]:
        if request.kind == "scan":
            reported = {hit["indicator"]: hit["intel"]
                        for hit in payload["hits"]}
            for ioc in request.key:
                if index.lookup(ioc) is not None and ioc not in reported:
                    return f"scan missed known IoC {ioc}"
            for indicator, intel in reported.items():
                known = index.lookup(indicator)
                if known is None or _normal(known["intel"]) != intel:
                    return f"scan intel for {indicator} differs"
            return None
        if not request.hit:
            return None
        lookup = {"hash": index.hash_intel, "wallet": index.wallet_intel,
                  "domain": index.domain_intel,
                  "campaign": index.campaign_intel}[request.kind]
        if _normal(lookup(request.key)) != payload.get("intel"):
            return f"{request.kind} {request.key!r}: intel differs"
        return None


def _publish(source: Path, target: Path) -> None:
    """Install ``source``'s snapshot over ``target``'s by an atomic
    rename, as the ingestion writer does.  Both checkpoints were cut
    right after a snapshot, so their journals are empty and stay put:
    one publish is one change the server can observe."""
    from repro.ingest.checkpoint import SNAPSHOT_NAME
    staged = target / (SNAPSHOT_NAME + ".publish")
    shutil.copyfile(source / SNAPSHOT_NAME, staged)
    os.replace(staged, target / SNAPSHOT_NAME)


def prepare_checkpoints(plan: Plan, work: Path):
    """Ingest the served world once, copying the checkpoint right after
    each of its last ``SwapCycles.CYCLES + 1`` snapshots, when the
    journal is empty.  Returns the served directory (holding the first
    copy), the copies in order, and the index each should serve."""
    from repro.corpus.generator import generate_world
    from repro.corpus.model import ScenarioConfig
    from repro.ingest.checkpoint import JOURNAL_NAME
    from repro.ingest.service import IngestionService
    from repro.serve.index import build_index
    from repro.serve.snapshot import measurement_from_checkpoint

    world = generate_world(ScenarioConfig(seed=WORLD_SEED,
                                          scale=plan.serve_scale))
    writer = work / "writer"
    copies: List[Path] = []

    def keep_snapshot(point: str, batch_id: int) -> None:
        if point == "post-snapshot":
            copies.append(work / f"snapshot-{batch_id + 1:04d}")
            shutil.copytree(writer, copies[-1])
            if len(copies) > SwapCycles.CYCLES + 1:
                shutil.rmtree(copies.pop(0))

    IngestionService(world, writer, batch_days=BATCH_DAYS, fsync=False,
                     fault_hook=keep_snapshot).run()
    for path in copies:
        if (path / JOURNAL_NAME).stat().st_size:
            raise RuntimeError(f"{path} was not cut at a snapshot")
    served = work / "served"
    shutil.copytree(copies[0], served)
    indexes = [build_index(measurement_from_checkpoint(world, path))
               for path in copies]
    return served, copies, indexes


class SwapCycles:
    """Publishes the newer snapshots one by one once the read phase is
    over, as a live ingester would: each publish waits until the
    previous one's generation has answered, plus ``GAP_S``."""

    GAP_S = 0.25
    CYCLES = 4

    def __init__(self, child: ServeChild, served: Path,
                 sources: List[Path], read_s: float) -> None:
        self.child = child
        self.served = served
        self.sources = sources
        self.read_s = read_s
        self.cpu_publish: Optional[float] = None
        #: per publish: wall time, generation to wait for, first answer
        self.cycles: List[Dict[str, Any]] = []
        self._next: Optional[float] = None

    def tick(self, elapsed_s: float) -> None:
        """Publish the next checkpoint when it is due."""
        now = time.perf_counter()
        if self._next is None:
            self._next = now - elapsed_s + self.read_s
        if now < self._next or len(self.cycles) == self.CYCLES or (
                self.cycles and self.cycles[-1]["answered"] is None):
            return
        if self.cpu_publish is None:
            self.cpu_publish = self.child.cpu_s()
        target = len(self.cycles) + 2
        self.cycles.append({"publish": time.perf_counter(),
                            "target": target, "answered": None})
        _publish(self.sources[target - 1], self.served)

    def answered(self, generation: Optional[int], done: float) -> None:
        """Record a response of ``generation`` completed at ``done``."""
        cycle = self.cycles[-1] if self.cycles else None
        if cycle and cycle["answered"] is None and generation is not None \
                and generation >= cycle["target"]:
            cycle["answered"] = done
            self._next = done + self.GAP_S

    def settled(self) -> bool:
        """Every cycle published and answered."""
        return (len(self.cycles) == self.CYCLES
                and self.cycles[-1]["answered"] is not None)


def serve_window(child: ServeChild, traffic: Traffic,
                 checker: ResponseChecker, rate: float, seconds: float,
                 cycles: Optional[SwapCycles] = None) -> Dict[str, Any]:
    """One open-loop window, optionally with publish cycles after its
    read phase.  Returns the observations and raw timestamps."""
    start, cpu_start = time.perf_counter(), child.cpu_s()

    def on_response(observation: Observation) -> None:
        generation = checker(observation)
        if cycles is not None:
            cycles.answered(generation, observation.done)

    observations = asyncio.run(run_open_loop(
        child.host, child.port, traffic.requests, rate, seconds,
        CONNECTIONS, on_response=on_response,
        on_tick=cycles.tick if cycles else None,
        until=cycles.settled if cycles else None))
    end = time.perf_counter()
    read_end = cycles.cycles[0]["publish"] if cycles and cycles.cycles \
        else end
    cpu_read = (cycles.cpu_publish if cycles and cycles.cpu_publish
                else child.cpu_s()) - cpu_start
    return {"observations": observations, "start": start,
            "read_end": read_end, "end": end, "cpu_read_s": cpu_read,
            "read": [o for o in observations if o.due < read_end]}


def _server_throughput(window: Dict[str, Any],
                       samples: List[Tuple[float, float, float]]) -> float:
    """Requests per reference CPU-second of the server in the read
    phase: the rate one fully busy server process sustains."""
    factor, busy = speed(samples, window["start"], window["read_end"])
    served = sum(1 for o in window["read"] if o.done <= window["read_end"])
    return served / ((window["cpu_read_s"] - busy) * factor)


def run_serve(plan: Plan, seed: int, seconds: float, work: Path,
              tracer=None) -> Outcome:
    """Time server start-up, then serve an open-loop window: a read
    phase, then publish cycles.

    A traced run starts one untraced server more than it times, and
    serves it a shorter read-only window: its CPU per request is the
    base of the tracing overhead.
    """
    served, sources, indexes = prepare_checkpoints(plan, work)
    traffic = Traffic(indexes, seed)
    checker = ResponseChecker(traffic, indexes)
    pin_to_cpu(0)
    spawns = plan.spawns + (tracer is not None)
    children: List[ServeChild] = []
    untraced = None
    try:
        for spawn in range(spawns):
            traced = tracer is not None and spawn == spawns - 1
            child = ServeChild(
                served, work, f"serve-{spawn}",
                work / "serve-spans.jsonl" if traced else None,
                tracer.run_id if traced else "")
            children.append(child)
            child.wait_healthy()
            if spawn == spawns - 1:
                break
            if tracer is not None and spawn == spawns - 2:
                untraced = serve_window(child, traffic, checker,
                                   plan.serve_rate, seconds / 3)
            child.stop()
        cycles = SwapCycles(child, served, sources, seconds * PUBLISH_AT)
        window = serve_window(child, traffic, checker, plan.serve_rate,
                         seconds, cycles)
        peak_rss = child.peak_rss_mib()
    finally:
        for child in children:
            child.stop()

    server = children[-1].samples()
    observations: List[Observation] = window["observations"]
    latencies = sorted(o.latency_s if o.status else float("inf")
                       for o in window["read"])
    stale, tails = [], []
    for cycle in cycles.cycles:
        if cycle["answered"] is None:
            checker.failed += 1
            checker.errors.append(f"generation {cycle['target']} never "
                                  f"answered")
            continue
        stale.append(normalise(server, cycle["publish"], cycle["answered"]))
        tails.append(percentile(sorted(
            o.latency_s if o.status else float("inf")
            for o in observations
            if cycle["publish"] <= o.due <= cycle["answered"]), 99) * 1e3)
    metrics = {
        "setup_s": statistics.median(
            normalise(c.samples(), c.started, c.healthy) for c in children),
        "throughput_per_s": _server_throughput(window, server),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "stale_s": statistics.mean(stale) if stale else float("inf"),
        "peak_rss_mib": peak_rss,
    }
    info = {"requests": len(observations), "rate": plan.serve_rate,
            "read_requests": len(window["read"]),
            "cycles": len(cycles.cycles), "stale_s": stale,
            "cycle_p99_ms": tails,
            "read_p99_ms": percentile(latencies, 99) * 1e3,
            "raw_cpu_read_s": window["cpu_read_s"],
            "server_factor": speed(server, window["start"],
                                   window["end"])[0]}
    outcome = Outcome(metrics, len(observations), checker.failed,
                      checker.errors, info=info)
    if tracer is not None:
        from trace import load, summarize
        outcome.child_records = load(work / "serve-spans.jsonl")
        handle = sorted(summarize(outcome.child_records).get(
            "serve.app.handle", {}).get("durations", []))
        exchange = sorted(o.done - o.sent for o in observations if o.status)
        outcome.extras = {
            "serve.http.overhead_us.p50":
                (percentile(exchange, 50) - percentile(handle, 50)) * 1e6,
            "serve.http.failed": float(checker.failed),
            "loadgen.conn_wait_ms.p99": percentile(
                sorted(o.sent - o.queued for o in observations), 99) * 1e3,
            "loadgen.late_ms.p99": percentile(
                sorted(o.queued - o.due for o in observations), 99) * 1e3,
            "trace.overhead_frac": _server_throughput(
                untraced, children[-2].samples())
            / metrics["throughput_per_s"] - 1.0,
        }
    return outcome


WORKLOADS = {
    "batch": lambda *a, **k: run_pipeline("batch", *a, **k),
    "ingest": lambda *a, **k: run_pipeline("ingest", *a, **k),
    "outofcore": lambda *a, **k: run_pipeline("outofcore", *a, **k),
    "serve": run_serve,
}
