"""Command-line interface.

Subcommands::

    python -m repro.cli measure   --scale 0.01 --seed 2019 [--export DIR]
    python -m repro.cli exhibits  --scale 0.01 --seed 2019
    python -m repro.cli casestudy --name Freebuf
    python -m repro.cli defense   --scale 0.01
    python -m repro.cli ingest    --checkpoint DIR --batch-days 7 [--resume]
    python -m repro.cli status    --checkpoint DIR
    python -m repro.cli scale     --scale 0.55 [--store DIR] [--shards K]
    python -m repro.cli serve     [--checkpoint DIR | --store DIR]
                                  [--port 8742] [--api-key KEY --rate 50]
                                  [--workers N]
    python -m repro.cli bench     [--suite scale|serve|all]
                                  [--workers-list 1,2]
    python -m repro.cli lint      [--changed] [--graph]
                                  [--json | --sarif]

``measure`` runs the full pipeline and prints the funnel; ``exhibits``
renders the main paper tables; ``casestudy`` deep-dives one of the §V
campaigns; ``defense`` evaluates the §VI countermeasures; ``ingest``
replays the corpus as dated feed batches with durable checkpoints
(interrupt it freely, re-run with ``--resume``); ``status`` inspects a
checkpoint directory without touching the corpus; ``scale`` runs the
out-of-core streaming pipeline (:mod:`repro.scale`) that never holds
the whole world in memory; ``serve`` starts the threat-intel HTTP API
(:mod:`repro.serve`) over a checkpoint directory (hot-swapping as the
checkpoint advances), a columnar record store, or a fresh pipeline
run — ``--workers N`` forks an ``SO_REUSEPORT`` fleet of N serving
processes sharing one pre-fork index (store or pipeline sources only:
a fleet cannot follow a checkpoint); ``bench`` runs the scale and
serve lanes into ``BENCH_*.json`` plus per-run ``BENCH_history/``
entries; ``lint`` runs the
reprolint invariant checks (see ``docs/static-analysis.md``) and fails
on any finding a pragma does not accept — ``--changed`` narrows
reporting to the git diff, ``--graph`` dumps the resolved call graph
and stage-contract table.
"""

import argparse
import sys
import time
from typing import Optional

from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


#: memoised worlds by (seed, scale) — corpus generation dominates CLI
#: start-up, and commands like ``ingest --verify`` need the same world
#: twice (once streamed, once batch-measured).
_WORLD_CACHE = {}


def _get_world(seed: int, scale: float, profile: bool = False):
    """Build (or reuse) the synthetic world for one (seed, scale).

    With ``profile``, a build prints its wall time to stderr in the
    stage table's columns.
    """
    key = (seed, scale)
    if key not in _WORLD_CACHE:
        started = time.perf_counter()
        world = generate_world(ScenarioConfig(seed=seed, scale=scale))
        if profile:
            print(f"{'world generation':<32} "
                  f"{time.perf_counter() - started:>9.3f}  "
                  f"{len(world.samples)} samples", file=sys.stderr)
        _WORLD_CACHE[key] = world
    return _WORLD_CACHE[key]


def _print_runtime_stats() -> None:
    """Cache + scan-kernel counters, appended to --profile output."""
    from repro.perf.cache import render_cache_table
    from repro.perf.scan import render_scan_stats
    print(render_cache_table(), file=sys.stderr)
    print(render_scan_stats(), file=sys.stderr)


def _build_world_and_result(args):
    world = _get_world(args.seed, args.scale,
                       getattr(args, "profile", False))
    pipeline = MeasurementPipeline(world)
    result = pipeline.run()
    if getattr(args, "profile", False):
        print(pipeline.profiler.render_table(), file=sys.stderr)
        _print_runtime_stats()
    return world, result


def cmd_measure(args) -> int:
    """Run the full pipeline and print the sample funnel."""
    from repro.analysis import headline_monero_fraction
    from repro.analysis.validation import aggregation_quality
    world, result = _build_world_and_result(args)
    stats = result.stats
    print(f"collected:   {stats.collected}")
    print(f"executables: {stats.executables}")
    print(f"malware:     {stats.malware}")
    print(f"miners:      {stats.miners}")
    print(f"ancillaries: {stats.ancillaries}")
    print(f"campaigns:   {len(result.campaigns)}")
    headline = headline_monero_fraction(result)
    print(f"illicit XMR: {headline['total_xmr']:.0f} "
          f"({headline['fraction']*100:.2f}% of supply, "
          f"{headline['total_usd']/1e6:.1f}M USD)")
    scores = aggregation_quality(world, result)
    print(f"aggregation: P={scores.precision:.3f} R={scores.recall:.3f}")
    if args.export:
        from repro.reporting.dataset_export import export_all
        from repro.reporting.figure_export import export_all_figures
        counts = export_all(result, args.export)
        if world.forum_corpus is not None:
            counts.update(export_all_figures(result, world.forum_corpus,
                                             args.export))
        print(f"exported to {args.export}: {counts}")
    return 0


def cmd_exhibits(args) -> int:
    """Render the main paper tables for one measured world."""
    from repro.analysis import (
        table4_currencies,
        table7_pool_popularity,
        table8_top_campaigns,
        table11_infrastructure,
    )
    from repro.reporting.render import (
        render_table4,
        render_table7,
        render_table8,
        render_table11,
    )
    _, result = _build_world_and_result(args)
    print(render_table4(table4_currencies(result)))
    print()
    print(render_table7(table7_pool_popularity(result)))
    print()
    print(render_table8(table8_top_campaigns(result)))
    print()
    print(render_table11(table11_infrastructure(result)))
    return 0


def cmd_casestudy(args) -> int:
    """Deep-dive one of the SV case-study campaigns."""
    from repro.analysis import (
        fig6_campaign_structure,
        fig7_payment_timeline,
    )
    world, result = _build_world_and_result(args)
    truth = next((c for c in world.ground_truth if c.label == args.name),
                 None)
    if truth is None:
        print(f"unknown case study: {args.name} "
              "(expected Freebuf or USA-138)", file=sys.stderr)
        return 1
    campaign = result.campaign_for_wallet(truth.identifiers[0])
    if campaign is None:
        print("case-study campaign not recovered", file=sys.stderr)
        return 1
    structure = fig6_campaign_structure(result, campaign)
    for key, value in structure.items():
        print(f"{key}: {value}")
    timeline = fig7_payment_timeline(result, campaign)
    print(f"wallets with payments: {len(timeline)}")
    return 0


def cmd_defense(args) -> int:
    """Evaluate the SVI countermeasures on a measured world."""
    from repro.defense.blacklist import BlacklistDefense
    from repro.defense.fork_policy import compare_cadences
    from repro.defense.intervention import WalletReportingCampaign
    world, result = _build_world_and_result(args)
    blacklist = BlacklistDefense(world.pool_directory).evaluate(
        result.miner_records(), result.proxy_ips)
    print(f"blacklist: blocked {blacklist.blocked}/"
          f"{blacklist.total_miners} "
          f"(cname evasions: {blacklist.evaded_by_cname}, "
          f"proxy: {blacklist.evaded_by_proxy})")
    report = WalletReportingCampaign(world.pool_directory).run(result)
    print(f"intervention: {report.wallets_banned}/"
          f"{report.wallets_reported} wallets banned; "
          f"disrupted {report.disrupted_run_rate:.1f} XMR/day")
    none, historical, quarterly = compare_cadences(world.ground_truth)
    print(f"fork policy: historical retains "
          f"{historical.retained_fraction*100:.0f}% of mining-days, "
          f"quarterly retains {quarterly.retained_fraction*100:.0f}%")
    return 0


def cmd_report(args) -> int:
    """Write markdown dossiers for the top campaigns."""
    from pathlib import Path

    from repro.reporting.campaign_report import (
        render_top_campaign_reports,
    )
    _, result = _build_world_and_result(args)
    bundle = render_top_campaign_reports(result, top=args.top)
    if args.output:
        Path(args.output).write_text(bundle)
        print(f"wrote {args.top} campaign dossiers to {args.output}")
    else:
        print(bundle)
    return 0


def cmd_fullreport(args) -> int:
    """Write the complete measurement report (all exhibits)."""
    from pathlib import Path

    from repro.reporting.summary_report import render_measurement_report
    world, result = _build_world_and_result(args)
    report = render_measurement_report(world, result)
    if args.output:
        Path(args.output).write_text(report)
        print(f"wrote measurement report to {args.output} "
              f"({len(report.splitlines())} lines)")
    else:
        print(report)
    return 0


def cmd_ingest(args) -> int:
    """Stream the corpus through the checkpointed ingestion service."""
    from repro.ingest import IngestionService
    from repro.ingest.service import diff_measurements
    from repro.reporting.ingest_report import (
        render_batch_metrics,
        render_ingest_summary,
    )
    world = _get_world(args.seed, args.scale, args.profile)
    service = IngestionService(
        world, args.checkpoint, batch_days=args.batch_days,
        resume=args.resume,
        snapshot_every=args.snapshot_every)
    try:
        ingest = service.run()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(render_batch_metrics(ingest.batches))
    print()
    print(render_ingest_summary(ingest))
    if args.profile:
        print(service.profiler.render_table(), file=sys.stderr)
        _print_runtime_stats()
    if args.verify:
        diffs = diff_measurements(MeasurementPipeline(world).run(),
                                  ingest.result)
        if diffs:
            print("verify: MISMATCH against the batch pipeline:",
                  file=sys.stderr)
            for diff in diffs:
                print(f"  - {diff}", file=sys.stderr)
            return 1
        print("verify: incremental result equals the batch pipeline")
    return 0


def cmd_scale(args) -> int:
    """Run the out-of-core streaming pipeline and print its funnel."""
    from repro.scale.columnar import RecordStore
    from repro.scale.pipeline import ScalePipeline
    from repro.scale.stream import StreamingCorpus
    config = ScenarioConfig(seed=args.seed, scale=args.scale,
                            mining_stride_days=args.stride_days)
    corpus = StreamingCorpus(config, chunk_samples=args.chunk_samples,
                             keep_sample_hashes=False)
    store = RecordStore(args.store) if args.store else None
    pipeline = ScalePipeline(corpus, store=store, num_shards=args.shards,
                             prefetch=args.prefetch)
    result = pipeline.run()
    try:
        _print_scale_result(result, args.store)
    finally:
        result.close()
    return 0


def _print_scale_result(result, store_dir) -> None:
    from repro.common.memory import peak_rss_mib, rss_supported
    stats = result.stats
    print(f"collected:   {stats.collected}")
    print(f"executables: {stats.executables}")
    print(f"malware:     {stats.malware}")
    print(f"miners:      {stats.miners}")
    print(f"ancillaries: {stats.ancillaries}")
    print(f"campaigns:   {len(result.campaigns)}")
    print(f"segments:    {result.store.num_segments} "
          f"({len(result.store)} records)")
    print(f"spilled:     {result.deferred_spilled} deferred, "
          f"{result.rejected_spilled} rejected, "
          f"{result.recovered} recovered "
          f"({result.spill_bytes / (1024 * 1024):.1f} MiB on disk)")
    if rss_supported():
        print(f"peak RSS:    {peak_rss_mib():.1f} MiB")
    if store_dir:
        print(f"store:       {store_dir}")


async def _serve_main(service, source, host: str, port: int,
                      poll_interval: float) -> int:
    """Run the HTTP front end (+ snapshot watcher) until interrupted."""
    import asyncio

    from repro.serve.http import HttpServer
    from repro.serve.watcher import SnapshotWatcher
    server = HttpServer(service.handle, host=host, port=port)
    await server.start()
    print(f"serving on http://{host}:{server.port}", file=sys.stderr)
    watcher_task = None
    if source is not None:
        watcher = SnapshotWatcher(service, source,
                                  interval_s=poll_interval)
        watcher.prime()
        watcher_task = asyncio.ensure_future(watcher.run_forever())
        print(f"watching {source.store.directory} every "
              f"{poll_interval}s", file=sys.stderr)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if watcher_task is not None:
            watcher_task.cancel()
        await server.stop()
    return 0


def cmd_serve(args) -> int:
    """Start the threat-intel HTTP API over an index source."""
    import asyncio

    from repro.serve.app import IntelService
    from repro.serve.auth import ApiKeyRegistry
    from repro.serve.index import build_index
    from repro.serve.snapshot import (
        CheckpointIndexSource,
        checkpoint_plan,
        result_from_store,
    )

    if args.checkpoint and args.workers > 1:
        # forked children would serve the pre-fork generation forever
        print("--workers > 1 cannot serve --checkpoint: a fleet would "
              "serve a frozen generation while the checkpoint advances; "
              "use --workers 1 (hot swap) or --store", file=sys.stderr)
        return 2
    registry = ApiKeyRegistry()
    if args.api_key:
        for key in args.api_key:
            registry.add(key, rate=args.rate, burst=args.burst)
    else:
        issued = registry.generate(name="default", rate=args.rate,
                                   burst=args.burst)
        print(f"api key (generated): {issued.key}", file=sys.stderr)

    source = None
    if args.checkpoint:
        plan = checkpoint_plan(args.checkpoint)
        seed = (plan["seed"] if plan and plan.get("seed") is not None
                else args.seed)
        scale = (plan["scale"]
                 if plan and plan.get("scale") is not None
                 else args.scale)
        world = _get_world(seed, scale)
        # a journal-only checkpoint names no plan: daily batches unless
        # --batch-days says otherwise, and a restore refuses a mismatch
        batch_days = args.batch_days or (plan["batch_days"] if plan else 1)
        source = CheckpointIndexSource(world, args.checkpoint,
                                       batch_days=batch_days)
        if source.stamp() is None:
            print(f"no checkpoint state under {args.checkpoint}",
                  file=sys.stderr)
            return 1
        try:
            index = source.build(1)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
    elif args.store:
        from repro.scale.columnar import RecordStore
        world = _get_world(args.seed, args.scale)
        result = result_from_store(world, RecordStore(args.store))
        index = build_index(result, generation=1,
                            source=f"store:{args.store}")
    else:
        world = _get_world(args.seed, args.scale)
        result = MeasurementPipeline(world).run()
        index = build_index(
            result, generation=1,
            source=f"pipeline seed={args.seed} scale={args.scale}")
    counts = index.counts()
    print(f"index generation {index.generation} from {index.source}: "
          f"{counts['hashes']} hashes, {counts['wallets']} wallets, "
          f"{counts['campaigns']} campaigns, {counts['domains']} "
          f"domains", file=sys.stderr)
    service = IntelService(index, registry)
    if args.workers > 1:
        return _serve_fleet(service, args)
    try:
        return asyncio.run(_serve_main(service, source, args.host,
                                       args.port, args.poll_interval))
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        return 0


def _serve_fleet(service, args) -> int:
    """Run the multi-process fleet until Ctrl-C or SIGTERM."""
    import signal
    import time as _time

    from repro.serve.fleet import ServerFleet
    # SIGTERM (kill, service managers, Popen.terminate) stops the
    # workers the way Ctrl-C does: its default action would end this
    # process before ServerFleet.__exit__ runs, orphaning them
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with ServerFleet(service.handle, host=args.host, port=args.port,
                         workers=args.workers) as fleet:
            print(f"serving on http://{fleet.host}:{fleet.port} with "
                  f"{args.workers} workers (pids "
                  f"{' '.join(str(p) for p in fleet.pids)})",
                  file=sys.stderr)
            while fleet.alive():
                _time.sleep(1.0)
            print("all workers exited", file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupted; workers stopped", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_lint(args) -> int:
    """Run reprolint over the source tree; any finding fails."""
    import json
    from pathlib import Path

    from repro.lint import lint_source_tree
    root = Path(args.root) if args.root else None
    if args.graph:
        from repro.lint import build_project_index
        from repro.lint.callgraph import (
            render_concurrency,
            render_contracts,
            render_graph,
        )
        index = build_project_index(root)
        print(render_graph(index), end="")
        print(render_contracts(index), end="")
        print(render_concurrency(index), end="")
        return 0
    run = lint_source_tree(root=root, changed_only=args.changed)
    report = run.report
    if args.changed and run.focus is not None:
        print(f"reprolint --changed: {len(run.focus)} file(s) since "
              "the merge base", file=sys.stderr)
    if args.sarif:
        from repro.lint.sarif import render_sarif
        print(render_sarif(report))
    elif args.json:
        print(json.dumps({
            "modules": report.modules_scanned,
            "findings": [f.__dict__ for f in report.findings],
            "suppressed": len(report.suppressed),
        }, indent=2))
    else:
        for error in report.parse_errors:
            print(f"parse error: {error}", file=sys.stderr)
        for finding in report.findings:
            print(finding.render())
        print(f"reprolint: {report.modules_scanned} modules, "
              f"{len(report.findings)} findings "
              f"({len(report.suppressed)} pragma-suppressed)")
    return 0 if run.ok() else 1


def cmd_status(args) -> int:
    """Inspect a checkpoint directory without touching the corpus."""
    from pathlib import Path

    from repro.ingest import CheckpointStore
    from repro.reporting.ingest_report import render_checkpoint_status
    if not Path(args.checkpoint).is_dir():
        print(f"no checkpoint directory at {args.checkpoint}",
              file=sys.stderr)
        return 1
    store = CheckpointStore(args.checkpoint, fsync=False)
    if not store.exists():
        print(f"no checkpoint state under {args.checkpoint}",
              file=sys.stderr)
        return 1
    print(render_checkpoint_status(store.load()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Crypto-mining malware ecosystem measurement "
                    "(IMC 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in [("measure", cmd_measure),
                       ("exhibits", cmd_exhibits),
                       ("casestudy", cmd_casestudy),
                       ("defense", cmd_defense),
                       ("report", cmd_report),
                       ("fullreport", cmd_fullreport),
                       ("ingest", cmd_ingest)]:
        p = sub.add_parser(name)
        p.add_argument("--scale", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=2019)
        p.add_argument("--profile", action="store_true",
                       help="print per-stage pipeline timings to stderr")
        p.set_defaults(func=func)
        if name == "measure":
            p.add_argument("--export", type=str, default=None,
                           help="directory for the dataset bundle")
        if name == "casestudy":
            p.add_argument("--name", type=str, default="Freebuf")
        if name == "report":
            p.add_argument("--top", type=int, default=3)
            p.add_argument("--output", type=str, default=None)
        if name == "fullreport":
            p.add_argument("--output", type=str, default=None)
        if name == "ingest":
            p.add_argument("--checkpoint", type=str, required=True,
                           help="durable checkpoint directory")
            p.add_argument("--batch-days", type=_positive_int, default=1,
                           help="simulated days per feed batch")
            p.add_argument("--resume", action="store_true",
                           help="continue from the checkpoint's cursor")
            p.add_argument("--snapshot-every", type=_positive_int,
                           default=8,
                           help="compact the journal every N batches")
            p.add_argument("--verify", action="store_true",
                           help="also run the batch pipeline and assert "
                                "the results are identical")
    scale = sub.add_parser(
        "scale",
        help="out-of-core streaming pipeline (repro.scale)")
    scale.add_argument("--scale", type=float, default=0.055)
    scale.add_argument("--seed", type=int, default=2019)
    scale.add_argument("--chunk-samples", type=_positive_int,
                       default=4096, help="samples per streamed chunk")
    scale.add_argument("--shards", type=_positive_int, default=8,
                       help="union-find shards for aggregation")
    scale.add_argument("--prefetch", type=int, default=2,
                       help="chunk prefetch depth (0 = synchronous)")
    scale.add_argument("--stride-days", type=_positive_int, default=30,
                       help="mining-driver stride (coarser = faster)")
    scale.add_argument("--store", type=str, default=None,
                       help="persist the columnar record store here "
                            "(default: a temp dir, deleted on exit)")
    scale.set_defaults(func=cmd_scale)
    serve = sub.add_parser(
        "serve",
        help="threat-intel HTTP API over a checkpoint / store / "
             "pipeline run (repro.serve)")
    serve.add_argument("--checkpoint", type=str, default=None,
                       help="checkpoint directory to index and watch "
                            "for new snapshots")
    serve.add_argument("--store", type=str, default=None,
                       help="columnar record-store directory to index")
    serve.add_argument("--scale", type=float, default=0.01,
                       help="world scale (overridden by the "
                            "checkpoint's own plan when present)")
    serve.add_argument("--seed", type=int, default=2019)
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="serving processes; > 1 forks a "
                            "SO_REUSEPORT fleet sharing one pre-fork "
                            "index (not with --checkpoint)")
    serve.add_argument("--batch-days", type=_positive_int, default=None,
                       help="feed plan override for journal-only "
                            "checkpoints")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8742,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--api-key", action="append", default=None,
                       help="accept this API key (repeatable; default: "
                            "generate one and print it)")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-key sustained requests/second "
                            "(0 = unlimited)")
    serve.add_argument("--burst", type=_positive_int, default=10,
                       help="per-key burst ceiling")
    serve.add_argument("--poll-interval", type=float, default=2.0,
                       help="checkpoint poll period for hot swap")
    serve.set_defaults(func=cmd_serve)
    # listed for --help only: main() hands "bench ..." to the harness,
    # which owns its flags (suites from repro.scale.bench.GATE_METRICS)
    sub.add_parser(
        "bench", add_help=False,
        help="scale and serve benchmark lanes; writes "
             "BENCH_<suite>.json plus a BENCH_history/ entry per run "
             "(see repro bench --help)")
    status = sub.add_parser("status")
    status.add_argument("--checkpoint", type=str, required=True,
                        help="checkpoint directory to inspect")
    status.set_defaults(func=cmd_status)
    lint = sub.add_parser(
        "lint",
        help="static invariant checks (reprolint) over the source tree")
    lint.add_argument("--root", type=str, default=None,
                      help="tree to lint (default: the repro package)")
    lint.add_argument("--changed", action="store_true",
                      help="report only files differing from the git "
                           "merge base (full tree still analysed)")
    lint.add_argument("--graph", action="store_true",
                      help="dump the resolved call graph and the "
                           "stage-contract table, then exit")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    lint.add_argument("--sarif", action="store_true",
                      help="SARIF 2.1.0 report on stdout")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bench"]:
        from repro.scale import bench
        return bench.main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
