"""Scan-kernel throughput bench: one-pass kernel vs legacy per-pattern.

Replays the per-sample byte-scanning workload of the measurement
pipeline over a generated corpus two ways:

- **legacy** — the seed's path: sanity and static analysis each unpack
  the sample, every rule pattern walks the bytes on its own (nocase
  patterns re-folding ``data.lower()`` per pattern), and the thirteen
  sequential per-coin identifier regexes run over every token of the
  strings blob.
- **kernel** — one shared :class:`repro.perf.scan.ScanContext` per
  sample: a single unpack, a single strings walk, bitmask literal
  matching + fused regex alternations for the rules, and the combined
  named-group wallet alternation for identifiers.

The work splits into two stages, timed separately:

- ``materialize`` — unpacking and building the strings view.  Both
  paths need it (static findings carry the strings list); the kernel
  builds it once, the legacy path once per consumer.
- ``scan`` — the pattern-matching work proper: rule evaluation,
  identifier extraction, Stratum IoC detection over the materialized
  views.  This is the per-pattern path the kernel replaces, and the
  headline ``speedup`` in the JSON output.

Both paths must produce identical rule matches, strings, identifiers
and Stratum endpoints for every sample — any mismatch exits non-zero,
which is what the CI smoke step asserts.  Results are printed as JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_scan_kernel.py \
        [--scale 0.004] [--seed 2019] [--iterations 3] [--min-speedup 0]
"""

import argparse
import json
import re
import sys
import time
from pathlib import Path

from repro.binfmt.packers import identify_packer
from repro.binfmt.strings import extract_strings
from repro.common.errors import BinaryFormatError
from repro.core.static_analysis import _STRATUM_URL_RE
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.perf.cache import clear_caches
from repro.perf.scan import ScanContext
from repro.wallets.detect import extract_identifiers
from repro.yarm.builtin import builtin_miner_rules
from repro.yarm.engine import Match

# the per-token identifier oracle lives with the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference_scan import extract_identifiers_legacy  # noqa: E402


def _stratum_entries(blob):
    entries = []
    for match in _STRATUM_URL_RE.finditer(blob):
        entry = (match.group("host").lower(), int(match.group("port")))
        if entry not in entries:
            entries.append(entry)
    return entries


# --------------------------------------------------------------------------
# Legacy path (the seed's code, kept verbatim in spirit)
# --------------------------------------------------------------------------


def _seed_scannable(raw):
    """The seed's inline unpack step (run once per consumer)."""
    packer = identify_packer(raw)
    if packer is not None and packer.unpackable:
        try:
            return packer.reverse(raw)
        except BinaryFormatError:
            pass
    return raw


def _seed_pattern_matches(sp, data):
    """Seed-era ``StringPattern.matches``: per-pattern lowercase fold."""
    if sp.kind == "text":
        if sp.nocase:
            return sp.pattern.lower() in data.lower()
        return sp.pattern in data
    if sp.kind == "hex":
        return sp.pattern in data
    flags = re.IGNORECASE if sp.nocase else 0
    return re.search(sp.pattern, data, flags) is not None


def legacy_materialize(raw):
    """Unpack (once per consumer, like the seed) and build the views."""
    data = _seed_scannable(raw)         # sanity's unpack
    static_data = _seed_scannable(raw)  # static analysis unpacks again
    strings = extract_strings(static_data)
    return data, strings, "\n".join(strings)


def legacy_scan(data, blob, rules):
    """The seed's per-pattern scan: rules, identifiers, Stratum IoCs."""
    matches = []
    for rule in rules.rules:
        fired = {sp.identifier: _seed_pattern_matches(sp, data)
                 for sp in rule.strings}
        if rule.condition.evaluate(fired):
            matches.append(Match(
                rule=rule.name, tags=list(rule.tags),
                fired=[name for name, hit in fired.items() if hit]))
    identifiers = extract_identifiers_legacy(blob)
    return matches, identifiers, _stratum_entries(blob)


def legacy_scan_sample(raw, rules):
    data, strings, blob = legacy_materialize(raw)
    matches, identifiers, stratum = legacy_scan(data, blob, rules)
    return matches, strings, identifiers, stratum


# --------------------------------------------------------------------------
# Kernel path
# --------------------------------------------------------------------------


def kernel_materialize(raw):
    """One shared context: single unpack, single strings walk."""
    ctx = ScanContext.for_sample(raw)
    ctx.strings  # builds blob + text once, reused by every scanner
    return ctx


def kernel_scan(ctx, rules):
    """One-pass kernel scan over the shared context."""
    matches = rules.scan(ctx)
    identifiers = extract_identifiers(ctx.text)
    stratum = (_stratum_entries(ctx.text)
               if "stratum+" in ctx.text else [])
    return matches, identifiers, stratum


def kernel_scan_sample(raw, rules):
    ctx = kernel_materialize(raw)
    matches, identifiers, stratum = kernel_scan(ctx, rules)
    return matches, list(ctx.strings), identifiers, stratum


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------


def _best_of(fn, iterations):
    best = float("inf")
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.004)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail when the scan-stage speedup drops "
                             "below this")
    args = parser.parse_args(argv)

    world = generate_world(ScenarioConfig(
        seed=args.seed, scale=args.scale, include_junk=False))
    samples = [sample.raw for sample in world.samples]
    rules = builtin_miner_rules()
    rules.kernel()  # compile outside the timed region

    # equivalence gate: every sample, all four result families
    clear_caches()
    mismatches = 0
    for raw in samples:
        if legacy_scan_sample(raw, rules) != kernel_scan_sample(raw, rules):
            mismatches += 1
    equivalent = mismatches == 0

    # stage timings (each iteration pays its own unpacks)
    def legacy_mat():
        for raw in samples:
            legacy_materialize(raw)

    def kernel_mat():
        clear_caches()
        for raw in samples:
            kernel_materialize(raw)

    legacy_mat_s = _best_of(legacy_mat, args.iterations)
    kernel_mat_s = _best_of(kernel_mat, args.iterations)

    legacy_views = [legacy_materialize(raw) for raw in samples]
    clear_caches()
    kernel_views = [kernel_materialize(raw) for raw in samples]

    def legacy_scan_all():
        for data, _, blob in legacy_views:
            legacy_scan(data, blob, rules)

    def kernel_scan_all():
        for ctx in kernel_views:
            kernel_scan(ctx, rules)

    legacy_scan_s = _best_of(legacy_scan_all, args.iterations)
    kernel_scan_s = _best_of(kernel_scan_all, args.iterations)

    def legacy_all():
        for raw in samples:
            legacy_scan_sample(raw, rules)

    def kernel_all():
        clear_caches()
        for raw in samples:
            kernel_scan_sample(raw, rules)

    legacy_s = _best_of(legacy_all, args.iterations)
    kernel_s = _best_of(kernel_all, args.iterations)

    def ratio(a, b):
        return round(a / b, 2) if b else float("inf")

    scan_speedup = ratio(legacy_scan_s, kernel_scan_s)
    print(json.dumps({
        "samples": len(samples),
        "iterations": args.iterations,
        "stages": {
            "materialize": {"legacy_s": round(legacy_mat_s, 4),
                            "kernel_s": round(kernel_mat_s, 4),
                            "speedup": ratio(legacy_mat_s, kernel_mat_s)},
            "scan": {"legacy_s": round(legacy_scan_s, 4),
                     "kernel_s": round(kernel_scan_s, 4),
                     "speedup": scan_speedup},
        },
        "overall": {"legacy_s": round(legacy_s, 4),
                    "kernel_s": round(kernel_s, 4),
                    "speedup": ratio(legacy_s, kernel_s)},
        "speedup": scan_speedup,
        "equivalent": equivalent,
        "mismatches": mismatches,
    }, indent=2))

    if not equivalent:
        print("FAIL: kernel and legacy scan paths disagree",
              file=sys.stderr)
        return 1
    if scan_speedup < args.min_speedup:
        print(f"FAIL: scan speedup {scan_speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
