"""reprolint engine tests: per-rule fixtures, pragmas, self-check.

Each rule family has a positive fixture (every expected rule ID at an
expected line, located by marker comments so line drift cannot rot the
assertions) and a negative fixture that must stay silent.  On top:
pragma suppression and the self-check that HEAD lints clean.
"""

import subprocess
from pathlib import Path

import pytest

from repro.lint import (
    LintEngine,
    RULE_REGISTRY,
    build_project_index,
    changed_files,
)
from repro.lint.pragmas import collect_pragmas

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def lint_fixture(*names):
    """Findings for the named fixture files (paths kept fixture-relative)."""
    paths = [FIXTURES / name for name in names]
    return LintEngine().run(FIXTURES, paths=paths)


def marked_lines(name, marker):
    """1-based lines of ``name`` whose text mentions ``marker``."""
    text = (FIXTURES / name).read_text().splitlines()
    return [i for i, line in enumerate(text, start=1)
            if marker in line and "marked_lines" not in line]


def found(report, rule_id):
    return [(f.path, f.line) for f in report.findings
            if f.rule_id == rule_id]


# -- rule families ----------------------------------------------------------


class TestTaintRules:
    def test_positive(self):
        report = lint_fixture("taint_bad.py")
        assert found(report, "TAINT001") == [
            ("taint_bad.py", line)
            for line in marked_lines("taint_bad.py", "TAINT001")]
        flagged = {line for _, line in found(report, "TAINT002")}
        assert flagged == set(marked_lines("taint_bad.py", "TAINT002"))

    def test_negative(self):
        assert lint_fixture("taint_ok.py").findings == []

    def test_non_grouping_module_out_of_scope(self, tmp_path):
        # the same tainted read outside a grouping module is fine
        module = tmp_path / "enricher.py"
        module.write_text(
            "def tag(campaign):\n"
            "    return campaign.ppi_botnets\n")
        assert LintEngine().run(tmp_path).findings == []


class TestDeterminismRules:
    def test_positive(self):
        report = lint_fixture("core/det_bad.py")
        det1 = {line for _, line in found(report, "DET001")}
        assert det1 == set(marked_lines("core/det_bad.py", "DET001"))
        det2 = {line for _, line in found(report, "DET002")}
        assert det2 == set(marked_lines("core/det_bad.py", "DET002"))

    def test_negative(self):
        assert lint_fixture("core/det_ok.py").findings == []

    def test_out_of_scope_directory(self, tmp_path):
        # the determinism contract covers core/ingest/reporting only
        module = tmp_path / "benchmarks" / "timer.py"
        module.parent.mkdir()
        module.write_text("import time\n\n"
                          "def now():\n    return time.time()\n")
        assert LintEngine().run(tmp_path).findings == []


class TestDurabilityRules:
    def test_positive(self):
        report = lint_fixture("ingest/durable_bad.py")
        assert {line for _, line in found(report, "DUR001")} == \
            set(marked_lines("ingest/durable_bad.py", "DUR001"))
        assert {line for _, line in found(report, "DUR002")} == \
            set(marked_lines("ingest/durable_bad.py", "DUR002"))

    def test_negative(self):
        assert lint_fixture("ingest/durable_ok.py").findings == []

    def test_out_of_scope_directory(self, tmp_path):
        module = tmp_path / "reports" / "writer.py"
        module.parent.mkdir()
        module.write_text("def dump(path, text):\n"
                          "    open(path, 'w').write(text)\n")
        assert LintEngine().run(tmp_path).findings == []


class TestConcurrencyRules:
    def test_fork_positive(self):
        report = lint_fixture("conc_fork_bad.py")
        assert {line for _, line in found(report, "FORK001")} == \
            set(marked_lines("conc_fork_bad.py", "FORK001"))
        assert {line for _, line in found(report, "FORK002")} == \
            set(marked_lines("conc_fork_bad.py", "FORK002"))

    def test_async_positive(self):
        report = lint_fixture("conc_async_bad.py")
        assert {line for _, line in found(report, "ASYNC001")} == \
            set(marked_lines("conc_async_bad.py", "ASYNC001"))
        assert {line for _, line in found(report, "ASYNC002")} == \
            set(marked_lines("conc_async_bad.py", "ASYNC002"))

    def test_blocking_call_laundered_two_hops(self):
        # report_stats -> _load_stats -> _read_manifest: the open()
        # two sync hops down is still attributed to the coroutine.
        report = lint_fixture("conc_async_bad.py")
        laundered = [f for f in report.findings
                     if f.rule_id == "ASYNC001"
                     and f.symbol == "_read_manifest"]
        assert len(laundered) == 1
        assert "report_stats" in laundered[0].message

    def test_thread_positive(self):
        report = lint_fixture("conc_thread_bad.py")
        assert {line for _, line in found(report, "THR001")} == \
            set(marked_lines("conc_thread_bad.py", "THR001"))

    @pytest.mark.parametrize("name", ["conc_fork_ok.py",
                                      "conc_async_ok.py",
                                      "conc_thread_ok.py"])
    def test_negative(self, name):
        assert lint_fixture(name).findings == []


class TestResourceRules:
    def test_positive(self):
        report = lint_fixture("scale/res_bad.py")
        assert {line for _, line in found(report, "RES001")} == \
            set(marked_lines("scale/res_bad.py", "RES001"))

    def test_negative(self):
        assert lint_fixture("scale/res_ok.py").findings == []

    def test_out_of_scope_directory(self, tmp_path):
        # ownership is enforced in the handle-owning subsystems only
        module = tmp_path / "reports" / "writer.py"
        module.parent.mkdir()
        module.write_text("def probe(path):\n"
                          "    open(path, 'rb')\n")
        assert LintEngine().run(tmp_path).findings == []


class TestCacheKeyRules:
    def test_positive(self):
        report = lint_fixture("cache_bad.py")
        assert {line for _, line in found(report, "CKEY001")} == \
            set(marked_lines("cache_bad.py", "CKEY001"))

    def test_negative_including_derived_keys(self):
        assert lint_fixture("cache_ok.py").findings == []


class TestExceptionRules:
    def test_positive(self):
        report = lint_fixture("exc_bad.py")
        assert {line for _, line in found(report, "EXC001")} == \
            set(marked_lines("exc_bad.py", "EXC001"))
        assert {line for _, line in found(report, "EXC002")} == \
            set(marked_lines("exc_bad.py", "EXC002"))

    def test_negative(self):
        assert lint_fixture("exc_ok.py").findings == []


# -- pragmas ----------------------------------------------------------------


class TestPragmas:
    def test_line_and_file_pragmas_suppress(self):
        report = lint_fixture("pragma_cases.py")
        suppressed = {(f.rule_id, f.line) for f in report.suppressed}
        (pragma_line,) = marked_lines("pragma_cases.py",
                                      "disable=EXC001")
        assert ("EXC001", pragma_line) in suppressed
        assert any(rule == "EXC002" for rule, _ in suppressed)

    def test_unpragmad_finding_survives(self):
        report = lint_fixture("pragma_cases.py")
        assert found(report, "EXC001") == [
            ("pragma_cases.py", line)
            for line in marked_lines("pragma_cases.py",
                                     "EXC001 — no pragma")]

    def test_pragma_in_string_does_not_suppress(self, tmp_path):
        module = tmp_path / "strings.py"
        module.write_text(
            'NOTE = "# reprolint: disable-file=all"\n\n'
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except:\n"
            "        return None\n")
        report = LintEngine().run(tmp_path)
        assert [f.rule_id for f in report.findings] == ["EXC001"]


# -- whole-program passes ---------------------------------------------------


class TestInterproceduralTaint:
    def test_three_hop_chain_through_pool_flagged(self):
        report = lint_fixture("taintdeep/grouping.py",
                              "taintdeep/helpers.py")
        assert found(report, "TAINT002") == [
            ("taintdeep/grouping.py", line)
            for line in marked_lines("taintdeep/grouping.py",
                                     "TAINT002")]
        (finding,) = report.findings
        assert "relay_via_pool" in finding.message

    def test_sanitized_variant_is_clean(self):
        report = lint_fixture("taintdeep/grouping_ok.py",
                              "taintdeep/helpers.py")
        assert report.findings == []

    def test_helpers_alone_are_clean(self):
        # the chain is only a violation once grouping code consumes it
        assert lint_fixture("taintdeep/helpers.py").findings == []

    def test_checkpoint_sink_direct_and_laundered(self):
        report = lint_fixture("ckpt_bad.py")
        assert {line for _, line in found(report, "TAINT003")} == \
            set(marked_lines("ckpt_bad.py", "TAINT003"))
        # the untainted write must stay silent
        assert len(report.findings) == 2


class TestSchemaRules:
    def test_positive(self):
        report = lint_fixture("schema_bad.py")
        for rule in ("SCHEMA001", "SCHEMA002", "SCHEMA003"):
            assert {line for _, line in found(report, rule)} == \
                set(marked_lines("schema_bad.py", rule)), rule

    def test_negative_including_opaque_escape(self):
        assert lint_fixture("schema_ok.py").findings == []


class TestUnitKindRules:
    ALL = ("UNIT001", "UNIT002", "UNIT003", "KIND001", "KIND002")

    def test_positive_line_precise(self):
        report = lint_fixture("units_bad.py")
        for rule in self.ALL:
            assert {line for _, line in found(report, rule)} == \
                set(marked_lines("units_bad.py", rule)), rule
        assert len(report.findings) == sum(
            len(marked_lines("units_bad.py", rule))
            for rule in self.ALL)

    def test_negative(self):
        assert lint_fixture("units_ok.py").findings == []

    def test_two_hop_laundered_remainder(self):
        # the coin unit survives max() and the helper call boundary
        report = lint_fixture("unitdeep/sink.py",
                              "unitdeep/helpers.py")
        assert found(report, "UNIT002") == [
            ("unitdeep/sink.py", line)
            for line in marked_lines("unitdeep/sink.py", "UNIT002")]
        assert len(report.findings) == 1

    def test_two_hop_with_conversion_witness_is_clean(self):
        report = lint_fixture("unitdeep/sink_ok.py",
                              "unitdeep/helpers.py")
        assert report.findings == []

    def test_helpers_alone_are_clean(self):
        assert lint_fixture("unitdeep/helpers.py").findings == []

    def test_contract_drift_flagged(self, tmp_path):
        # a contracted field the real dataclass no longer defines
        module = tmp_path / "records.py"
        module.write_text(
            "import dataclasses\n\n\n"
            "@dataclasses.dataclass\n"
            "class WalletRecord:\n"
            "    user: str\n"
            "    hashes: float = 0.0\n"
            "    hashrate: float = 0.0\n"
            "    last_share: object = None\n"
            "    balance: float = 0.0\n"
            "    date_query: object = None\n"
            "    usd: float = 0.0\n")
        report = LintEngine().run(tmp_path)
        assert [(f.rule_id, f.path) for f in report.findings] == \
            [("SCHEMA003", "records.py")]
        assert "total_paid" in report.findings[0].message

    def test_seed_fingerprint_invalidates_summary_cache(
            self, tmp_path, monkeypatch):
        from repro.lint.cache import SummaryCache, cache_stamp
        from repro.lint.facts import summarize_module
        from repro.lint.symbols import build_module_info

        module = tmp_path / "mod.py"
        module.write_text("def f(record, row):\n"
                          "    row['usd'] = record.total_paid\n")
        stamp = cache_stamp(module)
        summary = summarize_module(
            build_module_info(module, tmp_path, with_pragmas=False))

        cache = SummaryCache(tmp_path / "cache.bin")
        cache.put("mod.py", stamp, summary)
        cache.save()
        assert SummaryCache(
            tmp_path / "cache.bin").get("mod.py", stamp) is not None

        # editing a seed table re-fingerprints and drops the cache,
        # even though the module file itself is untouched.
        import repro.lint.units as units
        patched = dict(units.SLOT_UNITS)
        patched["grand_total"] = "USD"
        monkeypatch.setattr(units, "SLOT_UNITS", patched)
        assert SummaryCache(
            tmp_path / "cache.bin").get("mod.py", stamp) is None


class TestDeadCode:
    def test_unreachable_function_flagged(self):
        report = lint_fixture("deadpkg/cli.py", "deadpkg/lib.py")
        assert found(report, "DEAD001") == [
            ("deadpkg/lib.py", line)
            for line in marked_lines("deadpkg/lib.py", "DEAD001")]

    def test_no_entrypoint_means_no_dead_code_pass(self):
        # without a cli/__main__ module the roots are unknowable
        assert lint_fixture("deadpkg/lib.py").findings == []


class TestGraphRender:
    def test_render_graph_and_contracts(self):
        from repro.lint.callgraph import render_contracts, render_graph
        index = build_project_index(FIXTURES)
        graph = render_graph(index)
        assert "taintdeep.grouping.build_campaign" in graph
        assert "-> taintdeep.helpers.relay_via_pool" in graph
        contracts = render_contracts(index)
        assert "schema_bad.make_flow" in contracts
        assert "produces" in contracts and "requires" in contracts


# -- pragma parsing and hygiene ---------------------------------------------


class TestPragmaParsing:
    def test_multi_rule_list(self):
        index = collect_pragmas(
            "x = now()  # reprolint: disable=DET001,CKEY001 — "
            "clock is logged only\n")
        (entry,) = index.entries
        assert entry.rules == ("DET001", "CKEY001")
        assert index.disabled(1, "DET001")
        assert index.disabled(1, "CKEY001")
        assert not index.disabled(1, "EXC001")

    def test_prose_never_becomes_a_rule(self):
        index = collect_pragmas(
            "y = 2  # reprolint: disable=DET001, see ticket 42\n")
        (entry,) = index.entries
        assert entry.rules == ("DET001",)

    def test_scopes_and_all_wildcard(self):
        index = collect_pragmas(
            "# reprolint: disable-file=all\n"
            "z = 3  # reprolint: disable=EXC001\n")
        assert [e.scope for e in index.entries] == \
            ["disable-file", "disable"]
        assert index.disabled(99, "DET001")  # file-wide wildcard

    def test_stale_pragma_warned_live_pragma_kept(self):
        report = lint_fixture("pragma_stale.py")
        assert found(report, "PRAGMA001") == [
            ("pragma_stale.py", line)
            for line in marked_lines("pragma_stale.py", "PRAGMA001")]
        # the live pragma still suppresses, and is not reported stale
        assert found(report, "EXC001") == []
        assert "EXC001" in {f.rule_id for f in report.suppressed}


# -- --changed focus --------------------------------------------------------


class TestFocusAndChanged:
    def test_focus_narrows_reporting_but_keeps_program(self):
        paths = [FIXTURES / "taintdeep/grouping.py",
                 FIXTURES / "taintdeep/helpers.py"]
        out_of_focus = LintEngine().run(
            FIXTURES, paths=paths, focus=["taintdeep/helpers.py"])
        assert out_of_focus.findings == []
        in_focus = LintEngine().run(
            FIXTURES, paths=paths, focus=["taintdeep/grouping.py"])
        assert [f.rule_id for f in in_focus.findings] == ["TAINT002"]

    def test_changed_files_outside_git(self, tmp_path):
        assert changed_files(tmp_path) is None

    def test_summary_cache_serves_unchanged_modules(self, tmp_path):
        paths = [FIXTURES / "taintdeep/grouping.py",
                 FIXTURES / "taintdeep/helpers.py"]
        cache = tmp_path / "reprolint-cache"
        focus = ["taintdeep/grouping.py"]
        cold = LintEngine(cache_path=cache).run(
            FIXTURES, paths=paths, focus=focus)
        assert cache.exists()
        warm = LintEngine(cache_path=cache).run(
            FIXTURES, paths=paths, focus=focus)
        assert [f.render() for f in warm.findings] == \
            [f.render() for f in cold.findings]
        assert [f.rule_id for f in warm.findings] == ["TAINT002"]

    def test_summary_cache_invalidates_on_edit(self, tmp_path):
        pkg = tmp_path / "taintdeep"
        pkg.mkdir()
        for name in ("grouping.py", "helpers.py"):
            pkg.joinpath(name).write_text(
                (FIXTURES / "taintdeep" / name).read_text())
        cache = tmp_path / "reprolint-cache"
        focus = ["taintdeep/grouping.py"]
        first = LintEngine(cache_path=cache).run(tmp_path, focus=focus)
        assert [f.rule_id for f in first.findings] == ["TAINT002"]
        # neutralise the out-of-focus helper; its cached facts must
        # not survive the edit (mtime/size stamp changes).
        helpers = pkg / "helpers.py"
        helpers.write_text(
            helpers.read_text().replace(
                "campaign.stock_tools", "campaign.first_seen"))
        second = LintEngine(cache_path=cache).run(tmp_path,
                                                  focus=focus)
        assert second.findings == []

    def test_summary_cache_invalidates_on_thread_spawn_edit(
            self, tmp_path):
        pkg = tmp_path / "scalepkg"
        pkg.mkdir()
        (pkg / "spawner.py").write_text(
            "import threading\n\n\n"
            "def start(bucket):\n"
            "    worker = threading.Thread(target=bucket.append)\n"
            "    worker.start()\n")
        (pkg / "driver.py").write_text(
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "from scalepkg.spawner import start\n\n\n"
            "def run(bucket):\n"
            "    start(bucket)\n"
            "    return ProcessPoolExecutor(max_workers=2)\n")
        cache = tmp_path / "reprolint-cache"
        focus = ["scalepkg/driver.py"]
        first = LintEngine(cache_path=cache).run(tmp_path, focus=focus)
        assert [f.rule_id for f in first.findings] == ["FORK001"]
        # joining the thread in the out-of-focus spawner must reach
        # the whole-program pass through the fact cache.
        spawner = pkg / "spawner.py"
        spawner.write_text(spawner.read_text() + "    worker.join()\n")
        second = LintEngine(cache_path=cache).run(tmp_path,
                                                  focus=focus)
        assert second.findings == []

    def test_changed_files_sees_working_tree_diff(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)
        (repo / "pkg" / "a.py").write_text("A = 1\n")
        (repo / "pkg" / "b.py").write_text("B = 2\n")

        def git(*argv):
            subprocess.run(
                ["git", "-c", "user.email=t@t", "-c", "user.name=t",
                 *argv], cwd=repo, check=True, capture_output=True)

        git("init", "-b", "main")
        git("add", ".")
        git("commit", "-m", "seed")
        (repo / "pkg" / "b.py").write_text("B = 3\n")
        assert changed_files(repo, base_refs=("main",)) == ["pkg/b.py"]
        assert changed_files(repo / "pkg",
                             base_refs=("main",)) == ["b.py"]


# -- SARIF serialization ----------------------------------------------------


class TestSarif:
    def test_findings_round_trip(self):
        import json

        from repro.lint.sarif import render_sarif, to_sarif

        report = lint_fixture("units_bad.py")
        doc = to_sarif(report)
        (run,) = doc["runs"]
        rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rules == sorted(set(rules))  # deduped, stable order
        assert set(rules) == {f.rule_id for f in report.findings}
        assert len(run["results"]) == len(report.findings)
        first = run["results"][0]
        loc = first["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "units_bad.py"
        assert loc["region"]["startLine"] == report.findings[0].line
        assert first["ruleId"] == rules[first["ruleIndex"]]
        # text form parses back to the same document
        assert json.loads(render_sarif(report)) == json.loads(
            json.dumps(doc, sort_keys=True))

# -- self-check -------------------------------------------------------------


class TestSelfCheck:
    def test_head_lints_clean(self, source_tree_lint):
        run = source_tree_lint
        assert run.report.parse_errors == []
        assert [f.render() for f in run.report.findings] == []

    def test_every_registered_rule_has_a_firing_fixture(self):
        report = LintEngine().run(FIXTURES)
        fired = {f.rule_id for f in report.findings} | \
                {f.rule_id for f in report.suppressed}
        assert fired == set(RULE_REGISTRY)

    def test_rule_registry_is_complete(self):
        families = {spec.family for spec in RULE_REGISTRY.values()}
        assert families == {"taint", "determinism",
                            "durability", "cache-keys",
                            "exception-hygiene", "schema",
                            "dead-code", "pragma-hygiene",
                            "concurrency", "resource-lifecycle",
                            "units"}
