"""The tracer rebinds by-name imports, records nesting, and undoes it."""

import sys
import textwrap

import pytest

from trace import Target, Tracer, layer_value, summarize


@pytest.fixture()
def fake_layer(tmp_path, monkeypatch):
    """A package whose function two other modules import by name."""
    package = tmp_path / "fakelayer"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(textwrap.dedent("""
        import time

        def work(n):
            time.sleep(0.01)
            return list(range(n))

        class Engine:
            def run(self, n):
                return work(n)
        """))
    for user in ("user_a", "user_b"):
        (package / f"{user}.py").write_text(textwrap.dedent("""
            from fakelayer.core import work

            def call(n):
                return work(n)
            """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakelayer.core
    import fakelayer.user_a
    import fakelayer.user_b
    yield fakelayer
    for name in [m for m in sys.modules if m.startswith("fakelayer")]:
        del sys.modules[name]


def _targets():
    return (Target("fake.work", "fakelayer.core", "work",
                   outcome=lambda args, result: {"items": len(result)}),
            Target("fake.engine", "fakelayer.core", "Engine.run"))


def test_rebinds_a_function_imported_by_name_in_two_modules(fake_layer):
    original = fake_layer.core.work
    tracer = Tracer(run_id="t", targets=_targets()).install()
    try:
        assert fake_layer.user_a.work is fake_layer.core.work
        assert fake_layer.user_b.work is fake_layer.core.work
        assert fake_layer.user_a.work is not original
        assert fake_layer.user_a.call(3) == [0, 1, 2]
        assert fake_layer.user_b.call(2) == [0, 1]
        assert fake_layer.core.Engine().run(1) == [0]
    finally:
        tracer.uninstall()
    assert fake_layer.user_a.work is original
    assert fake_layer.user_b.work is original
    assert fake_layer.core.work is original
    assert "run" in vars(fake_layer.core.Engine)

    layers = summarize(tracer.records())
    assert layers["fake.work"]["calls"] == 3
    assert layers["fake.work"]["items"] == 6
    assert layers["fake.engine"]["calls"] == 1
    # the engine's only child is one `work` call: its self time is the
    # small remainder, and the child's time is not counted twice
    engine = layers["fake.engine"]
    assert engine["self_s"] < engine["total_s"] - 0.009
    assert layer_value("fake.work.calls", layers) == 3
    assert layer_value("fake.work_s", layers) >= 0.03
    assert layer_value("fake.engine.self_s", layers) == engine["self_s"]
    assert layer_value("fake.idle.calls", layers) == 0


def test_dump_and_load_round_trip(fake_layer, tmp_path):
    from trace import load
    with Tracer(run_id="r", targets=_targets()) as tracer:
        fake_layer.user_a.call(1)
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    records = load(path)
    spans = [r for r in records if "name" in r]
    assert [s["name"] for s in spans] == ["fake.work"]
    assert spans[0]["parent"] == -1 and spans[0]["run"] == "r"
    assert summarize(records) == summarize(tracer.records())
