"""Shared fixtures.

The synthetic world, the pipeline run and the full-tree lint are
expensive (seconds), so they are session-scoped: every integration
test shares one deterministic world (seed 1, scale 0.01), one
measurement result and one reprolint run over the source tree.
"""

import pytest

from repro.common.rng import DeterministicRNG
from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.lint import lint_source_tree


@pytest.fixture
def rng():
    return DeterministicRNG(1234)


@pytest.fixture(scope="session")
def small_world():
    return generate_world(ScenarioConfig(seed=1, scale=0.01))


@pytest.fixture(scope="session")
def pipeline_result(small_world):
    return MeasurementPipeline(small_world).run()


@pytest.fixture(scope="session")
def stock_catalog(small_world):
    return small_world.stock_catalog


@pytest.fixture(scope="session")
def source_tree_lint():
    """One ``lint_source_tree()`` run over the real tree (read-only)."""
    return lint_source_tree()
