import os
from pathlib import Path

import pytest
from hypothesis import settings

import weightpred
from weightpred import WeightKind

from helpers import fig_graph, fig_weighting

# A deeper and reproducible property check, chosen with
# ``--hypothesis-profile ci``: ten times the default number of examples.
settings.register_profile("ci", max_examples=1000, derandomize=True)


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Let ``python -m weightpred.cli`` children import the package found
    here, also when only pytest's ``pythonpath`` setting put it on the path."""
    paths = [str(Path(weightpred.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture
def fig1():
    return fig_graph()


@pytest.fixture
def origin_weights():
    return fig_weighting(WeightKind.ORIGIN)


@pytest.fixture
def terminal_weights():
    return fig_weighting(WeightKind.TERMINAL)


@pytest.fixture
def edge_weights():
    return fig_weighting(WeightKind.EDGE)
