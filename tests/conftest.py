import os
from pathlib import Path

import pytest

import weightpred
from weightpred import WeightKind

from helpers import fig_graph, fig_weighting


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
