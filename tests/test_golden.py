"""Golden report digests: the six task x method reports at two scales.

Pins the SHA-256 of every ``EvaluationReport.to_json()`` for a generated
1,500-edge rating file (``helpers.write_rating_file``, seed 2009), once on a
seeded 1,000-edge sample and once on every edge.  The input passes through
``build_snapshot`` -> ``save_snapshot`` -> ``load_snapshot`` first, from a
fixed relative path, because the snapshot's ``provenance.source_path``
feeds the ``snapshot_digest`` echoed in every report.

Pinned on CPython 3.11.7 with numpy 2.4.6.  A refactor must keep all twelve
digests; any change that alters one needs a CHANGES.md entry saying why.
"""

import hashlib
from pathlib import Path

import pytest

from weightpred import (
    DatasetSpec,
    ExperimentConfig,
    build_snapshot,
    load_snapshot,
    run_experiment,
    save_snapshot,
)

from helpers import write_rating_file

GOLDEN = {
    (1000, "origin", "knn"): "5bf0f86dbb58677b984ff3f96282425791d39d77eafdf385eeb7d5bc2c483cbb",
    (1000, "origin", "svm"): "1a861be7631ab49d4ea5fddd0e9a4054791fdc105ec469f5be133724a4e505cd",
    (1000, "terminal", "knn"): "b825e76a68c95cf95f55fedbbfb72312b5dae13a045d1c28799c49f8d98f8f02",
    (1000, "terminal", "svm"): "5fdb3172927e11dbbde0df8cb9a93893058d5dd1e2afdbcbfa6248a9d3b7bf4d",
    (1000, "edge", "knn"): "fbcf8460be38e44440ebc3e2a774599e635c5f6d2e1557ca61d58293e1aa7d20",
    (1000, "edge", "svm"): "c777b492780d10d4cbee739f467fed2a7600a5310ddb7ca28ef2f61d90a4106d",
    (None, "origin", "knn"): "8c70a1fb7b3383bcc354045a621a55b55c5030161499e4a8ced9147e388732cd",
    (None, "origin", "svm"): "a4763147091e0a4fafa7a4d6551fed7fcd4727b4aa642003edddd835052d88eb",
    (None, "terminal", "knn"): "5b3fc42e8355dd51c303d8d9395dfc6be7feec067fa927555d960a0b1b237e6c",
    (None, "terminal", "svm"): "7d20ba152f80e0d98cc13a630ff039aac28561e6886b083e154175d4b55f0724",
    (None, "edge", "knn"): "26491d04c88e5a253b0b4c6e5175b4972cf71cff559ae52470910eda8eda707c",
    (None, "edge", "svm"): "0eed1564cbb18cea036172b745fe74f744b5629dc711c8cb0ba10ff0646a415f",
}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        write_rating_file(Path("ratings.csv"), n_edges=1500, seed=2009)
        spec = DatasetSpec("ratings.csv", (-10.0, 10.0), has_timestamp=True)
        save_snapshot(build_snapshot(spec), "snap.json")
        return load_snapshot("snap.json")


@pytest.mark.parametrize("sample_size,task,method", list(GOLDEN))
def test_report_digest(snapshot, sample_size, task, method):
    config = ExperimentConfig(task=task, method=method, sample_size=sample_size)
    report = run_experiment(snapshot, config).report
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == GOLDEN[(sample_size, task, method)]
