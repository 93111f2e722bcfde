"""Golden digests: the six task x method reports and prediction files at two scales.

Pins the SHA-256 of every ``EvaluationReport.to_json()``, and of every
``write_predictions`` file (each row's value and flags), for a generated
1,500-edge rating file (``helpers.write_rating_file``, seed 2009), once on a
seeded 1,000-edge sample and once on every edge.  Also pins the exact bits
of ``compute_fairness_goodness`` on the graph of every edge, at the default
stopping rule and cut off after two sweeps.  The input passes through
``build_snapshot`` -> ``save_snapshot`` -> ``load_snapshot`` first, from a
fixed relative path, because the snapshot's ``provenance.source_path``
feeds the ``snapshot_digest`` echoed in every report.  The bytes of that
snapshot file, and of one sampled at ingest, are pinned too, and so are
both files rendered in the v1 layout of the versions before 0.5.0.

Pinned on CPython 3.11.7 with numpy 2.4.6.  A refactor must keep all
twenty-six digests and the four file pins; any change that alters one needs a
CHANGES.md entry saying why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from weightpred import (
    DatasetSpec,
    ExperimentConfig,
    build_graph,
    build_snapshot,
    compute_fairness_goodness,
    load_snapshot,
    run_experiment,
    save_snapshot,
)
from weightpred.evaluation import write_predictions

from helpers import v1_form, write_rating_file

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

GOLDEN_PREDICTIONS = {
    (1000, "origin", "knn"): "d242c09372a9b2ad5534cb7e5c67f5f4b3d274c3fe76c465df03dc65c3233f1b",
    (1000, "origin", "svm"): "6f9d7b71937aec7abefb417d8d676a5df94fe5db28f4c5c02a30b0fd2df1d776",
    (1000, "terminal", "knn"): "050fddfa3572fedc5f7ab91287a1b66f1fb9fcfcb509232f236df61bb943756b",
    (1000, "terminal", "svm"): "2febc8b1996a5226b9af7210fe038d012bd86508286b14acdc37d3dc97702a55",
    (1000, "edge", "knn"): "8c4ebd93e0aa0853ec16a6e2098d543774b0a4d78b3f7e2981852b8c8d938cfe",
    (1000, "edge", "svm"): "6e9f26ace886b4ae53e7bf5c76352be8707bfdec23fa2194db6c2a25342b7cb6",
    (None, "origin", "knn"): "988bc494db3359323d8705c8b18ef8673f91be8b808550a96f8f71444ba733f6",
    (None, "origin", "svm"): "87f366107576036ae629d8c5e55980943beb9144b0f1ded0749991d64c1f3bbb",
    (None, "terminal", "knn"): "e02ef50fcdff07908a65c7eb85e0f9c673b38689ec43b4eda64e03600e218773",
    (None, "terminal", "svm"): "604e1b2143689937c64262f7d10e5dba74f4d692f512752b1e290e5dbb0acec6",
    (None, "edge", "knn"): "a268ee0d5b39efaa2024d71c46e1030565c67be6d358a4a9dc163ad02b8e22da",
    (None, "edge", "svm"): "2437c22420beddb608fac55e4610d2c5d1653057032c3b63ab429a0bf4b4fd39",
}

# max_iter -> digest of the compute_fairness_goodness output bits.  The
# default stopping rule (None) converges after 10 sweeps; 2 stops unconverged.
GOLDEN_FAIRNESS = {
    None: "e7cc9171c819c72d44143f8a1e7648fd3a16c7313ad247bff59400f47715b26c",
    2: "0d57bf35a73b8c9d2428066513777545f41e3ebf1d1d7d20b62d8a8c5489f498",
}

# SHA-256 of the snapshot files: every edge, and ``build_snapshot(spec,
# sample_size=700, seed=3)``.  Since 0.7.0 the files hold ``src``, ``dst``
# and ``weight`` as base64 text; the v1 pins below show the same contents.
GOLDEN_SNAPSHOT_FILES = {
    "snap.json": "79c7ce000155dd1be092394db8f74f4f964febe465b6b1ab295b851d23c49edc",
    "sampled.json": "99b93a39a865056375bde644ca26f83feb12eb151a331b98d93f9fe160698b78",
}

# SHA-256 of the same files rendered in the v1 layout, whose edges are
# ``[origin, terminal, weight]`` rows: the pins of the files that versions
# before 0.5.0 wrote.  Equal hashes show that only the layout moved.
GOLDEN_SNAPSHOT_V1_FILES = {
    "snap.json": "a582ad1967ce27348271b33c06afa94fac38853ef61b0054f5d0df546031f807",
    "sampled.json": "f2d9a74d7ee88d6db4a8c512826fb53355a7e3e0d60eb3d19a6a04fca87e4ec6",
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        write_rating_file(Path("ratings.csv"), n_edges=1500, seed=2009)
        spec = DatasetSpec("ratings.csv", (-10.0, 10.0), has_timestamp=True)
        save_snapshot(build_snapshot(spec), "snap.json")
        save_snapshot(build_snapshot(spec, sample_size=700, seed=3), "sampled.json")
    return root


@pytest.fixture(scope="module")
def snapshot(golden_dir):
    return load_snapshot(golden_dir / "snap.json")


@pytest.mark.parametrize("name", list(GOLDEN_SNAPSHOT_FILES))
def test_snapshot_file_digest(golden_dir, name):
    digest = hashlib.sha256((golden_dir / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SNAPSHOT_FILES[name]


@pytest.mark.parametrize("name", list(GOLDEN_SNAPSHOT_V1_FILES))
def test_snapshot_file_in_the_v1_layout_keeps_its_pin(golden_dir, name):
    with open(golden_dir / name, encoding="utf-8") as f:
        text = json.dumps(v1_form(json.load(f)), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SNAPSHOT_V1_FILES[name]


@pytest.mark.parametrize("sample_size,task,method", list(GOLDEN))
def test_report_digest(snapshot, sample_size, task, method):
    config = ExperimentConfig(task=task, method=method, sample_size=sample_size)
    report = run_experiment(snapshot, config).report
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == GOLDEN[(sample_size, task, method)]


@pytest.mark.parametrize("sample_size,task,method", list(GOLDEN_PREDICTIONS))
def test_predictions_digest(snapshot, tmp_path, sample_size, task, method):
    config = ExperimentConfig(task=task, method=method, sample_size=sample_size)
    path = tmp_path / "predictions.csv"
    write_predictions(path, run_experiment(snapshot, config))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_PREDICTIONS[(sample_size, task, method)]


@pytest.mark.parametrize("max_iter", list(GOLDEN_FAIRNESS))
def test_fairness_digest(snapshot, max_iter):
    graph = build_graph([r.pair for r in snapshot.edges])
    kwargs = {} if max_iter is None else {"max_iter": max_iter}
    scores = compute_fairness_goodness(
        graph, {r.pair: r.weight for r in snapshot.edges}, **kwargs
    )
    lines = [f"{key}={value.hex()}"
             for table in (scores.fairness, scores.goodness)
             for key, value in table.items()]
    lines += [f"iterations={scores.iterations}", f"converged={scores.converged}"]
    lines += [change.hex() for change in scores.max_changes]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_FAIRNESS[max_iter]
