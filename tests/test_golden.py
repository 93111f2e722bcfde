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
CHANGES.md entry saying why.  The 12 report and 12 prediction pins moved in
0.8.0 with the snapshot digest they cite (``weightpred-digest-v2``, which
hashes the id and weight arrays); each new output, with that digest's text
swapped back to the digest of 0.7.0 and before (the SHA-256 of the compact,
key-sorted ``json.dumps`` of ``helpers.v1_form``), hashes to its old pin.
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
    (1000, "origin", "knn"): "61e8bea9292a8485169bcc55dd0135993bf4e02736f6c8b462668de3f86bea02",
    (1000, "origin", "svm"): "127463bfef3fcedd118e212066b159d3c2f6afb9ec9e4fdeafe6f57ef0901abc",
    (1000, "terminal", "knn"): "21a997cd97ec316db216beb56da8dd3f5c1bba2e6acfd75032d95362db77c56f",
    (1000, "terminal", "svm"): "bd519239a317b9d23289f13a3974f593a62577d722e408e334a10c27dc4ca36d",
    (1000, "edge", "knn"): "73bb89bc8779557225241b5549dd5635f1fbf5319dd8b5c726a3e1d5c32bcf43",
    (1000, "edge", "svm"): "e61dcf5cdf71d1baeec14d0e8710d779a1cf6ab5bd2195eceff0a0c8f9ac7cad",
    (None, "origin", "knn"): "db8959f9b25c11cf1f8f5396a9effdba683fbf20e1ff19584f0efd218851c88a",
    (None, "origin", "svm"): "ff51ec6b7a8abe2356cbe0e2ead376c1980b826e5dcba9f3c86babb3d335526b",
    (None, "terminal", "knn"): "9fec23a8865e9c9ea645f49640ecdb91bbed7794dc030212a14b19fe695e093a",
    (None, "terminal", "svm"): "a8ffbbdbcefa4beab592ac16044832650a542fe2fc843731e7ef1bc255138dd9",
    (None, "edge", "knn"): "c2c7b624d587ce229fcea9b2629503de6368e9e7c95ab3698b0ef3b27415a78f",
    (None, "edge", "svm"): "2736694e616b5e8456ecfc346d4e8d83307cfb4c3b29c35ffd1c850acbe2287e",
}

GOLDEN_PREDICTIONS = {
    (1000, "origin", "knn"): "d4cba751727dec91ed7bf34d02893307cda96742ab85829e99cd41cd4c717540",
    (1000, "origin", "svm"): "9af871285ccbde3699f1c5fc3f6ad8a54c88f5c5d325d2b6d32343185ffd05e8",
    (1000, "terminal", "knn"): "9be9de360b8648a87ef1196a2dd45eb9bfb93622ed5babe4123dcec941c54428",
    (1000, "terminal", "svm"): "c54eedf917de51ae049a4286b12e3837e2f0db3f36e2eb4b6724b9ec9b573b62",
    (1000, "edge", "knn"): "fd371c44dac3893bb08e34f413e7a6258fce2ba3ba351b65829bbe1cc9740f88",
    (1000, "edge", "svm"): "362f4656b63d9b38f50881230cf32dd50ae661703daee18b2c9c24c167c40d6e",
    (None, "origin", "knn"): "c163518bb7dabf9d52b594d7614e60d30e9633facf423ae083ecdd90dd96f013",
    (None, "origin", "svm"): "9c7d5368d5d142e638e7711f11e07286884a3e1323a9fd597855590acc188871",
    (None, "terminal", "knn"): "f3e3ccbd2f80be4b7d7ccff4cefbb589faaad2afbf19ffad0e43981077fd253d",
    (None, "terminal", "svm"): "c4d1f486392e0581a1ef6c2a287430b0a05f604cf3aa5ca5c1d37adb10628de7",
    (None, "edge", "knn"): "a8bcc85587cc221bbe002ee35ae536b7e3c9bef98cbf5df893bb68fcf3e96350",
    (None, "edge", "svm"): "e97a4bc9f4515a9d11962ff11ea3257bf58faed51a3a38ecd9f64ef91a472baa",
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
