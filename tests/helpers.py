"""Shared fixtures-in-code: the worked 7-edge example, random network
generation, and brute-force oracles kept independent of the library's
indexed implementations."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from weightpred import (
    CountMetric,
    DomainError,
    KnnModel,
    WeightKind,
    Weighting,
    build_graph,
    compute_fairness_goodness,
    fit_points,
    mae,
    make_split,
    rmse,
    stable_mean,
)
from weightpred import svm
from weightpred.ingest import Snapshot, _snapshot_columns

# The 7-edge example network used throughout the golden tests.
FIG_EDGES = [
    ("a", "1"),
    ("a", "2"),
    ("b", "1"),
    ("b", "3"),
    ("c", "2"),
    ("c", "4"),
    ("d", "3"),
]

FIG_ORIGIN_WEIGHTS = {"b": 0.3, "c": 0.6}  # range [0, 1]
FIG_TERMINAL_WEIGHTS = {"2": -0.2, "4": 0.8}  # range [-1, 1]
FIG_EDGE_WEIGHTS = {
    ("b", "1"): 0.41,
    ("b", "3"): 0.22,
    ("c", "2"): -0.15,
    ("c", "4"): 0.11,
}  # range [-1, 1]


def fig_graph():
    return build_graph(FIG_EDGES)


def fig_weighting(kind: WeightKind) -> Weighting:
    if kind is WeightKind.ORIGIN:
        return Weighting(kind, FIG_ORIGIN_WEIGHTS, 0.0, 1.0)
    if kind is WeightKind.TERMINAL:
        return Weighting(kind, FIG_TERMINAL_WEIGHTS, -1.0, 1.0)
    return Weighting(kind, FIG_EDGE_WEIGHTS, -1.0, 1.0)


# ---- random instances ---------------------------------------------------------


def random_graph(rng: np.random.Generator, max_edges: int = 30):
    """Random digraph; token pools overlap so some vertices sit in O and T."""
    n_edges = int(rng.integers(1, max_edges + 1))
    n_tokens = int(rng.integers(2, max(3, max_edges // 2) + 1))
    tokens = [f"v{i}" for i in range(n_tokens)]
    pairs = set()
    edges = []
    for _ in range(n_edges):
        o = tokens[int(rng.integers(n_tokens))]
        t = tokens[int(rng.integers(n_tokens))]
        if (o, t) not in pairs:
            pairs.add((o, t))
            edges.append((o, t))
    if not edges:
        edges = [(tokens[0], tokens[-1])]
    return build_graph(edges)


def universe_of(graph, kind: WeightKind):
    if kind is WeightKind.ORIGIN:
        return list(graph.origins)
    if kind is WeightKind.TERMINAL:
        return list(graph.terminals)
    return list(graph.edges)


def random_weighting(
    rng: np.random.Generator,
    graph,
    kind: WeightKind,
    lo: float = -1.0,
    hi: float = 1.0,
    allow_empty: bool = False,
) -> Weighting:
    """Random training subset of the element universe with uniform weights."""
    universe = universe_of(graph, kind)
    min_size = 0 if allow_empty else min(1, len(universe))
    size = int(rng.integers(min_size, len(universe) + 1))
    idx = rng.choice(len(universe), size=size, replace=False)
    weights = {universe[i]: float(rng.uniform(lo, hi)) for i in sorted(idx)}
    return Weighting(kind, weights, lo, hi)


def random_instance(rng, max_edges=30, kind=None, allow_empty=False):
    """(graph, weighting, h) with h drawn from (0, 1]."""
    graph = random_graph(rng, max_edges)
    if kind is None:
        kind = [WeightKind.ORIGIN, WeightKind.TERMINAL, WeightKind.EDGE][
            int(rng.integers(3))
        ]
    weighting = random_weighting(rng, graph, kind, allow_empty=allow_empty)
    h = float(rng.uniform(0.0, 1.0)) or 1.0  # (0, 1]
    return graph, weighting, h


# ---- brute-force oracles (quadratic scans over the raw edge list) -------------


def _left_sum(values):
    """Floats added left to right, one rounding per addition, on every
    CPython (builtin ``sum()`` compensates rounding from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def brute_neighbors(graph, weighting, element, exclude_self=False):
    """Neighbor set by double loop over all edges; returns a set."""
    domain = set(weighting.weights)
    out = set()
    if weighting.kind is WeightKind.ORIGIN:
        for o1, t1 in graph.edges:
            if o1 != element:
                continue
            for o2, t2 in graph.edges:
                if t2 == t1 and o2 in domain:
                    out.add(o2)
    elif weighting.kind is WeightKind.TERMINAL:
        for o1, t1 in graph.edges:
            if t1 != element:
                continue
            for o2, t2 in graph.edges:
                if o2 == o1 and t2 in domain:
                    out.add(t2)
    else:
        for e in graph.edges:
            if e in domain and (e[0] == element[0] or e[1] == element[1]):
                out.add(e)
    if exclude_self:
        out.discard(element)
    return out


def brute_profile(graph, weighting, element, h, exclude_self=False):
    """(avg, band count) recomputed from scratch; avg uses the same
    summation contract as the library: sorted values, added left to right."""
    nbs = brute_neighbors(graph, weighting, element, exclude_self)
    ws = [weighting.weights[n] for n in nbs]
    if not ws:
        return None, 0
    avg = _left_sum(sorted(ws)) / len(ws)
    count = sum(1 for w in ws if abs(w - avg) <= h)
    return avg, count


def brute_knn(counts, query_count, training, k, zero_distance_policy="exclude"):
    """(element set, degenerate flag) from a full scan + sort."""
    dists = [(abs(counts[a] - query_count), a) for a in training]
    if zero_distance_policy == "exclude":
        qualifying = [(d, a) for d, a in dists if d > 0]
    else:
        qualifying = dists
    distinct = sorted({d for d, _ in qualifying})
    chosen = set(distinct[:k])
    elements = {a for d, a in qualifying if d in chosen}
    return elements, len(distinct) < k


def reference_count_classes(counts, weights):
    """The count-class table of training element ``i`` with band count
    ``counts[i]`` and weight ``weights[i]``, from a dict and Python sorts:
    ``(counts, classes, first, mean)``, the distinct counts ascending, each
    one's weights sorted (equal ones, 0.0 and -0.0 among them, in training
    order), the classes (as indices into ``counts``) in order of their
    first element, and the ``stable_mean`` of all the weights."""
    groups = {}
    for c, w in zip(counts, weights):
        groups.setdefault(int(c), []).append(float(w))
    ascending = sorted(groups)
    return (ascending, [sorted(groups[c]) for c in ascending],
            [ascending.index(c) for c in groups], stable_mean(list(weights)))


def brute_kernel(spec, u, v):
    """The kernel of ``spec`` on one pair of reals, from its formula."""
    if spec.kind == "linear":
        return u * v
    if spec.kind == "polynomial":
        return (u * v + spec.coef0) ** spec.degree
    return math.exp(-spec.gamma * (u - v) ** 2)


def reference_predict_raw(model, u):
    """``svm._predict_raw`` one kernel row at a time: the rows in the same
    blocks of at most m, each row its own ``(1, m) @ (m,)`` product, plus
    the intercept."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    u_m, coef = model._expansion
    raw = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(u), len(u_m)):
            rows = svm._kernel_matrix(model.kernel, u[a:a + len(u_m)], u_m)
            raw.extend((row[None] @ coef)[0] for row in rows)
        return model.intercept + np.array(raw, dtype=float)


def reference_ridge_beta(model, regularization):
    """The ridge solution ``(w0, w_1..w_m)`` of ``model``'s merged points
    and kernel, with the penalty spelled out as an ``np.eye`` matrix whose
    intercept entry is zero."""
    u_m, y_m = np.ascontiguousarray(np.array(model.points).T)  # as the fit holds them
    m = len(u_m)
    basis = svm._kernel_matrix(model.kernel, u_m, u_m) * y_m[None, :]
    design = np.hstack([np.ones((m, 1)), basis])
    penalty = np.eye(m + 1)
    penalty[0, 0] = 0.0
    return np.linalg.solve(design.T @ design + regularization * penalty, design.T @ y_m)


def brute_fairness_goodness(edges, weights, tol=1e-6, max_iter=100):
    """Direct dict-based iteration of the two averaging sweeps; each score
    is a left-to-right sum over the vertex's edges in edge order."""
    origins = {o for o, _ in edges}
    terminals = {t for _, t in edges}
    f = {o: 1.0 for o in origins}
    g = {t: 1.0 for t in terminals}
    for it in range(1, max_iter + 1):
        change = 0.0
        new_g = {}
        for t in terminals:
            ins = [(o2, t2) for o2, t2 in edges if t2 == t]
            val = _left_sum(f[o2] * weights[(o2, t2)] for o2, t2 in ins) / len(ins)
            change = max(change, abs(val - g[t]))
            new_g[t] = val
        g = new_g
        new_f = {}
        for o in origins:
            outs = [(o2, t2) for o2, t2 in edges if o2 == o]
            val = 1.0 - _left_sum(abs(weights[e] - g[e[1]]) / 2.0 for e in outs) / len(outs)
            change = max(change, abs(val - f[o]))
            new_f[o] = val
        f = new_f
        if change < tol:
            return f, g, it, True
    return f, g, max_iter, False


# ---- reference experiment ------------------------------------------------------


def reference_run(snapshot, config):
    """``run_experiment`` recomputed from the brute-force oracles above.

    It makes the generator calls the library documents (``rng.choice`` of
    the sampled edges, then ``rng.permutation`` of the sampled vertex list
    for a vertex task), takes each sampled edge's tokens and weight by id
    from ``snapshot.graph`` and ``snapshot.weight``, and reads the same settings from
    ``config``: train size, ``h`` (training std-dev, floored at 1e-12),
    fairness stopping rule and predictor settings.  Fairness scores, neighbor sets, band counts and
    kNN neighborhoods come from quadratic scans; the SVM is fitted with
    ``fit_points`` on (band count, weight) in training order and asked once
    per test element through ``svm.predict_embeddings``.

    Returns a dict: ``rows`` ((element, predicted, truth, flags) per test
    element), ``counts`` (element -> band count), ``train`` and ``test``
    (element lists), ``h``, ``h_stddev_zero``, ``tie_stats``, ``mae`` and
    ``rmse``.  Raises ``DomainError`` where the library's split must.
    """
    g = snapshot.graph
    src, dst, weight = g.src.tolist(), g.dst.tolist(), snapshot.weight.tolist()
    size = len(weight) if config.sample_size is None else config.sample_size
    if size > len(weight):
        raise DomainError(f"sample_size {size} exceeds the {len(weight)} records")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    sampled = rng.choice(len(weight), size=size, replace=False).tolist()
    edges = [(g.origins[src[i]], g.terminals[dst[i]]) for i in sampled]
    edge_weights = {e: weight[i] for e, i in zip(edges, sampled)}
    if config.task == "edge":
        universe, table, value_range = edges, edge_weights, (-1.0, 1.0)
    else:
        pos = 0 if config.task == "origin" else 1
        vertices = list(dict.fromkeys(e[pos] for e in edges))
        universe = [vertices[i] for i in rng.permutation(len(vertices))]
        f, g, _, _ = brute_fairness_goodness(
            edges, edge_weights, config.fg_tol, config.fg_max_iter
        )
        table, value_range = (f, (0.0, 1.0)) if pos == 0 else (g, (-1.0, 1.0))
    n_train = config.split_plan().resolve_train_size(len(universe))
    train, test = universe[:n_train], universe[n_train:]

    weights = {x: table[x] for x in train}
    std = float(np.std(list(weights.values())))
    h = config.h_value if config.h_mode == "fixed" else (std if std > 0.0 else 1e-12)
    graph = SimpleNamespace(edges=edges)
    weighting = SimpleNamespace(kind=WeightKind(config.task), weights=weights)
    counts = {
        x: brute_profile(graph, weighting, x, h, config.exclude_self)[1]
        for x in universe
    }

    rows = []
    if config.method == "knn":
        k = config.k
        for x in test:
            chosen, degenerate = brute_knn(
                counts, counts[x], train, k, config.zero_distance_policy
            )
            ws = sorted(weights[a] for a in chosen)
            if ws:
                denom = len(ws) if config.denominator_policy == "neighborhood_size" else k
                value = _left_sum(ws) / denom
            else:
                value = _left_sum(sorted(weights.values())) / len(weights)
            flags = ("fallback_mean",) * (not ws) + ("degenerate",) * degenerate
            rows.append((x, value, table[x], flags))
    else:
        model = fit_points(
            [(float(counts[a]), weights[a]) for a in train],
            config.svm_config(),
            value_range,
        )
        for x in test:
            p = svm.predict_embeddings(model, [float(counts[x])])
            rows.append((x, p.value.item(), table[x], ("clamped",) * p.clamped.item()))

    train_counts = Counter(counts[a] for a in train)
    preds, truths = [r[1] for r in rows], [r[2] for r in rows]
    return {
        "rows": rows,
        "counts": counts,
        "train": train,
        "test": test,
        "h": h,
        "h_stddev_zero": int(config.h_mode != "fixed" and std == 0.0),
        "tie_stats": {
            "distinct_train_counts": len(train_counts),
            "max_count_multiplicity": max(train_counts.values()),
        },
        "mae": mae(preds, truths),
        "rmse": rmse(preds, truths),
    }


def token_pipeline(snapshot, config):
    """One run through the public token-level API, one element at a time.

    The sequence ``perfbench/worker.py``'s traced mode runs: ``make_split``,
    ``build_graph`` on the sampled pairs, ``compute_fairness_goodness`` on
    an edge-weight dict (vertex tasks), ``CountMetric`` over a token
    ``Weighting``, then ``KnnModel.predict`` or ``svm.predict_weight_svm``
    per test element.  Returns ``(metric, truths, predictions)``, with
    ``truths`` as (element, weight) pairs in test order.
    """
    split = make_split(snapshot.edges, config.split_plan(), config.task)
    graph = build_graph([r.pair for r in split.sampled])
    if config.task == "edge":
        train_weights = {r.pair: r.weight for r in split.train}
        truths = [(r.pair, r.weight) for r in split.test]
        value_range = (-1.0, 1.0)
    else:
        scores = compute_fairness_goodness(
            graph,
            {r.pair: r.weight for r in split.sampled},
            tol=config.fg_tol,
            max_iter=config.fg_max_iter,
        )
        if config.task == "origin":
            table, value_range = scores.fairness, (0.0, 1.0)
        else:
            table, value_range = scores.goodness, (-1.0, 1.0)
        train_weights = {v: table[v] for v in split.train}
        truths = [(v, table[v]) for v in split.test]
    std = float(np.std(list(train_weights.values())))
    h = config.h_value if config.h_mode == "fixed" else (std if std > 0.0 else 1e-12)
    weighting = Weighting(WeightKind(config.task), train_weights, *value_range)
    metric = CountMetric(graph, weighting, h, exclude_self=config.exclude_self)
    train = list(train_weights)
    if config.method == "knn":
        model = KnnModel(metric, train, config.knn_config())
        preds = [model.predict(e) for e, _ in truths]
    else:
        model = svm.fit(metric, train, config.svm_config())
        preds = [svm.predict_weight_svm(model, metric, e) for e, _ in truths]
    return metric, truths, preds


# ---- reference ingest ---------------------------------------------------------


def _reference_lines(spec):
    """``(line number, fields)`` of each nonempty line of the raw edge list
    ``spec`` describes, numbered as ``str.splitlines`` numbers lines and
    split as the module documents."""
    text = Path(spec.path).read_bytes().decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        delimiter = spec.delimiter
        if delimiter is None:
            delimiter = "," if "," in line else " "
        if delimiter == " ":
            yield lineno, line.split()
        else:
            yield lineno, [f.strip() for f in line.split(delimiter)]


def reference_line_fault(spec):
    """``(line, fault)`` for the first line of the raw edge list ``spec``
    describes that ``parse_edge_list`` documents as bad, ``(None, "no edge
    records found")`` for a file without records, or ``None``.

    Each data line is checked on its own, in the documented order: field
    count, weight (a number, finite, inside the declared range), empty
    token, timestamp (a finite number).  The first data line is a header,
    and skipped, when it has the right field count and a weight field that
    is not a number.
    """
    lo, hi = spec.weight_range
    width = 4 if spec.has_timestamp else 3
    records = 0
    for n, (lineno, fields) in enumerate(_reference_lines(spec)):
        if len(fields) != width:
            return lineno, f"expected {width} fields, got {len(fields)}"
        try:
            weight = float(fields[2])
        except ValueError:
            if n == 0:
                continue
            return lineno, f"weight field {fields[2]!r} is not a number"
        if not math.isfinite(weight):
            return lineno, f"weight {fields[2]!r} is not finite"
        if weight < lo or weight > hi:
            return lineno, f"weight {weight!r} outside declared range [{lo}, {hi}]"
        if fields[0] == "" or fields[1] == "":
            return lineno, "empty origin or terminal token"
        if spec.has_timestamp:
            try:
                stamp = float(fields[3])
            except ValueError:
                return lineno, f"timestamp field {fields[3]!r} is not a number"
            if not math.isfinite(stamp):
                return lineno, f"timestamp {fields[3]!r} is not finite"
        records += 1
    return None if records else (None, "no edge records found")


def reference_ingest(spec, sample_size=None, seed=None):
    """``build_snapshot`` then ``save_snapshot``, recomputed one record at a time.

    Splits each line as the module documents, skips a header, collapses
    repeated pairs through a dict of record groups (latest timestamp wins,
    ties to the last record, else the ``stable_mean`` of the raw weights),
    rescales each weight in Python floats and samples with ``rng.choice``.
    The file is ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of
    :func:`snapshot_form`, and the digest :func:`reference_digest` of it.
    For well-formed files only.  Returns ``(text, digest)``: the snapshot
    file's text and the ``Snapshot.digest()`` it must have.
    """
    lo, hi = spec.weight_range
    rows = []
    for _, fields in _reference_lines(spec):
        try:
            weight = float(fields[2])
        except ValueError:
            assert not rows, "only the first data line may be a header"
            continue
        stamp = float(fields[3]) if spec.has_timestamp else None
        rows.append((fields[0], fields[1], weight, stamp))

    groups: dict = {}
    for row in rows:
        groups.setdefault(row[:2], []).append(row)
    edges = []
    for (o, t), group in groups.items():
        if len(group) == 1:
            weight = group[0][2]
        elif all(r[3] is not None for r in group):
            weight = max(reversed(group), key=lambda r: r[3])[2]
        else:
            weight = stable_mean([r[2] for r in group])
        scaled = min(max((2.0 * weight - (lo + hi)) / (hi - lo), -1.0), 1.0)
        edges.append([o, t, scaled])

    sampling = None
    if sample_size is not None:
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = sorted(rng.choice(len(edges), size=sample_size, replace=False).tolist())
        edges = [edges[i] for i in rows]
        sampling = {"seed": seed, "sample_size": sample_size, "prng": "numpy-pcg64"}
    provenance = {
        "source_path": Path(spec.path).name,
        "source_sha256": hashlib.sha256(Path(spec.path).read_bytes()).hexdigest(),
        "sampling": sampling,
    }
    payload = snapshot_form(edges, [float(lo), float(hi)], provenance)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    return text, reference_digest(payload)


# ---- snapshot files and their forms --------------------------------------------

SYNTHETIC_PROVENANCE = {"source_path": "synthetic", "source_sha256": "0" * 64,
                        "sampling": None}


# The snapshot file's arrays and the struct code of an entry: base64 text of
# little-endian uint32 ids and float64 weights.
ARRAY_CODES = {"src": "I", "dst": "I", "weight": "d"}


def packed(values, code):
    """``values`` as base64 text of their little-endian ``code`` entries."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def unpacked(text, code):
    """The little-endian ``code`` entries of base64 ``text``, as a list."""
    return [v for (v,) in struct.iter_unpack("<" + code, base64.b64decode(text, validate=True))]


def decoded(payload):
    """A copy of ``payload``, a snapshot file's document, with its ``src``,
    ``dst`` and ``weight`` decoded into lists."""
    return {**payload, **{key: unpacked(payload[key], c) for key, c in ARRAY_CODES.items()}}


def encoded(form):
    """The snapshot file's document of ``form``: :func:`decoded`'s inverse."""
    return {**form, **{key: packed(form[key], c) for key, c in ARRAY_CODES.items()}}


def snapshot_form(edges, raw_weight_range=(-1.0, 1.0), provenance=SYNTHETIC_PROVENANCE):
    """The JSON document of a snapshot file that holds ``edges``,
    ``(origin, terminal, weight)`` triples in order.  The vertex lists are
    the edges' first-appearance tables, built by ``dict.fromkeys``, and
    ``src`` and ``dst`` each edge's positions in them."""
    edges = list(edges)
    origins = list(dict.fromkeys(e[0] for e in edges))
    terminals = list(dict.fromkeys(e[1] for e in edges))
    origin_at = {o: k for k, o in enumerate(origins)}
    terminal_at = {t: k for k, t in enumerate(terminals)}
    return encoded({
        "format": "weightpred-snapshot-v3",
        "raw_weight_range": list(raw_weight_range),
        "origins": origins,
        "terminals": terminals,
        "src": [origin_at[e[0]] for e in edges],
        "dst": [terminal_at[e[1]] for e in edges],
        "weight": [e[2] for e in edges],
        "provenance": provenance,
    })


def reference_digest(payload):
    """The ``Snapshot.digest()`` of ``payload``, a snapshot file's JSON
    document, with ``hashlib``, ``base64`` and ``json`` alone: the SHA-256
    of the compact, key-sorted ``json.dumps`` of its vertex lists,
    provenance and raw weight range under the format
    ``weightpred-digest-v2`` (a non-finite number spelled as ``json.dumps``
    spells it), a line break, then the bytes that ``src``, ``dst`` and
    ``weight`` decode to, in that order."""
    header = {key: payload[key] for key in ("origins", "terminals", "provenance",
                                            "raw_weight_range")}
    header["format"] = "weightpred-digest-v2"
    data = [json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"]
    data += [base64.b64decode(payload[key], validate=True) for key in ("src", "dst", "weight")]
    return "sha256:" + hashlib.sha256(b"".join(data)).hexdigest()


def v1_form(payload):
    """The v1 form of ``payload``, a snapshot file's JSON document: the
    same members, but the edges as ``[origin, terminal, weight]`` rows and
    the format ``weightpred-snapshot-v1``.  Before 0.8.0 a snapshot's
    digest was the SHA-256 of this form's compact, key-sorted
    ``json.dumps``."""
    origins, terminals = payload["origins"], payload["terminals"]
    columns = decoded(payload)
    return {
        "format": "weightpred-snapshot-v1",
        "raw_weight_range": payload["raw_weight_range"],
        "origins": origins,
        "terminals": terminals,
        "edges": [[origins[s], terminals[d], w]
                  for s, d, w in zip(columns["src"], columns["dst"], columns["weight"])],
        "provenance": payload["provenance"],
    }


def snapshot_of(edges, raw_weight_range=(-1.0, 1.0), provenance=SYNTHETIC_PROVENANCE):
    """The snapshot of ``edges``, ``(origin, terminal, weight)`` triples in
    order, made by the check of ``load_snapshot`` on :func:`snapshot_form`:
    edges that a snapshot file may not hold raise its ``ParseError``."""
    payload = snapshot_form(edges, raw_weight_range, provenance)
    return Snapshot(*_snapshot_columns(payload, "edges"), tuple(raw_weight_range), provenance)


# ---- reference snapshot check ---------------------------------------------------

# The characters str.splitlines breaks a line at.
LINE_BOUNDARIES = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


def reference_snapshot_fault(payload):
    """The fault ``load_snapshot`` names, after the file's path, for the
    edges and vertex lists of ``payload``, a snapshot file's JSON document
    of the right format, keys and weight range; or ``None``.

    One entry at a time, in the documented order.  ``src``, ``dst`` and
    ``weight``, in that order, are base64 text that the stdlib decodes to a
    whole number of entries (4-byte ids, 8-byte weights); the three have
    one length, above 0.  Then per edge: its ``src`` and ``dst`` index
    ``origins`` and ``terminals``, and each is an id already seen in its
    list or the next new one; its weight is in [-1, 1]; its id pair is new.
    Then per entry of ``origins``, then of ``terminals``: a string that is
    nonempty, not padded with whitespace, without a line boundary, without
    a surrogate code point (not UTF-8 text), not an earlier entry again,
    and at the position of some edge's id.
    """
    columns = []
    for key, code in ARRAY_CODES.items():
        size = struct.calcsize("<" + code)
        try:
            data = base64.b64decode(payload[key], validate=True)
        except ValueError:
            data = None
        if data is None or len(data) % size:
            return f"{key} is not base64 text of {size}-byte entries"
        columns.append([v for (v,) in struct.iter_unpack("<" + code, data)])
    src, dst, weight = columns
    if not len(src) == len(dst) == len(weight):
        return f"src, dst and weight differ in length: {len(src)}, {len(dst)} and {len(weight)}"
    if not src:
        return "snapshot has no edges"
    lists = {"src": payload["origins"], "dst": payload["terminals"]}
    seen = {"src": [], "dst": []}  # the ids named so far, in order
    first_edge = {}
    for i in range(len(src)):
        for column, ids in (("src", src), ("dst", dst)):
            v, n = ids[i], len(lists[column])
            if not 0 <= v < n:
                return f"edge {i}: {column} {v} is not an id in [0, {n})"
            if v not in seen[column]:
                if v != len(seen[column]):
                    return (f"edge {i}: {column} {v} breaks first-appearance order "
                            f"(the next new id is {len(seen[column])})")
                seen[column].append(v)
        w = weight[i]
        if not -1 <= w <= 1:
            return f"edge {i}: weight {w!r} is not a number in [-1, 1]"
        pair = (src[i], dst[i])
        if pair in first_edge:
            return f"edge {i}: repeats the (origin, terminal) pair of edge {first_edge[pair]}"
        first_edge[pair] = i
    for name, column in (("origins", "src"), ("terminals", "dst")):
        before = []
        for j, token in enumerate(payload[name]):
            if not isinstance(token, str):
                fault = f"expected a token string, got {token!r}"
            elif token == "":
                fault = "empty token"
            elif token[0].isspace() or token[-1].isspace():
                fault = f"token {token!r} has leading or trailing whitespace"
            elif set(token) & set(LINE_BOUNDARIES):
                fault = f"token {token!r} holds a line boundary"
            elif any(0xD800 <= ord(c) <= 0xDFFF for c in token):
                fault = f"token {token!r} is not UTF-8 text"
            elif token in before:
                fault = f"repeats entry {before.index(token)}"
            elif j >= len(seen[column]):
                fault = f"{token!r} appears in no edge"
            else:
                fault = None
            if fault:
                return f"{name} entry {j}: {fault}"
            before.append(token)
    return None


# ---- synthetic raw datasets ----------------------------------------------------


def write_rating_file(path, n_edges, seed=0, n_origins=None, n_terminals=None):
    """Bitcoin-OTC-style file: integer ratings in [-10, 10], ~90% positive,
    increasing timestamps, no duplicate (origin, terminal) pairs."""
    rng = np.random.default_rng(seed)
    n_origins = n_origins or max(4, n_edges // 3)
    n_terminals = n_terminals or max(4, n_edges // 3)
    quality = rng.uniform(-1.0, 1.0, size=n_terminals)
    lines = []
    pairs = set()
    ts = 1_289_000_000
    while len(lines) < n_edges:
        o = int(rng.integers(n_origins))
        t = int(rng.integers(n_terminals))
        if (o, t) in pairs:
            continue
        pairs.add((o, t))
        base = 3.0 + 5.0 * quality[t] + rng.normal(0.0, 2.0)
        rating = int(np.clip(round(base), -10, 10))
        if rating == 0:
            rating = 1
        ts += int(rng.integers(1, 1000))
        lines.append(f"o{o},t{t},{rating},{ts}")
    path.write_text("\n".join(lines) + "\n")
    return path
