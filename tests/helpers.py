"""Shared fixtures-in-code: the worked 7-edge example, random network
generation, and brute-force oracles kept independent of the library's
indexed implementations."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
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
from weightpred.ingest import Snapshot, _edge_columns

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


def brute_kernel(spec, u, v):
    """The kernel of ``spec`` on one pair of reals, from its formula."""
    if spec.kind == "linear":
        return u * v
    if spec.kind == "polynomial":
        return (u * v + spec.coef0) ** spec.degree
    return math.exp(-spec.gamma * (u - v) ** 2)


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
    from ``snapshot.columns``, and reads the same settings from
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
    c = snapshot.columns
    src, dst, weight = c.src.tolist(), c.dst.tolist(), c.weight.tolist()
    size = len(weight) if config.sample_size is None else config.sample_size
    if size > len(weight):
        raise DomainError(f"sample_size {size} exceeds the {len(weight)} records")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    sampled = rng.choice(len(weight), size=size, replace=False).tolist()
    edges = [(c.origins[src[i]], c.terminals[dst[i]]) for i in sampled]
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
    rescales each weight in Python floats, samples with ``rng.choice`` and
    lays the result out with ``json.dumps(..., sort_keys=True, indent=2)``.
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
    payload = {
        "format": "weightpred-snapshot-v1",
        "raw_weight_range": [float(lo), float(hi)],
        "origins": list(dict.fromkeys(e[0] for e in edges)),
        "terminals": list(dict.fromkeys(e[1] for e in edges)),
        "edges": edges,
        "provenance": {
            "source_path": Path(spec.path).name,
            "source_sha256": hashlib.sha256(Path(spec.path).read_bytes()).hexdigest(),
            "sampling": sampling,
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text, "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


# ---- snapshots of edge lists ---------------------------------------------------

SYNTHETIC_PROVENANCE = {"source_path": "synthetic", "source_sha256": "0" * 64,
                        "sampling": None}


def snapshot_of(edges, raw_weight_range=(-1.0, 1.0), provenance=SYNTHETIC_PROVENANCE):
    """The snapshot of ``edges``, ``(origin, terminal, weight)`` triples in
    order, made by the edge check of ``load_snapshot``: an edge that a
    snapshot file may not hold raises its ``ParseError``."""
    columns = _edge_columns([[o, t, w] for o, t, w in edges], "edges")
    return Snapshot(columns, tuple(raw_weight_range), provenance)


# ---- reference snapshot edge check ---------------------------------------------

# The characters str.splitlines breaks a line at.
LINE_BOUNDARIES = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


def reference_edge_fault(edges):
    """``(i, fault)`` for the first edge of a snapshot's ``edges`` list that
    ``load_snapshot`` documents as bad, with the fault its message names,
    or ``None``.

    Each edge is checked on its own, in the documented order: shape, empty
    token, padded token, token with a line boundary, token with a surrogate
    code point (not UTF-8 text), weight (a real number, not a bool, in
    [-1, 1]), repeated pair.
    """
    first_edge = {}
    for i, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 3 or {type(edge[0]), type(edge[1])} != {str}:
            return i, f"expected [origin, terminal, weight], got {edge!r}"
        origin, terminal, weight = edge
        if origin == "" or terminal == "":
            return i, "empty origin or terminal token"
        padded = [t for t in (origin, terminal) if t[0].isspace() or t[-1].isspace()]
        if padded:
            return i, f"token {padded[0]!r} has leading or trailing whitespace"
        broken = [t for t in (origin, terminal) if set(t) & set(LINE_BOUNDARIES)]
        if broken:
            return i, f"token {broken[0]!r} holds a line boundary"
        surrogate = [t for t in (origin, terminal) if any(0xD800 <= ord(c) <= 0xDFFF for c in t)]
        if surrogate:
            return i, f"token {surrogate[0]!r} is not UTF-8 text"
        real = isinstance(weight, numbers.Real) and not isinstance(weight, (bool, np.bool_))
        if not (real and -1 <= weight <= 1):
            return i, f"weight {weight!r} is not a number in [-1, 1]"
        if (origin, terminal) in first_edge:
            j = first_edge[(origin, terminal)]
            return i, f"repeats the (origin, terminal) pair of edge {j}"
        first_edge[(origin, terminal)] = i
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
