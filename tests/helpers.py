"""Shared fixtures-in-code: the worked 7-edge example, random network
generation, and brute-force oracles kept independent of the library's
indexed implementations."""

from __future__ import annotations

import numpy as np

from weightpred import WeightKind, Weighting, build_graph

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
    total = 0.0
    for w in sorted(ws):
        total += w
    avg = total / len(ws)
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


def brute_fairness_goodness(edges, weights, tol=1e-6, max_iter=100):
    """Direct dict-based iteration of the two averaging sweeps."""
    origins = {o for o, _ in edges}
    terminals = {t for _, t in edges}
    f = {o: 1.0 for o in origins}
    g = {t: 1.0 for t in terminals}
    for it in range(1, max_iter + 1):
        change = 0.0
        new_g = {}
        for t in terminals:
            ins = [(o2, t2) for o2, t2 in edges if t2 == t]
            val = sum(f[o2] * weights[(o2, t2)] for o2, t2 in ins) / len(ins)
            change = max(change, abs(val - g[t]))
            new_g[t] = val
        g = new_g
        new_f = {}
        for o in origins:
            outs = [(o2, t2) for o2, t2 in edges if o2 == o]
            val = 1.0 - sum(abs(weights[e] - g[e[1]]) / 2.0 for e in outs) / len(outs)
            change = max(change, abs(val - f[o]))
            new_f[o] = val
        f = new_f
        if change < tol:
            return f, g, it, True
    return f, g, max_iter, False


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
