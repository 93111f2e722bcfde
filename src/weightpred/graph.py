"""Immutable directed-graph snapshot with partial weight assignments.

A network is a set of origins O, a set of terminals T, and directed edges
(o, t).  The same token may appear in both O and T; the two occurrences are
distinct elements (all queries are role-specific, so no merging ever
happens).  Weights are known only on a training subset of one element kind:
a subset of origins, a subset of terminals, or a subset of edges.

Neighbor relations (all relative to the training subset):

* an origin's neighbors are the training origins that share at least one
  terminal with it;
* a terminal's neighbors are the training terminals that share at least one
  origin with it;
* an edge's neighbors are the training edges that share its origin or its
  terminal.

Under the literal definitions a training element with at least one incident
edge is always its own neighbor; pass ``exclude_self=True`` to drop that
self-pairing for sensitivity checks.

Every collection in this module iterates in a deterministic order derived
from edge insertion order, so downstream floating-point reductions are
reproducible across processes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import math

import numpy as np

from .errors import DomainError


class WeightKind(str, Enum):
    """Which element kind a partial weighting assigns weights to."""

    ORIGIN = "origin"
    TERMINAL = "terminal"
    EDGE = "edge"


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Directed graph held as integer arrays, with token views on demand.

    Edge ``i`` runs from ``origins[src[i]]`` to ``terminals[dst[i]]``;
    ``src`` and ``dst`` are read-only arrays, and the vertices are numbered
    in order of first appearance in the edges.  The token views (``edges``,
    ``origin_index``, ``terminal_index``) and the token -> id maps
    (``origin_id``, ``terminal_id``, ``edge_id``) are built on first use.

    Construct via :func:`build_graph`, :func:`graph_of` or :meth:`subgraph`;
    instances are immutable and safe to share across threads.
    """

    origins: tuple
    terminals: tuple
    src: np.ndarray
    dst: np.ndarray

    @cached_property
    def edges(self) -> tuple:
        """(origin, terminal) token pairs, edge ``i`` at position ``i``."""
        return tuple(zip(self.tokens(WeightKind.ORIGIN, self.src),
                         self.tokens(WeightKind.TERMINAL, self.dst)))

    @cached_property
    def origin_index(self) -> dict:
        """Origin token -> tuple of its edges, in edge order."""
        return _index(self.origins, self.edges, 0)

    @cached_property
    def terminal_index(self) -> dict:
        """Terminal token -> tuple of its edges, in edge order."""
        return _index(self.terminals, self.edges, 1)

    @cached_property
    def origin_id(self) -> dict:
        return dict(zip(self.origins, range(len(self.origins))))

    @cached_property
    def terminal_id(self) -> dict:
        return dict(zip(self.terminals, range(len(self.terminals))))

    @cached_property
    def edge_id(self) -> dict:
        return dict(zip(self.edges, range(len(self.edges))))

    def tokens(self, kind: WeightKind, ids: np.ndarray) -> list:
        """The origins, terminals or (origin, terminal) edges with these ids."""
        if kind is WeightKind.EDGE:
            return list(zip(self.tokens(WeightKind.ORIGIN, self.src[ids]),
                            self.tokens(WeightKind.TERMINAL, self.dst[ids])))
        table = self.origins if kind is WeightKind.ORIGIN else self.terminals
        return [table[i] for i in ids.tolist()]

    def subgraph(self, rows: np.ndarray) -> "DirectedGraph":
        """The graph of the edges ``rows``, in that order, with its vertices
        renumbered in order of first appearance."""
        origins, src = _first_appearance(self.src[rows], len(self.origins))
        terminals, dst = _first_appearance(self.dst[rows], len(self.terminals))
        return DirectedGraph(
            origins=tuple(self.tokens(WeightKind.ORIGIN, origins)),
            terminals=tuple(self.tokens(WeightKind.TERMINAL, terminals)),
            src=src,
            dst=dst,
        )

    def out_edges(self, origin) -> tuple:
        """Edges leaving ``origin``, in insertion order."""
        if origin not in self.origin_id:
            raise DomainError(f"origin {origin!r} is not in the graph")
        return self.origin_index[origin]

    def in_edges(self, terminal) -> tuple:
        """Edges entering ``terminal``, in insertion order."""
        if terminal not in self.terminal_id:
            raise DomainError(f"terminal {terminal!r} is not in the graph")
        return self.terminal_index[terminal]

    def __repr__(self):
        return (
            f"DirectedGraph(origins={len(self.origins)}, "
            f"terminals={len(self.terminals)}, edges={len(self.src)})"
        )


def _index(vertices: tuple, edges: tuple, pos: int) -> dict:
    index = {v: [] for v in vertices}
    for e in edges:
        index[e[pos]].append(e)
    return {v: tuple(es) for v, es in index.items()}


def _read_only(ids: np.ndarray) -> np.ndarray:
    ids.flags.writeable = False
    return ids


def _first_appearance(ids: np.ndarray, n_ids: int) -> tuple:
    """The distinct values of ``ids`` in order of first appearance, and
    ``ids`` renumbered by that order."""
    n = len(ids)
    first = np.full(n_ids, n, dtype=np.intp)
    np.minimum.at(first, ids, np.arange(n))
    is_first = np.zeros(n + 1, dtype=bool)  # slot n absorbs absent values
    is_first[first] = True
    order = ids[np.flatnonzero(is_first[:n])]
    new_id = np.empty(n_ids, dtype=np.intp)
    new_id[order] = np.arange(len(order))
    return order, _read_only(new_id[ids])


def _encode(tokens: Sequence) -> tuple:
    """Distinct tokens in first-appearance order, and each token's position.

    A token's first lookup numbers it (``defaultdict`` over a counter), so
    the tokens are read in one C-level ``map`` with no Python frame per token.
    """
    ids = defaultdict(itertools.count().__next__)
    out = np.fromiter(map(ids.__getitem__, tokens), np.intp, len(tokens))
    return tuple(ids), _read_only(out)


def graph_of(origins: Sequence, terminals: Sequence) -> DirectedGraph:
    """The graph whose edge ``i`` runs from ``origins[i]`` to ``terminals[i]``.

    Pairs are taken as given, repeats included; :func:`build_graph`
    collapses them first.
    """
    origin_table, src = _encode(origins)
    terminal_table, dst = _encode(terminals)
    return DirectedGraph(origin_table, terminal_table, src, dst)


def build_graph(edge_list: Iterable) -> DirectedGraph:
    """Build a graph from (origin, terminal) pairs.

    Duplicate pairs collapse to one edge (first occurrence kept).  Origins
    and terminals are exactly the tokens appearing in first/second position,
    in order of first appearance.  A pair given as a 2-tuple becomes the
    edge itself, so callers keying data by the same tuples share them.
    """
    edges = tuple(dict.fromkeys(
        pair if type(pair) is tuple and len(pair) == 2 else (pair[0], pair[1])
        for pair in edge_list
    ))
    if not edges:
        raise DomainError("cannot build a graph from an empty edge list")
    graph = graph_of([e[0] for e in edges], [e[1] for e in edges])
    vars(graph)["edges"] = edges  # fill the cached view with the caller's pairs
    return graph


def check_weights(values: np.ndarray, lo: float, hi: float, name) -> None:
    """Raise ``ValueError`` for the first value that is not finite or lies
    outside ``[lo, hi]``; ``name(i)`` describes the element of value ``i``."""
    bad = ~((values >= lo) & (values <= hi))  # NaN fails both comparisons
    if bad.any():
        i = int(bad.argmax())
        w = float(values[i])
        if math.isfinite(w):
            raise ValueError(f"weight {w!r} for {name(i)} outside [{lo}, {hi}]")
        raise ValueError(f"weight for {name(i)} is not finite: {w!r}")


@dataclass(frozen=True)
class Weighting:
    """Known weights on a training subset of origins, terminals, or edges.

    ``weights`` maps each training element to a value inside ``[lo, hi]``.
    The mapping's insertion order is preserved and treated as the canonical
    enumeration order of the training domain.
    """

    kind: WeightKind
    weights: Mapping
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"weight range [{self.lo}, {self.hi}] is empty")
        object.__setattr__(self, "weights", dict(self.weights))
        elements = list(self.weights)
        check_weights(self.values(), self.lo, self.hi, lambda i: repr(elements[i]))

    def values(self) -> np.ndarray:
        """The weights as an array, in training order."""
        return np.array(list(self.weights.values()), dtype=float)

    def check_domain(self, graph: DirectedGraph) -> np.ndarray:
        """Ids in ``graph`` of the weighted elements, in training order.

        Raises ``DomainError`` unless every weighted element exists there.
        """
        ids = getattr(graph, f"{self.kind.value}_id")  # origin_id/terminal_id/edge_id
        found = [ids.get(x, -1) for x in self.weights]
        missing = [x for x, i in zip(self.weights, found) if i < 0]
        if missing:
            raise DomainError(
                f"{len(missing)} weighted element(s) not in the graph, "
                f"first: {missing[0]!r}"
            )
        return np.array(found, dtype=np.intp)


def neighbors(
    graph: DirectedGraph, weighting: Weighting, element, *, exclude_self=False
) -> tuple:
    """Training elements of ``weighting.kind`` sharing a vertex with ``element``.

    Deduplicated, in deterministic order; treat it as a set.  Raises
    ``DomainError`` for an element the graph lacks as that kind.
    """
    domain = weighting.weights
    if weighting.kind is WeightKind.ORIGIN:
        found = (
            alpha
            for _, t in graph.out_edges(element)
            for alpha, _ in graph.terminal_index[t]
            if alpha in domain
        )
    elif weighting.kind is WeightKind.TERMINAL:
        found = (
            beta
            for o, _ in graph.in_edges(element)
            for _, beta in graph.origin_index[o]
            if beta in domain
        )
    else:
        if element not in graph.edge_id:
            raise DomainError(f"edge {element!r} is not in the graph")
        o, t = element
        found = (
            cand
            for cand in graph.origin_index[o] + graph.terminal_index[t]
            if cand in domain
        )
    out = dict.fromkeys(found)
    if exclude_self:
        out.pop(element, None)
    return tuple(out)
