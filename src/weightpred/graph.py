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

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

import math

import numpy as np

from .errors import DomainError


class WeightKind(str, Enum):
    """Which element kind a partial weighting assigns weights to."""

    ORIGIN = "origin"
    TERMINAL = "terminal"
    EDGE = "edge"


@dataclass(frozen=True)
class DirectedGraph:
    """Deduplicated directed graph with origin- and terminal-side indexes.

    Besides the token views it holds integer views of the same edges:
    ``src[i]``/``dst[i]`` are the positions in ``origins``/``terminals`` of
    ``edges[i]``'s endpoints (read-only arrays), and ``edge_id`` maps each
    edge to ``i`` (built on first use).

    Construct via :func:`build_graph`; instances are immutable and safe to
    share across threads.
    """

    origins: tuple
    terminals: tuple
    edges: tuple
    origin_index: Mapping  # origin token -> tuple of its edges
    terminal_index: Mapping  # terminal token -> tuple of its edges
    src: np.ndarray = field(compare=False)
    dst: np.ndarray = field(compare=False)

    @cached_property
    def edge_id(self) -> dict:
        return dict(zip(self.edges, range(len(self.edges))))

    def has_origin(self, token) -> bool:
        return token in self.origin_index

    def has_terminal(self, token) -> bool:
        return token in self.terminal_index

    def has_edge(self, edge) -> bool:
        return edge in self.edge_id

    def out_edges(self, origin) -> tuple:
        """Edges leaving ``origin``, in insertion order."""
        if origin not in self.origin_index:
            raise DomainError(f"origin {origin!r} is not in the graph")
        return self.origin_index[origin]

    def in_edges(self, terminal) -> tuple:
        """Edges entering ``terminal``, in insertion order."""
        if terminal not in self.terminal_index:
            raise DomainError(f"terminal {terminal!r} is not in the graph")
        return self.terminal_index[terminal]

    def __repr__(self):
        return (
            f"DirectedGraph(origins={len(self.origins)}, "
            f"terminals={len(self.terminals)}, edges={len(self.edges)})"
        )


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
    by_origin: dict = {}
    by_terminal: dict = {}
    for e in edges:
        by_origin.setdefault(e[0], []).append(e)
        by_terminal.setdefault(e[1], []).append(e)
    return DirectedGraph(
        origins=tuple(by_origin),
        terminals=tuple(by_terminal),
        edges=edges,
        origin_index={k: tuple(v) for k, v in by_origin.items()},
        terminal_index={k: tuple(v) for k, v in by_terminal.items()},
        src=_positions((e[0] for e in edges), by_origin, len(edges)),
        dst=_positions((e[1] for e in edges), by_terminal, len(edges)),
    )


def _positions(tokens, vertices: dict, n: int) -> np.ndarray:
    """Read-only array of each token's position in ``vertices``."""
    pos = dict(zip(vertices, range(len(vertices))))
    out = np.fromiter((pos[v] for v in tokens), dtype=np.intp, count=n)
    out.flags.writeable = False
    return out


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
        for elem, w in self.weights.items():
            if not math.isfinite(w):
                raise ValueError(f"weight for {elem!r} is not finite: {w!r}")
            if not self.lo <= w <= self.hi:
                raise ValueError(
                    f"weight {w!r} for {elem!r} outside [{self.lo}, {self.hi}]"
                )

    def check_domain(self, graph: DirectedGraph) -> None:
        """Raise unless every weighted element exists in ``graph``."""
        has = getattr(graph, f"has_{self.kind.value}")  # has_origin/_terminal/_edge
        missing = [x for x in self.weights if not has(x)]
        if missing:
            raise DomainError(
                f"{len(missing)} weighted element(s) not in the graph, "
                f"first: {missing[0]!r}"
            )


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
        if not graph.has_edge(element):
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
