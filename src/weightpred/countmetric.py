"""Neighbor-average profiles, bandwidth counts, and the count distance.

For a query element x with neighbor set N(x) inside the training domain,
the profile records

* ``avg_weight``: the arithmetic mean of the training weights over N(x)
  (undefined when N(x) is empty),
* ``band_count``: the number of neighbors whose training weight lies within
  the bandwidth ``h`` of ``avg_weight`` (zero when the average is
  undefined).

The distance between two elements of the same kind is the absolute
difference of their band counts.  It is a metric modulo the equivalence
"equal band count": nonnegative, symmetric, triangle inequality, and zero
exactly on equivalent pairs.  Elements with empty neighborhoods all sit in
the count-zero class.

All sums run over a canonically sorted value order so results do not depend
on enumeration order (see :func:`stable_mean`), and add left to right from
0.0 in ``np.bincount`` (see :func:`ordered_sum`).  :func:`count_classes` groups
values by equal keys, such as training weights by band count.  Every
ascending order here is the stable one of :func:`_ascending`.

:func:`profile_arrays` fills every profile in one batch over the graph's
integer arrays, and :class:`CountMetric` reads one element's profile from
them by token.  Each element's neighbors form one segment of a flat array of
(element, neighbor rank) pairs, where a neighbor's rank is its position in
the ascending order of training weights.  One sort on ``element * n + rank``
both deduplicates each segment and orders it by weight, and ``np.bincount``
adds each segment's weights left to right from 0.0, so every average has the
bits of ``ordered_sum(sorted(ws)) / len(ws)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, PredictionError
from .graph import DirectedGraph, WeightKind, Weighting, _read_only

# Most (element, candidate neighbor) pairs the batched profile fill holds at
# once.  It bounds the fill's working memory, which would otherwise grow with
# the sum of squared degrees.  A chunk always takes at least one element, so
# one element with a larger segment still gets a chunk of its own.
_CHUNK_ENTRIES = 16_384


def ordered_sum(values: Sequence[float]) -> float:
    """``((0.0 + v0) + v1) + ...`` in IEEE doubles, one rounding per addition.

    ``np.bincount`` adds its weights in this order.  ``np.sum`` adds
    pairwise, and builtin ``sum()`` compensates rounding error from CPython
    3.12 on (gh-100425); either changes the last bits.
    """
    return float(np.bincount(np.zeros(len(values), np.intp), weights=values, minlength=1)[0])


def stable_mean(values: Sequence[float]) -> float:
    """Mean with the summation order fixed by sorting the values.

    Makes the result invariant under any permutation of the input, so
    predictions and profiles are bit-identical no matter how the caller
    enumerated the underlying sets.
    """
    if not len(values):
        raise ValueError("stable_mean of an empty sequence")
    return ordered_sum(np.sort(values)) / len(values)


@dataclass(frozen=True, eq=False)
class CountClasses:
    """The values by key, read-only: class ``j``, of the ``j``-th smallest
    key ``counts[j]``, is ``weights[ptr[j]:ptr[j + 1]]`` ascending; ``first``
    orders the classes by their first element, and ``mean`` is the
    :func:`stable_mean` of all the values."""

    counts: np.ndarray
    weights: np.ndarray
    ptr: np.ndarray
    first: np.ndarray
    mean: float

    def by_first_appearance(self) -> tuple:
        """``(counts, weights, ptr)`` with the classes in ``first`` order."""
        sizes = np.diff(self.ptr)[self.first]
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        at = np.arange(ptr[-1]) + np.repeat(self.ptr[self.first] - ptr[:-1], sizes)
        return self.counts[self.first], self.weights[at], ptr


def count_classes(keys, values, by_value=None) -> CountClasses:
    """The :class:`CountClasses` of integer or float ``keys`` (band counts,
    embeddings, pair keys; 0.0 and -0.0 equal, the first standing for its
    class) and ``values``, whose dtype it keeps; ``by_value`` is the values'
    :func:`_ascending` order if known."""
    keys, values = np.asarray(keys), np.asarray(values)
    if not len(keys):
        raise PredictionError("cannot group an empty training set by band count")
    by_key = _ascending(keys)
    ascending = keys[by_key]
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=starts[1:])
    ids = np.empty(len(keys), dtype=np.intp)
    ids[by_key] = np.cumsum(starts) - 1
    by_value = _ascending(values) if by_value is None else by_value
    ranked = values[by_value]
    grouped, ptr = _grouped(ids[by_value], np.count_nonzero(starts), ranked)
    first = _stable_order(by_key[starts])  # the first element of a class heads it
    return CountClasses(*map(_read_only, (ascending[starts], grouped, ptr, first)),
                        ordered_sum(ranked) / len(values))


def _training_weights(weighting: Weighting, training: Sequence) -> list:
    """The training elements' weights; ``DomainError`` for one without."""
    missing = [a for a in training if a not in weighting.weights]
    if missing:
        raise DomainError(f"training element {missing[0]!r} has no weight")
    return [float(weighting.weights[a]) for a in training]


@dataclass(frozen=True)
class CountProfile:
    """Neighborhood summary of one element."""

    neighbor_count: int
    avg_weight: Optional[float]
    band_count: int


class CountMetric:
    """Count distance for one (graph, weighting, h) triple.

    The constructor fills ``neighbor_counts``, ``avg_weights`` (0.0 where
    there is no neighbor) and ``band_counts``, arrays indexed by the id in
    ``graph`` of every element of the kind ``weighting.kind`` (see
    :func:`profile_arrays`); :meth:`profile` builds one element's
    :class:`CountProfile` from them on request.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        weighting: Weighting,
        h: float,
        *,
        exclude_self: bool = False,
    ):
        if not h > 0:
            raise ValueError(f"bandwidth h must be positive, got {h!r}")
        train = weighting.check_domain(graph)
        self.weighting = weighting
        self._ids = getattr(graph, f"{weighting.kind.value}_id")  # token -> id
        self._profiles: dict = {}  # id -> CountProfile, filled on request
        self.neighbor_counts, self.avg_weights, self.band_counts, _ = profile_arrays(
            graph, weighting.kind, train, weighting.values(), float(h), exclude_self
        )

    def profile(self, element) -> CountProfile:
        try:
            i = self._ids[element]
        except (KeyError, TypeError):  # TypeError: an unhashable element
            raise DomainError(
                f"{self.weighting.kind.value} {element!r} is not in the graph"
            ) from None
        if i not in self._profiles:
            c = int(self.neighbor_counts[i])
            self._profiles[i] = CountProfile(
                c, float(self.avg_weights[i]) if c else None, int(self.band_counts[i])
            )
        return self._profiles[i]

    def distance(self, x, y) -> int:
        """Absolute band-count difference; zero iff x and y are equivalent."""
        return abs(self.profile(x).band_count - self.profile(y).band_count)

    def transfer(self, element) -> float:
        """Real-number embedding of an element: its band count as a float."""
        return float(self.profile(element).band_count)


def profile_arrays(
    graph: DirectedGraph,
    kind: WeightKind,
    train: np.ndarray,
    weights: np.ndarray,
    h: float,
    exclude_self: bool,
) -> tuple:
    """Neighbor counts, average neighbor weights (0.0 where there is no
    neighbor) and band counts of every element of ``kind`` in ``graph``, as
    arrays indexed by element id, and the :func:`_ascending` order of
    ``weights``.  Element ``train[j]`` has the training weight ``weights[j]``."""
    if kind is WeightKind.EDGE:
        n = len(graph.src)
    else:
        n = len(graph.origins if kind is WeightKind.ORIGIN else graph.terminals)
    # Training elements in ascending weight order; rank_of[x] is x's
    # position in it, or -1 for an element outside the training domain.
    by_weight = _ascending(weights)
    sorted_weight = weights[by_weight]
    rank_of = np.full(n, -1, dtype=np.intp)
    rank_of[train[by_weight]] = np.arange(len(by_weight))
    stride = max(len(by_weight), 1)

    groups, first, ranks, ptr = _candidate_groups(graph, kind, rank_of)
    size = np.diff(ptr)
    # Pair entries of the elements before each element, for chunking.
    entry_end = np.concatenate(([0], np.cumsum(size[groups])))[first]

    counts = np.zeros(n, dtype=np.intp)
    avgs = np.zeros(n)
    bands = np.zeros(n, dtype=np.intp)
    a = 0
    while a < n:
        b = int(np.searchsorted(entry_end, entry_end[a] + _CHUNK_ENTRIES, "right")) - 1
        b = max(b, a + 1)
        # Every (element, candidate) pair of the chunk, element-major: the
        # j-th pair of group g[i] reads ranks[ptr[g[i]] + j - (ends - lens)[i]].
        g = groups[first[a]:first[b]]
        lens = size[g]
        ends = np.cumsum(lens)
        rank = ranks[np.arange(ends[-1]) + np.repeat(ptr[g] + lens - ends, lens)]
        owner = np.repeat(np.arange(b - a), np.diff(entry_end[a:b + 1]))
        if exclude_self:
            other = rank != rank_of[a + owner]
            rank, owner = rank[other], owner[other]
        # One sort orders each element's segment by weight and brings
        # repeated neighbors together; the mask keeps one of each.
        key = owner * stride + rank
        key.sort()
        distinct = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=distinct[1:])
        owner, rank = np.divmod(key[distinct], stride)
        w = sorted_weight[rank]
        cnt = np.bincount(owner, minlength=b - a)
        avg = np.bincount(owner, weights=w, minlength=b - a) / np.maximum(cnt, 1)
        counts[a:b] = cnt
        avgs[a:b] = avg
        bands[a:b] = np.bincount(owner[np.abs(w - avg[owner]) <= h], minlength=b - a)
        a = b
    return counts, avgs, bands, by_weight


def _grouped(keys: np.ndarray, n_keys: int, values: np.ndarray) -> tuple:
    """``values`` grouped by ``keys``, each group in input order, and the
    group offsets: group k is ``grouped[ptr[k]:ptr[k + 1]]``."""
    ptr = np.zeros(n_keys + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=ptr[1:])
    return values[_stable_order(keys)], ptr


def _ascending(x: np.ndarray) -> np.ndarray:
    """The stable ascending order of the float or integer array ``x`` (0.0
    and -0.0 equal), by two :func:`_stable_order` passes over the low and
    then the high 32 bits of an order-preserving int64 key."""
    if x.dtype.kind == "f":
        bits = (x.astype(np.float64, copy=False) + 0.0).view(np.int64)
        bits ^= (bits >> 63) & (2**63 - 1)
    else:
        bits = x.astype(np.int64, copy=False)
    order = _stable_order(bits & 0xFFFFFFFF)
    return order[_stable_order((bits[order] >> 32) + 2**31)]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of at most 2**31 nonnegative int64 ``keys`` below
    2**32 (so each key shifted past the ``bits`` of an index fits in int64),
    from the same np.sort the chunks use: the first call of each further
    numpy sort routine adds 0.1-0.3 MiB of resident code."""
    n = len(keys)
    bits = max(n - 1, 0).bit_length()
    return np.sort(keys << bits | np.arange(n)) & ((1 << bits) - 1)


def _candidate_groups(graph: DirectedGraph, kind: WeightKind, rank_of: np.ndarray) -> tuple:
    """Where each element's candidate neighbors sit, as groups of ranks.

    Returns ``(groups, first, ranks, ptr)``: element x owns the groups
    ``groups[first[x]:first[x + 1]]``, and group g holds the training ranks
    ``ranks[ptr[g]:ptr[g + 1]]``.  One neighbor may sit in several groups of
    an element.
    """
    src, dst = graph.src, graph.dst
    if kind is WeightKind.EDGE:
        # Group o holds the training edges of origin o, group n_o + t those
        # of terminal t; an edge owns its origin's and its terminal's group,
        # so a training edge sits in both of its own.
        n_o = len(graph.origins)
        train = rank_of >= 0
        ranks, ptr = _grouped(
            np.concatenate((src[train], n_o + dst[train])),
            n_o + len(graph.terminals),
            np.tile(rank_of[train], 2),
        )
        groups = np.stack((src, n_o + dst), axis=1).ravel()
        return groups, np.arange(0, len(groups) + 1, 2), ranks, ptr

    # Group v holds the training vertices on the edges of the other-side
    # vertex v; a vertex owns the group of each of its edges' other ends.
    if kind is WeightKind.ORIGIN:
        own, via, n_via = src, dst, len(graph.terminals)
    else:
        own, via, n_via = dst, src, len(graph.origins)
    train = rank_of[own] >= 0
    ranks, ptr = _grouped(via[train], n_via, rank_of[own[train]])
    groups, first = _grouped(own, len(rank_of), via)
    return groups, first, ranks, ptr
