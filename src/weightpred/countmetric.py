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
on enumeration order (see :func:`stable_mean`), and add left to right (see
:func:`ordered_sum`) so they do not depend on the Python version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .graph import DirectedGraph, Weighting, neighbors


def ordered_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...`` in IEEE doubles, one rounding per addition.

    Builtin ``sum()`` adds floats this way up to CPython 3.11; from 3.12 it
    compensates rounding error (gh-100425), which changes the last bits.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def stable_mean(values: Sequence[float]) -> float:
    """Mean with the summation order fixed by sorting the values.

    Makes the result invariant under any permutation of the input, so
    predictions and profiles are bit-identical no matter how the caller
    enumerated the underlying sets.
    """
    vals = sorted(values)
    if not vals:
        raise ValueError("stable_mean of an empty sequence")
    return ordered_sum(vals) / len(vals)


@dataclass(frozen=True)
class CountProfile:
    """Neighborhood summary of one element."""

    neighbor_count: int
    avg_weight: Optional[float]
    band_count: int


class CountMetric:
    """Count distance for one (graph, weighting, h) triple.

    The constructor computes the profile of every element of the kind
    matching ``weighting.kind`` (all origins, all terminals, or all edges of
    the graph); :meth:`profile` looks one up.
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
        weighting.check_domain(graph)
        self.weighting = weighting
        h = float(h)
        self._profiles = {}
        for x in getattr(graph, f"{weighting.kind.value}s"):  # origins/terminals/edges
            nbs = neighbors(graph, weighting, x, exclude_self=exclude_self)
            ws = [weighting.weights[n] for n in nbs]
            avg = stable_mean(ws) if ws else None
            self._profiles[x] = CountProfile(
                neighbor_count=len(ws),
                avg_weight=avg,
                band_count=sum(abs(w - avg) <= h for w in ws),
            )

    def profile(self, element) -> CountProfile:
        try:
            return self._profiles[element]
        except (KeyError, TypeError):  # TypeError: an unhashable element
            raise DomainError(
                f"{self.weighting.kind.value} {element!r} is not in the graph"
            ) from None

    def distance(self, x, y) -> int:
        """Absolute band-count difference; zero iff x and y are equivalent."""
        return abs(self.profile(x).band_count - self.profile(y).band_count)

    def transfer(self, element) -> float:
        """Real-number embedding of an element: its band count as a float."""
        return float(self.profile(element).band_count)
