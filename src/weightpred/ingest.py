"""Edge-list ingestion, weight rescaling, snapshots, and seeded splits.

Input files are delimited text, one edge per line::

    origin,terminal,weight[,timestamp]

(the Bitcoin-OTC ``source,target,rating,time`` layout).  Lines split on
each occurrence of the delimiter (comma by default), except that ``" "``
stands for whitespace and splits on runs of spaces and tabs; ``None`` picks
comma when the line has one, else whitespace.  A leading header line is
skipped when its weight field is not numeric.  Weights must lie inside the
declared raw range and are rescaled to [-1, 1] with the affine map
``w' = (2w - (a + b)) / (b - a)``.

Duplicate (origin, terminal) records collapse to one edge: the latest
record wins when timestamps are present, otherwise weights are averaged.

A snapshot is the canonical JSON form of a dataset (vertex lists, edges
with scaled weights, and a provenance block); experiments run off
snapshots, never raw files.  All sampling uses numpy's PCG64 generator
(recorded in every report) so splits reproduce exactly from a seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .countmetric import stable_mean
from .errors import DomainError, ParseError, SettingError, check_int
from .graph import DirectedGraph, WeightKind, check_weights, graph_of

PRNG_NAME = "numpy-pcg64"
SNAPSHOT_FORMAT = "weightpred-snapshot-v1"


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide seeded generator (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class DatasetSpec:
    """Where a raw edge list lives and how to read it."""

    path: str
    weight_range: tuple  # declared raw (a, b)
    has_timestamp: bool = False
    delimiter: Optional[str] = ","  # " " -> whitespace; None -> comma if present, else " "

    def __post_init__(self):
        a, b = self.weight_range
        for name, value in (("weight_min", a), ("weight_max", b)):
            if not math.isfinite(value):
                raise SettingError(name, f"must be finite, got {value!r}")
        if not a < b:
            raise SettingError(
                "weight_min", f"must be below the maximum, got range [{a}, {b}]"
            )
        if self.delimiter == "":
            raise SettingError("delimiter", "must not be empty")


@dataclass(frozen=True)
class EdgeRecord:
    origin: str
    terminal: str
    weight: float
    timestamp: Optional[float] = None

    @property
    def pair(self):
        return (self.origin, self.terminal)


def _split_line(line: str, delimiter: Optional[str]):
    if delimiter is None:
        delimiter = "," if "," in line else " "
    if delimiter == " ":  # whitespace: split on runs of spaces and tabs
        return line.split()
    return [f.strip() for f in line.split(delimiter)]


def parse_edge_list(spec: DatasetSpec) -> list:
    """Parse a raw edge list into records, validating every line.

    Raises :class:`ParseError` with the offending line number on malformed
    fields or weights outside the declared range.
    """
    try:
        text = Path(spec.path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(spec.path)) from exc

    expected = 4 if spec.has_timestamp else 3
    lo, hi = spec.weight_range
    records = []
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = _split_line(line, spec.delimiter)
        if len(fields) != expected:
            raise ParseError(
                f"expected {expected} fields, got {len(fields)}",
                path=str(spec.path),
                line=lineno,
            )
        try:
            weight = float(fields[2])
        except ValueError:
            if first_data_line:
                first_data_line = False  # header row
                continue
            raise ParseError(
                f"weight field {fields[2]!r} is not a number",
                path=str(spec.path),
                line=lineno,
            ) from None
        first_data_line = False
        if not math.isfinite(weight):
            raise ParseError(
                f"weight {fields[2]!r} is not finite", path=str(spec.path), line=lineno
            )
        if not lo <= weight <= hi:
            raise ParseError(
                f"weight {weight!r} outside declared range [{lo}, {hi}]",
                path=str(spec.path),
                line=lineno,
            )
        origin, terminal = fields[0], fields[1]
        if not origin or not terminal:
            raise ParseError(
                "empty origin or terminal token", path=str(spec.path), line=lineno
            )
        timestamp = None
        if spec.has_timestamp:
            try:
                timestamp = float(fields[3])
            except ValueError:
                raise ParseError(
                    f"timestamp field {fields[3]!r} is not a number",
                    path=str(spec.path),
                    line=lineno,
                ) from None
            if not math.isfinite(timestamp):
                raise ParseError(
                    f"timestamp {fields[3]!r} is not finite",
                    path=str(spec.path),
                    line=lineno,
                )
        records.append(EdgeRecord(origin, terminal, weight, timestamp))

    if not records:
        raise ParseError("no edge records found", path=str(spec.path))
    return records


def collapse_duplicates(records: Sequence[EdgeRecord]) -> list:
    """Collapse repeat (origin, terminal) records to a single edge.

    Latest timestamp wins when the whole group carries timestamps (ties:
    last occurrence in file order); otherwise the weights are averaged.
    """
    groups: dict = {}
    for rec in records:
        groups.setdefault(rec.pair, []).append(rec)

    out = []
    for key, group in groups.items():
        if len(group) == 1:
            out.append(group[0])
        elif all(r.timestamp is not None for r in group):
            # max keeps the first of equal keys; scan backwards so the last wins.
            out.append(max(reversed(group), key=lambda r: r.timestamp))
        else:
            weight = stable_mean([r.weight for r in group])
            out.append(EdgeRecord(key[0], key[1], weight, None))
    return out


def rescale(value: float, lo: float, hi: float) -> float:
    """Affine map of ``value`` from [lo, hi] onto [-1, 1].

    The exact image always lies in [-1, 1]; cancellation error for ranges
    with large offsets can overshoot by a few ulps, so the result is
    clamped back in.
    """
    if not lo < hi:
        raise ValueError(f"source range [{lo}, {hi}] is empty")
    if not lo <= value <= hi:
        raise DomainError(f"value {value!r} outside [{lo}, {hi}]")
    return min(max((2.0 * value - (lo + hi)) / (hi - lo), -1.0), 1.0)


def rescale_inverse(scaled: float, lo: float, hi: float) -> float:
    """Map a value in [-1, 1] back onto [lo, hi]."""
    return (scaled * (hi - lo) + (lo + hi)) / 2.0


@dataclass(frozen=True)
class SplitPlan:
    """Seeded sampling/partition parameters for one experiment."""

    seed: int
    sample_size: Optional[int] = None  # None -> use every record
    train_count: Optional[int] = None
    train_fraction: Optional[float] = None

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        if (self.train_count is None) == (self.train_fraction is None):
            raise SettingError("train_count", "must be set exactly when train_fraction is not")
        if self.train_count is not None:
            check_int("train_count", self.train_count, 1)
        if self.train_fraction is not None and not 0.0 < self.train_fraction < 1.0:
            raise SettingError(
                "train_fraction", f"must be in (0, 1), got {self.train_fraction!r}"
            )
        if self.sample_size is not None:
            check_int("sample_size", self.sample_size, 2)

    def resolve_train_size(self, universe_size: int) -> int:
        if self.train_count is not None:
            n = self.train_count
        else:
            n = int(self.train_fraction * universe_size)  # floor
        if not 1 <= n < universe_size:
            raise DomainError(
                f"train size {n} must satisfy 1 <= train < {universe_size}"
            )
        return n


@dataclass(frozen=True)
class Split:
    """Train/test partition plus the sampled edge set it came from.

    For the edge task ``train + test == sampled``.
    """

    train: tuple  # EdgeRecords (edge task) or vertex tokens
    test: tuple
    sampled: tuple  # EdgeRecords forming the experiment's graph


@dataclass(frozen=True)
class IdSplit:
    """A split on integer ids.

    ``sampled`` holds the sampled edge rows in sample order.  ``graph`` is
    their graph, edge ``i`` being row ``sampled[i]``, with its vertices
    renumbered in order of first appearance.  ``train`` and ``test`` are ids
    in ``graph`` of the task's elements.
    """

    sampled: np.ndarray
    graph: DirectedGraph
    train: np.ndarray
    test: np.ndarray


TASKS = tuple(k.value for k in WeightKind)


def split_ids(graph: DirectedGraph, plan: SplitPlan, task: str) -> IdSplit:
    """Sample the edges of ``graph``, then partition the task's element set.

    The edge task partitions the sampled edges; the origin/terminal tasks
    partition the vertex set of the sampled subgraph, in its first-appearance
    order.  Everything is a pure function of (graph, plan, task).
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    n = len(graph.src)
    size = plan.sample_size if plan.sample_size is not None else n
    if size > n:
        raise DomainError(f"sample_size {size} exceeds the {n} available records")

    rng = make_rng(plan.seed)
    rows = rng.choice(n, size=size, replace=False)
    sampled = graph.subgraph(rows)
    if task == "edge":
        order = np.arange(size)
    else:
        order = rng.permutation(len(getattr(sampled, f"{task}s")))  # origins/terminals
    train_size = plan.resolve_train_size(len(order))
    return IdSplit(rows, sampled, order[:train_size], order[train_size:])


def make_split(records: Sequence[EdgeRecord], plan: SplitPlan, task: str) -> Split:
    """:func:`split_ids` on the graph of ``records``, read back as records
    (edge task) or vertex tokens."""
    records = list(records)
    split = split_ids(
        graph_of([r.origin for r in records], [r.terminal for r in records]), plan, task
    )
    sampled = tuple(records[i] for i in split.sampled.tolist())
    if task == "edge":
        return Split(sampled[:len(split.train)], sampled[len(split.train):], sampled)
    kind = WeightKind(task)
    return Split(
        train=tuple(split.graph.tokens(kind, split.train)),
        test=tuple(split.graph.tokens(kind, split.test)),
        sampled=sampled,
    )


@dataclass(frozen=True, eq=False)
class Columns(DirectedGraph):
    """A snapshot's edges as integer columns: its graph, whose vertex tables
    are the snapshot's ``origins`` and ``terminals``, and ``weight[i]``, the
    scaled weight of edge ``i``."""

    weight: np.ndarray


@dataclass(frozen=True)
class Snapshot:
    """Canonical dataset form: scaled edges plus provenance.

    The edges alone fix the vertex lists: ``origins`` and ``terminals`` are
    their tokens in order of first appearance.
    """

    edges: tuple  # EdgeRecords with weights already in [-1, 1]
    raw_weight_range: tuple
    provenance: dict

    @functools.cached_property
    def origins(self) -> tuple:
        return tuple(dict.fromkeys(r.origin for r in self.edges))

    @functools.cached_property
    def terminals(self) -> tuple:
        return tuple(dict.fromkeys(r.terminal for r in self.edges))

    @functools.cached_property
    def columns(self) -> Columns:
        """The edges as integer columns, built on first use.

        Raises ``ValueError`` naming the edge for a weight that is not a
        finite number in [-1, 1], or for a repeated (origin, terminal) pair:
        :func:`load_snapshot` rejects both, but ``Snapshot(...)`` does not.
        """
        graph = graph_of([r.origin for r in self.edges], [r.terminal for r in self.edges])
        weight = np.array([r.weight for r in self.edges], dtype=float)
        check_weights(weight, -1.0, 1.0, lambda i: f"edge {i} {self.edges[i].pair!r}")
        n = len(weight)
        key = (graph.src * len(graph.terminals) + graph.dst) * n + np.arange(n)
        key.sort()
        repeat = np.flatnonzero(key[1:] // n == key[:-1] // n)
        if len(repeat):
            i, j = int(key[repeat[0] + 1] % n), int(key[repeat[0]] % n)
            raise ValueError(
                f"edge {i} {self.edges[i].pair!r} repeats the pair of edge {j}"
            )
        return Columns(graph.origins, graph.terminals, graph.src, graph.dst, weight)

    def digest(self) -> str:
        """Content hash of the canonical JSON form, computed once per snapshot."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "raw_weight_range": list(self.raw_weight_range),
            "origins": list(self.origins),
            "terminals": list(self.terminals),
            "edges": [[r.origin, r.terminal, r.weight] for r in self.edges],
            "provenance": self.provenance,
        }


def build_snapshot(
    spec: DatasetSpec,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> Snapshot:
    """Parse, collapse, rescale, and (optionally) subsample a raw dataset."""
    records = collapse_duplicates(parse_edge_list(spec))
    lo, hi = spec.weight_range
    scaled = [
        EdgeRecord(r.origin, r.terminal, rescale(r.weight, lo, hi), None)
        for r in records
    ]
    sampling = None
    if sample_size is not None:
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size!r}")
        if seed is None:
            raise ValueError("sampling at ingest requires a seed")
        if sample_size > len(scaled):
            raise DomainError(
                f"sample_size {sample_size} exceeds the {len(scaled)} available edges"
            )
        rng = make_rng(seed)
        idx = sorted(rng.choice(len(scaled), size=sample_size, replace=False).tolist())
        scaled = [scaled[i] for i in idx]
        sampling = {"seed": seed, "sample_size": sample_size, "prng": PRNG_NAME}

    try:
        source_sha = hashlib.sha256(Path(spec.path).read_bytes()).hexdigest()
    except OSError as exc:  # raced away since parsing
        raise ParseError(f"cannot read file: {exc}", path=str(spec.path)) from exc

    return Snapshot(
        edges=tuple(scaled),
        raw_weight_range=(float(lo), float(hi)),
        provenance={
            "source_path": Path(spec.path).name,
            "source_sha256": source_sha,
            "sampling": sampling,
        },
    )


# Top-level snapshot keys besides "format", and the JSON type each holds.
_SNAPSHOT_KEYS = {
    "raw_weight_range": list,
    "origins": list,
    "terminals": list,
    "edges": list,
    "provenance": dict,
}


def save_snapshot(snapshot: Snapshot, path) -> None:
    text = json.dumps(snapshot.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def load_snapshot(path) -> Snapshot:
    """Read a snapshot, rejecting what :func:`build_snapshot` cannot produce.

    Raises :class:`ParseError` naming the file (and the edge index, where
    there is one) for a missing key, a ``raw_weight_range`` that is not two
    finite numbers lo < hi, no edges, an edge that is not ``[origin,
    terminal, weight]`` with nonempty tokens (without leading or trailing
    whitespace, which parsing strips) and a finite weight in [-1, 1], a
    repeated (origin, terminal) pair, or vertex lists that differ from the
    edges' first-appearance order.
    """
    where = str(path)
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read snapshot: {exc}", path=where) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=where) from exc
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ParseError(
            f"not a {SNAPSHOT_FORMAT} file (format={found!r})", path=where
        )
    for key, kind in _SNAPSHOT_KEYS.items():
        if not isinstance(payload.get(key), kind):
            raise ParseError(
                f"key {key!r} is missing or not a JSON {kind.__name__}", path=where
            )
    weight_range = payload["raw_weight_range"]
    if not (len(weight_range) == 2
            and all(type(v) in (int, float) and math.isfinite(v) for v in weight_range)
            and weight_range[0] < weight_range[1]):
        raise ParseError(
            f"raw_weight_range {weight_range!r} is not two finite numbers lo < hi",
            path=where,
        )

    raw = payload["edges"]
    if not raw:
        raise ParseError("snapshot has no edges", path=where)
    first: dict = {}  # (origin, terminal) -> index of the first edge naming it
    for i, edge in enumerate(raw):
        if not (type(edge) is list and len(edge) == 3
                and type(edge[0]) is str and type(edge[1]) is str):
            raise ParseError(
                f"edge {i}: expected [origin, terminal, weight], got {edge!r}",
                path=where,
            )
        o, t, w = edge
        if not o or not t:
            raise ParseError(f"edge {i}: empty origin or terminal token", path=where)
        if o != o.strip() or t != t.strip():
            padded = o if o != o.strip() else t
            raise ParseError(
                f"edge {i}: token {padded!r} has leading or trailing whitespace",
                path=where,
            )
        # NaN fails the range comparison, so this also rejects non-finite weights.
        if type(w) not in (int, float) or not -1.0 <= w <= 1.0:
            raise ParseError(
                f"edge {i}: weight {w!r} is not a number in [-1, 1]", path=where
            )
        j = first.setdefault((o, t), i)
        if j != i:
            raise ParseError(
                f"edge {i}: repeats the (origin, terminal) pair of edge {j}", path=where
            )

    snapshot = Snapshot(
        edges=tuple(EdgeRecord(o, t, float(w), None) for o, t, w in raw),
        raw_weight_range=tuple(weight_range),
        provenance=payload["provenance"],
    )
    for name, pos in (("origins", 0), ("terminals", 1)):
        listed, expected = payload[name], list(getattr(snapshot, name))
        if listed == expected:
            continue
        j = next(
            (j for j, (a, b) in enumerate(zip(listed, expected)) if a != b),
            min(len(listed), len(expected)),
        )
        if j < len(expected):
            i = next(i for i, edge in enumerate(raw) if edge[pos] == expected[j])
            detail = f"expected {expected[j]!r}, first seen in edge {i}"
        else:
            detail = f"{listed[j]!r} appears in no edge"
        raise ParseError(
            f"{name} differ from the edges' first-appearance order at "
            f"position {j}: {detail}",
            path=where,
        )
    return snapshot
