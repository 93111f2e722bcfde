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
record wins when timestamps are present (ties: the last in file order),
otherwise weights are averaged.

A snapshot is the canonical JSON form of a dataset (vertex lists, edges
with scaled weights, and a provenance block); experiments run off
snapshots, never raw files.  In memory a snapshot is held as columns, from
the raw file to its digest: vertex token tables, ``src``/``dst`` id arrays
and a weight array.  The record-level functions (:func:`parse_edge_list`,
:func:`make_split`, ``Snapshot.edges``) read those columns back as
:class:`EdgeRecord` objects.  All sampling uses numpy's PCG64 generator
(recorded in every report) so splits reproduce exactly from a seed.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .countmetric import key_classes
from .errors import (
    DomainError, ParseError, SettingError, check_float, check_int, read_bytes, utf8_text,
)
from .graph import DirectedGraph, WeightKind, _read_only, graph_of

PRNG_NAME = "numpy-pcg64"
SNAPSHOT_FORMAT = "weightpred-snapshot-v1"

# The largest raw weight bound: within it, 2w, a + b and b - a are finite.
_MAX_BOUND = sys.float_info.max / 2


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
            check_float(name, value)
            if not math.isfinite(value):
                raise SettingError(name, f"must be finite, got {value!r}")
            if abs(value) > _MAX_BOUND:
                raise SettingError(
                    name, f"must be at most {_MAX_BOUND!r} in magnitude, got {value!r}"
                )
        if not a < b:
            raise SettingError(
                "weight_min", f"must be below the maximum, got range [{a}, {b}]"
            )
        if self.delimiter == "":
            raise SettingError("delimiter", "must not be empty")


@dataclass(frozen=True, slots=True)
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


def _transpose(rows: list, width: int) -> list:
    """The columns of ``rows``, each a sequence of ``width`` items."""
    return [list(map(itemgetter(k), rows)) for k in range(width)]


def _columns(lines: list, delimiter: Optional[str], expected: int) -> Optional[list]:
    """The fields of ``lines`` as ``expected`` columns, or ``None`` unless
    every line has that many.  Token fields of a delimited line are not yet
    stripped."""
    if delimiter is None or delimiter == " " or len(delimiter) > 1:
        rows = list(map(_split_line, lines, repeat(delimiter)))
        return _transpose(rows, expected) if set(map(len, rows)) == {expected} else None
    # One character: joined lines split into one flat list, no list per line.
    if set(map(str.count, lines, repeat(delimiter))) != {expected - 1}:
        return None
    fields = delimiter.join(lines).split(delimiter)
    return [fields[k::expected] for k in range(expected)]


def _parse(spec: DatasetSpec, data: bytes) -> tuple:
    """The records of ``data``, the bytes of the raw edge list at
    ``spec.path``, as columns in file order: origin tokens, terminal tokens,
    weights, and timestamps (all ``None`` without them).

    The whole file is split and checked at once; if any check fails,
    :func:`_raise_at_first_bad_line` names the line.
    """
    text = utf8_text(data, spec.path)
    lines = list(filter(None, map(str.strip, text.splitlines())))
    columns = _columns(lines, spec.delimiter, 4 if spec.has_timestamp else 3)
    if columns and _number(columns[2][0]) is None:
        columns = [column[1:] for column in columns]  # header row
    if columns and columns[0]:
        origins = list(map(str.strip, columns[0]))
        terminals = list(map(str.strip, columns[1]))
        try:
            weights = list(map(float, columns[2]))
            stamps = (list(map(float, columns[3])) if spec.has_timestamp
                      else [None] * len(origins))
        except ValueError:
            weights = stamps = None
        lo, hi = spec.weight_range
        if (weights is not None
                and all(map(math.isfinite, weights))
                and lo <= min(weights) and max(weights) <= hi
                and "" not in origins and "" not in terminals
                and (not spec.has_timestamp or all(map(math.isfinite, stamps)))):
            return origins, terminals, weights, stamps
    _raise_at_first_bad_line(text, spec)


def _number(field: str) -> Optional[float]:
    """``float(field)``, or ``None`` when ``field`` is not a number."""
    try:
        return float(field)
    except ValueError:
        return None


def _line_fault(fields: list, spec: DatasetSpec) -> Optional[str]:
    """What is wrong with ``fields``, one data line of the raw edge list
    ``spec`` describes, or ``None``; checked in order: the field count, the
    weight, the tokens, the timestamp."""
    expected = 4 if spec.has_timestamp else 3
    if len(fields) != expected:
        return f"expected {expected} fields, got {len(fields)}"
    lo, hi = spec.weight_range
    weight = _number(fields[2])
    if weight is None:
        return f"weight field {fields[2]!r} is not a number"
    if not math.isfinite(weight):
        return f"weight {fields[2]!r} is not finite"
    if not lo <= weight <= hi:
        return f"weight {weight!r} outside declared range [{lo}, {hi}]"
    if not fields[0] or not fields[1]:
        return "empty origin or terminal token"
    stamp = _number(fields[3]) if spec.has_timestamp else 0.0
    if stamp is None:
        return f"timestamp field {fields[3]!r} is not a number"
    if not math.isfinite(stamp):
        return f"timestamp {fields[3]!r} is not finite"
    return None


def _raise_at_first_bad_line(text: str, spec: DatasetSpec):
    """Raise the :class:`ParseError` naming the first line of ``text``
    (numbered as by ``str.splitlines``, a header row skipped) that
    :func:`_parse` cannot read, or saying that no line holds a record."""
    lines = [(lineno, _split_line(line, spec.delimiter))
             for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
             if line]
    first = lines[0][1] if lines else []
    if len(first) == (4 if spec.has_timestamp else 3) and _number(first[2]) is None:
        del lines[0]  # header row
    for lineno, fields in lines:
        fault = _line_fault(fields, spec)
        if fault:
            raise ParseError(fault, path=str(spec.path), line=lineno)
    if lines:
        raise AssertionError(f"{spec.path}: the bulk parse rejects lines that each parse")
    raise ParseError("no edge records found", path=str(spec.path))


def parse_edge_list(spec: DatasetSpec) -> list:
    """Parse a raw edge list into records, validating every line.

    Raises :class:`ParseError` with the offending line number on malformed
    fields or weights outside the declared range.
    """
    return list(map(EdgeRecord, *_parse(spec, read_bytes(spec.path, "file"))))


def _pair_keys(graph: DirectedGraph) -> np.ndarray:
    """One integer per edge of ``graph``, equal for equal pairs."""
    return graph.src * len(graph.terminals) + graph.dst


def _repeats(graph: DirectedGraph) -> bool:
    """Whether two edges of ``graph`` have the same (origin, terminal) pair."""
    key = np.sort(_pair_keys(graph))
    return bool((key[1:] == key[:-1]).any())


def _collapse(graph: DirectedGraph, weights: list, stamps: list) -> tuple:
    """Collapse the records of repeated pairs, record ``i`` being edge ``i``
    of ``graph`` and ``stamps`` either all numbers or all ``None``.

    Returns the index of each pair's first record, in order, and each pair's
    weight: the latest record's when there are timestamps (ties: last in
    file order), else the mean of the pair's weights.
    """
    if not _repeats(graph):
        return np.arange(len(weights)), weights
    # Each pair's records, in file order.
    _, records, ptr = key_classes(_pair_keys(graph), np.arange(len(weights)))
    first = records[ptr[:-1]]
    out = list(map(weights.__getitem__, first.tolist()))
    sizes = np.diff(ptr)
    repeated = np.flatnonzero(sizes > 1)
    if stamps[0] is not None:
        for k in repeated.tolist():
            group = records[ptr[k]:ptr[k + 1]].tolist()
            # max keeps the first of equal keys; scan backwards so the last wins.
            out[k] = weights[max(reversed(group), key=stamps.__getitem__)]
        return first, out
    # Every mean at once, each pair's sum over its weights ascending from
    # 0.0: the bits of stable_mean.
    pair = np.repeat(np.arange(len(repeated)), sizes[repeated])
    rows = records[np.repeat(sizes > 1, sizes)]
    _, ascending, _ = key_classes(pair, np.array(weights)[rows])
    means = np.bincount(pair, weights=ascending) / sizes[repeated]
    for k, mean in zip(repeated.tolist(), means.tolist()):
        out[k] = mean
    return first, out


def _rescale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """:func:`rescale` of each value, unchecked."""
    return np.minimum(np.maximum((2.0 * values - (lo + hi)) / (hi - lo), -1.0), 1.0)


def rescale(value: float, lo: float, hi: float) -> float:
    """Affine map of ``value`` from [lo, hi] onto [-1, 1].

    The exact image always lies in [-1, 1]; cancellation error for ranges
    with large offsets can overshoot by a few ulps, so the result is
    clamped back in.  Raises ``ValueError`` for an empty range, or one with
    a bound above ``sys.float_info.max / 2`` in magnitude, where the map
    overflows.
    """
    if not lo < hi:
        raise ValueError(f"source range [{lo}, {hi}] is empty")
    if max(abs(lo), abs(hi)) > _MAX_BOUND:
        raise ValueError(
            f"source range [{lo}, {hi}] has a bound above {_MAX_BOUND!r} in magnitude"
        )
    if not lo <= value <= hi:
        raise DomainError(f"value {value!r} outside [{lo}, {hi}]")
    return float(_rescale(np.float64(value), lo, hi))


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
    in ``graph`` of the task's elements.  The arrays are read-only, since
    runs on one snapshot share a split.
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
    rows = _read_only(rng.choice(n, size=size, replace=False))
    sampled = graph.subgraph(rows)
    if task == "edge":
        order = np.arange(size)
    else:
        order = rng.permutation(len(getattr(sampled, f"{task}s")))  # origins/terminals
    order = _read_only(order)  # so are its train and test views
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

    @classmethod
    def of(cls, graph: DirectedGraph, weight: np.ndarray) -> "Columns":
        weight.flags.writeable = False
        return cls(graph.origins, graph.terminals, graph.src, graph.dst, weight)


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Canonical dataset form: scaled edges as columns, plus provenance.

    Edge ``i`` runs from ``origins[columns.src[i]]`` to
    ``terminals[columns.dst[i]]`` with weight ``columns.weight[i]`` in
    [-1, 1], no pair repeats, and ``origins`` and ``terminals`` are the
    edges' tokens in order of first appearance.  :func:`build_snapshot`
    makes such a snapshot and :func:`load_snapshot` checks all of that;
    ``Snapshot(columns, ...)`` checks nothing.  :meth:`digest` identifies a
    snapshot (``==`` is identity).
    """

    columns: Columns
    raw_weight_range: tuple
    provenance: dict

    @property
    def origins(self) -> tuple:
        return self.columns.origins

    @property
    def terminals(self) -> tuple:
        return self.columns.terminals

    @functools.cached_property
    def edges(self) -> tuple:
        """The edges as :class:`EdgeRecord` objects, built on first use."""
        c = self.columns
        return tuple(map(
            EdgeRecord,
            c.tokens(WeightKind.ORIGIN, c.src),
            c.tokens(WeightKind.TERMINAL, c.dst),
            c.weight.tolist(),
        ))

    def digest(self) -> str:
        """Content hash of the canonical JSON form, computed once per snapshot."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        return "sha256:" + hashlib.sha256(_json_text(self, "").encode()).hexdigest()

    @functools.cached_property
    def _memo(self) -> dict:
        """Steps that runs on this snapshot share: level -> ``(key, value)``
        of the level's last key (see ``evaluation.run_experiment``)."""
        return {}


def _json_text(snapshot: Snapshot, nl: str) -> str:
    """The text ``json.dumps(form, sort_keys=True, ...)`` writes for the
    snapshot's JSON form: with ``indent=2`` when ``nl`` is a line break,
    with ``separators=(",", ":")`` when it is empty.

    The form is three levels deep: the object's members, array items and
    edge-row items, each level starting its lines with one of ``nl1``,
    ``nl2`` and ``nl3``.  As the encoder writes them, each token is encoded
    once per vertex and each weight by ``float.__repr__`` once per bit
    pattern.  A row is three parts gathered by id, separators included (the
    previous row's ``],[`` leads its origin); all are joined at once.
    """
    c = snapshot.columns
    nl1, nl2, nl3 = (nl and nl + "  " * level for level in (1, 2, 3))
    colon = ": " if nl else ":"

    def small(value) -> str:
        if not nl:  # the digest's form, which spells a non-finite number NaN
            return json.dumps(value, sort_keys=True, separators=(",", ":"))
        text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        return text.replace("\n", nl1)

    def array(items: list) -> str:
        return f"[{nl2}{f',{nl2}'.join(items)}{nl1}]" if items else "[]"

    def gather(table: list, ids: np.ndarray) -> list:
        return np.array(table, dtype=object)[ids].tolist()

    origins = list(map(encode_basestring_ascii, c.origins))
    terminals = list(map(encode_basestring_ascii, c.terminals))
    bits = c.weight.view(np.int64)  # -0.0 and 0.0 differ here
    distinct = np.sort(bits)
    distinct = np.append(distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]])
    row_sep, item_sep = f"{nl2}],{nl2}[{nl3}", f",{nl3}"
    parts = [None] * (3 * len(bits))
    parts[0::3] = gather([row_sep + o + item_sep for o in origins], c.src)
    parts[1::3] = gather([t + item_sep for t in terminals], c.dst)
    parts[2::3] = gather(list(map(float.__repr__, distinct.view(float).tolist())),
                         np.searchsorted(distinct, bits))
    if parts:  # the first row follows no other
        parts[0] = parts[0][len(row_sep):]
    rows = "".join(parts)
    del parts  # its 3n references would outlive the copies of the text below
    members = {
        "edges": f"[{nl2}[{nl3}{rows}{nl2}]{nl1}]" if rows else "[]",
        "format": small(SNAPSHOT_FORMAT),
        "origins": array(origins),
        "provenance": small(snapshot.provenance),
        "raw_weight_range": small(list(snapshot.raw_weight_range)),
        "terminals": array(terminals),
    }
    body = f",{nl1}".join(f'"{key}"{colon}{members[key]}' for key in sorted(members))
    return f"{{{nl1}{body}{nl}}}"


def build_snapshot(
    spec: DatasetSpec,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> Snapshot:
    """Parse, collapse, rescale, and (optionally) subsample a raw dataset.

    Raises ``SettingError`` for a ``sample_size`` that is not an int >= 1 or
    a ``seed`` that is not an int >= 0.
    """
    if sample_size is not None:
        check_int("sample_size", sample_size, 1)
        if seed is None:
            raise ValueError("sampling at ingest requires a seed")
    if seed is not None:
        check_int("seed", seed, 0)
    data = read_bytes(spec.path, "file")
    origins, terminals, weights, stamps = _parse(spec, data)
    graph = graph_of(origins, terminals)
    rows, weights = _collapse(graph, weights, stamps)
    lo, hi = spec.weight_range
    weight = _rescale(np.array(weights, dtype=float), lo, hi)
    sampling = None
    if sample_size is not None:
        if sample_size > len(rows):
            raise DomainError(
                f"sample_size {sample_size} exceeds the {len(rows)} available edges"
            )
        keep = np.sort(make_rng(seed).choice(len(rows), size=sample_size, replace=False))
        rows, weight = rows[keep], weight[keep]
        sampling = {"seed": seed, "sample_size": sample_size, "prng": PRNG_NAME}
    if len(rows) < len(graph.src):
        graph = graph.subgraph(rows)
    return Snapshot(
        columns=Columns.of(graph, weight),
        raw_weight_range=(float(lo), float(hi)),
        provenance={
            "source_path": Path(spec.path).name,
            "source_sha256": hashlib.sha256(data).hexdigest(),
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
    """Write ``json.dumps(form, sort_keys=True, indent=2)`` of the snapshot."""
    text = _json_text(snapshot, "\n")  # before the file is opened: it may raise
    with open(path, "w", encoding="utf-8") as f:
        f.writelines((text, "\n"))


def _weight_array(weights: list) -> Optional[np.ndarray]:
    """``weights``, JSON values, as a float array, or ``None`` unless each
    is an ``int`` or ``float`` (not a ``bool``) in [-1, 1]."""
    kinds = set(map(type, weights))
    if not kinds <= {int, float}:
        return None
    if int in kinds:  # compared before conversion, so no int overflows
        weights = [float(w) if -1.0 <= w <= 1.0 else math.nan for w in weights]
    weight = np.array(weights, dtype=float)
    return weight if ((weight >= -1.0) & (weight <= 1.0)).all() else None  # NaN fails


# A code point UTF-8 cannot encode: JSON can spell a lone surrogate.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _clean(table: tuple) -> bool:
    """Whether no token of ``table`` is empty, padded, holds a line boundary
    or is not UTF-8 text, each token then ending one line of the joined
    table (a trailing ``"\\r"`` merges with its ``"\\n"``, but it is padding)."""
    joined = "\n".join([*table, ""])
    return ("" not in table and tuple(map(str.strip, table)) == table
            and len(joined.splitlines()) == len(table) and not _SURROGATE.search(joined))


def _edge_fault(edge, i: int, first_seen: dict) -> Optional[str]:
    """What is wrong with ``edge``, edge ``i`` of a snapshot, or ``None``;
    ``first_seen`` maps each pair of the edges before ``i`` to its first edge.

    In the order checked, ``edge`` must be ``[origin, terminal, weight]``
    with string tokens that are nonempty, carry no leading or trailing
    whitespace (which parsing strips), hold no ``str.splitlines`` line
    boundary (on which parsing splits) and are UTF-8 text; a weight in
    [-1, 1]; and a pair that no earlier edge has.
    """
    if not (type(edge) is list and len(edge) == 3
            and type(edge[0]) is str and type(edge[1]) is str):
        return f"expected [origin, terminal, weight], got {edge!r}"
    origin, terminal, weight = edge
    if not origin or not terminal:
        return "empty origin or terminal token"
    for bad, fault in ((lambda t: t != t.strip(), "has leading or trailing whitespace"),
                       (lambda t: t.splitlines() != [t], "holds a line boundary"),
                       (_SURROGATE.search, "is not UTF-8 text")):
        for token in (origin, terminal):
            if bad(token):
                return f"token {token!r} {fault}"
    if _weight_array([weight]) is None:  # the bulk check, so both accept the same
        return f"weight {weight!r} is not a number in [-1, 1]"
    j = first_seen.setdefault((origin, terminal), i)
    return f"repeats the (origin, terminal) pair of edge {j}" if j < i else None


def _edge_columns(edges: list, path: str) -> Columns:
    """The ``edges`` of the snapshot file at ``path`` as columns, checked at
    once (tokens once each); after a failed check, the :class:`ParseError`
    names the first edge that :func:`_edge_fault` rejects, and its fault."""
    if set(map(type, edges)) == {list} and set(map(len, edges)) == {3}:
        origins, terminals, weights = _transpose(edges, 3)
        if set(map(type, origins)) == {str} == set(map(type, terminals)):
            graph = graph_of(origins, terminals)
            weight = _weight_array(weights)
            if (weight is not None and _clean(graph.origins)
                    and _clean(graph.terminals) and not _repeats(graph)):
                return Columns.of(graph, weight)
    first_seen: dict = {}
    for i, edge in enumerate(edges):
        fault = _edge_fault(edge, i, first_seen)
        if fault:
            raise ParseError(f"edge {i}: {fault}", path=path)
    raise AssertionError("the bulk edge check rejects edges that each pass")


def load_snapshot(path) -> Snapshot:
    """Read a snapshot, rejecting what :func:`build_snapshot` cannot produce.

    Raises :class:`ParseError` naming the file (and the edge index, where
    there is one) for a missing key, a ``raw_weight_range`` that is not two
    finite numbers lo < hi, no edges, a bad edge (:func:`_edge_fault`; the
    first is named), or vertex lists that differ from the edges'
    first-appearance order.
    """
    # Reference counting frees the acyclic document; until it is dropped, the
    # cyclic collector would only walk its lists again and again.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_snapshot(path)
    finally:
        if enabled:
            gc.enable()


def _load_snapshot(path) -> Snapshot:
    where = str(path)
    try:
        payload = json.loads(utf8_text(read_bytes(path, "snapshot"), path))
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
    if not payload["edges"]:
        raise ParseError("snapshot has no edges", path=where)

    columns = _edge_columns(payload["edges"], where)
    for name, ids in (("origins", columns.src), ("terminals", columns.dst)):
        listed, expected = payload[name], list(getattr(columns, name))
        if listed == expected:
            continue
        j = next(
            (j for j, (a, b) in enumerate(zip(listed, expected)) if a != b),
            min(len(listed), len(expected)),
        )
        if j < len(expected):
            i = int(np.argmax(ids == j))  # ids number tokens by first appearance
            detail = f"expected {expected[j]!r}, first seen in edge {i}"
        else:
            detail = f"{listed[j]!r} appears in no edge"
        raise ParseError(
            f"{name} differ from the edges' first-appearance order at "
            f"position {j}: {detail}",
            path=where,
        )
    return Snapshot(columns, tuple(weight_range), payload["provenance"])
