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

A snapshot is the canonical form of a dataset: a graph of integer ids
(vertex token tables and ``src``/``dst`` arrays), the scaled weight of each
edge, the raw weight range and a provenance block; experiments run off
snapshots, never raw files.  The raw file is parsed a pass of lines at a
time, each token numbered as the pass reads it, so no list of the file's
fields is built.  The file is compact, key-sorted JSON of the same
arrays: the ``origins`` and ``terminals`` lists, then ``src``, ``dst`` and
``weight`` as base64 text of their little-endian ``uint32`` and ``float64``
entries, one per edge (:data:`SNAPSHOT_FORMAT`).  The digest hashes a JSON
header of the other members, then the bytes of those three arrays
(:data:`DIGEST_FORMAT`), so it does not depend on the file layout.  The
record-level functions (:func:`parse_edge_list`, :func:`make_split`,
``Snapshot.edges``) read the arrays back as :class:`EdgeRecord` objects.
All sampling uses numpy's PCG64 generator (recorded in every report) so
splits reproduce exactly from a seed.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import os
import re
import stat
import sys
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .countmetric import _ascending, count_classes
from .errors import (
    DomainError, ParseError, SettingError, check_float, check_int, json_value, read_bytes,
    utf8_text,
)
from .graph import DirectedGraph, WeightKind, _read_only, graph_of

PRNG_NAME = "numpy-pcg64"
SNAPSHOT_FORMAT = "weightpred-snapshot-v3"
# The layouts of 0.6.0 and before, whose files are told to re-run ingest.
_OLD_FORMATS = ("weightpred-snapshot-v1", "weightpred-snapshot-v2")
DIGEST_FORMAT = "weightpred-digest-v2"
# The snapshot file's base64 arrays and the little-endian type of an entry.
_ARRAYS = {"src": np.dtype("<u4"), "dst": np.dtype("<u4"), "weight": np.dtype("<f8")}
# Provenance nests at most this deep, far inside the digest's recursion limit.
_MAX_NESTING = 100

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


def _columns(lines: list, delimiter: Optional[str], expected: int) -> Optional[list]:
    """The fields of ``lines`` as ``expected`` columns, or ``None`` unless
    every line has that many.  Token fields of a delimited line are not yet
    stripped."""
    if delimiter is None or delimiter == " " or len(delimiter) > 1:
        rows = list(map(_split_line, lines, repeat(delimiter)))
        if set(map(len, rows)) != {expected}:
            return None
        return [list(map(itemgetter(k), rows)) for k in range(expected)]
    # One character: joined lines split into one flat list, no list per line.
    if set(map(str.count, lines, repeat(delimiter))) != {expected - 1}:
        return None
    fields = delimiter.join(lines).split(delimiter)
    return [fields[k::expected] for k in range(expected)]


# Characters per pass of the raw-file parse, each pass ending after a line
# boundary of str.splitlines ("\r\n" is one).
_PASS_CHARS = 1 << 16
_LINE_END = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _parse(spec: DatasetSpec, text: str) -> tuple:
    """The records of ``text``, the raw edge list at ``spec.path``, in file
    order: the graph of their (origin, terminal) pairs, repeats included,
    their weights, and their timestamps (``None`` without them), as float
    arrays.

    The text is split in passes of about :data:`_PASS_CHARS` characters,
    each ending just after a line boundary, so the passes' lines are the
    file's ``str.splitlines`` lines.  A pass numbers its tokens as it
    converts its numbers, so only one pass's fields are held at a time.  The
    columns are checked at once; if any check fails,
    :func:`_raise_at_first_bad_line` names the line.
    """
    width = 4 if spec.has_timestamp else 3
    ids = [defaultdict(count().__next__) for _ in range(2)]
    passes, start = [], 0  # per pass: src, dst, weight[, stamp]
    try:
        while start < len(text):
            cut = _LINE_END.search(text, start + _PASS_CHARS - 1)
            end = cut.end() if cut else len(text)
            lines = list(filter(None, map(str.strip, text[start:end].splitlines())))
            start = end
            if not lines:
                continue
            columns = _columns(lines, spec.delimiter, width)
            if columns is None:  # a line with another field count
                raise ValueError
            if not passes and _number(columns[2][0]) is None:
                columns = [column[1:] for column in columns]  # header row
            n = len(columns[0])
            passes.append(
                [np.fromiter(map(table.__getitem__, map(str.strip, column)), np.intp, n)
                 for table, column in zip(ids, columns)]
                + [np.fromiter(map(float, column), float, n) for column in columns[2:]])
    except ValueError:
        passes = []
    if passes:
        src, dst, weight, *stamp = map(np.concatenate, zip(*passes))
        lo, hi = spec.weight_range
        if (len(src) and ((weight >= lo) & (weight <= hi)).all()  # NaN fails
                and "" not in ids[0] and "" not in ids[1]
                and all(np.isfinite(s).all() for s in stamp)):
            graph = DirectedGraph(tuple(ids[0]), tuple(ids[1]), _read_only(src), _read_only(dst))
            return graph, weight, stamp[0] if stamp else None
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

    The records are read back from :func:`_parse`'s graph and arrays, in
    file order.  Raises :class:`ParseError` with the offending line number
    on malformed fields or weights outside the declared range.
    """
    graph, weight, stamp = _parse(spec, utf8_text(read_bytes(spec.path, "file"), spec.path))
    return list(map(EdgeRecord, graph.tokens(WeightKind.ORIGIN, graph.src),
                    graph.tokens(WeightKind.TERMINAL, graph.dst), weight.tolist(),
                    repeat(None) if stamp is None else stamp.tolist()))


def _pair_keys(graph: DirectedGraph) -> np.ndarray:
    """One integer per edge of ``graph``, equal for equal pairs."""
    return graph.src * len(graph.terminals) + graph.dst


def _repeats(graph: DirectedGraph) -> bool:
    """Whether two edges of ``graph`` have the same (origin, terminal) pair."""
    key = np.sort(_pair_keys(graph))
    return bool((key[1:] == key[:-1]).any())


def _collapse(graph: DirectedGraph, weight: np.ndarray, stamp: Optional[np.ndarray]) -> tuple:
    """Collapse the records of repeated pairs, record ``i`` being edge ``i``
    of ``graph`` with weight ``weight[i]`` and timestamp ``stamp[i]``
    (``stamp`` is ``None`` without timestamps).

    Returns the index of each pair's first record, in order, and each pair's
    weight as a float array: the latest record's when there are timestamps
    (ties: last in file order), else the mean of the pair's weights.
    """
    if not _repeats(graph):
        return np.arange(len(weight)), weight
    keys = _pair_keys(graph)
    # Each pair's records, in file order.
    _, records, ptr = count_classes(keys, np.arange(len(weight))).by_first_appearance()
    first, sizes = records[ptr[:-1]], np.diff(ptr)
    if stamp is not None:
        # Each pair's ranks in the stable time order, ascending: the last is
        # its latest record, and of tied ones the last in file order.
        by_time = _ascending(stamp)
        rank = np.empty_like(by_time)
        rank[by_time] = np.arange(len(by_time))
        _, ranks, _ = count_classes(keys, rank).by_first_appearance()
        return first, weight[by_time[ranks[ptr[1:] - 1]]]
    # Each pair's weights ascending, summed from 0.0: the bits of
    # stable_mean.  A lone record keeps its own bits, -0.0 included.
    _, ascending, _ = count_classes(keys, weight).by_first_appearance()
    means = np.bincount(np.repeat(np.arange(len(sizes)), sizes), weights=ascending) / sizes
    return first, np.where(sizes > 1, means, weight[first])


def _rescale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The affine map of each value from [lo, hi] onto [-1, 1].

    The exact image always lies in [-1, 1]; cancellation error for ranges
    with large offsets can overshoot by a few ulps, so the result is
    clamped back in.  Within ``DatasetSpec``'s bound on lo and hi, no step
    of the map overflows.
    """
    return np.minimum(np.maximum((2.0 * values - (lo + hi)) / (hi - lo), -1.0), 1.0)


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


def sample_edges(graph: DirectedGraph, plan: SplitPlan) -> tuple:
    """The sampled rows of ``graph`` (read-only), their subgraph, and the
    ``bit_generator`` state after the draw, which every task's split shares."""
    n = len(graph.src)
    size = plan.sample_size if plan.sample_size is not None else n
    if size > n:
        raise DomainError(f"sample_size {size} exceeds the {n} available records")
    rng = make_rng(plan.seed)
    rows = _read_only(rng.choice(n, size=size, replace=False))
    return rows, graph.subgraph(rows), rng.bit_generator.state


def split_ids(graph: DirectedGraph, plan: SplitPlan, task: str, sample=None) -> IdSplit:
    """Sample the edges of ``graph``, then partition the task's element set.

    The edge task partitions the sampled edges; the origin/terminal tasks
    partition the vertex set of the sampled subgraph, in its first-appearance
    order.  Everything is a pure function of (graph, plan, task).  ``sample``
    is :func:`sample_edges` of ``graph`` and ``plan``, if already drawn.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    rows, sampled, state = sample_edges(graph, plan) if sample is None else sample
    if task == "edge":
        order = np.arange(len(rows))
    else:
        rng = make_rng(plan.seed)
        rng.bit_generator.state = state
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
class Snapshot:
    """Canonical dataset form: a graph of scaled edges, plus provenance.

    Edge ``i`` of ``graph`` runs from ``origins[graph.src[i]]`` to
    ``terminals[graph.dst[i]]`` with weight ``weight[i]`` in [-1, 1], no
    pair repeats, and ``origins`` and ``terminals`` are the edges' tokens in
    order of first appearance.  :func:`build_snapshot` makes such a
    snapshot and :func:`load_snapshot` checks all of that; ``Snapshot(graph,
    weight, ...)`` checks nothing.  :meth:`digest` identifies a snapshot
    (``==`` is identity).
    """

    graph: DirectedGraph
    weight: np.ndarray
    raw_weight_range: tuple
    provenance: dict

    @property
    def origins(self) -> tuple:
        return self.graph.origins

    @property
    def terminals(self) -> tuple:
        return self.graph.terminals

    @functools.cached_property
    def edges(self) -> tuple:
        """The edges as :class:`EdgeRecord` objects, built on first use."""
        g = self.graph
        return tuple(map(
            EdgeRecord,
            g.tokens(WeightKind.ORIGIN, g.src),
            g.tokens(WeightKind.TERMINAL, g.dst),
            self.weight.tolist(),
        ))

    def digest(self) -> str:
        """``"sha256:"`` and the hex SHA-256 of the compact, key-sorted
        ``json.dumps`` of ``format`` (:data:`DIGEST_FORMAT`), ``origins``,
        ``terminals``, ``provenance`` and ``raw_weight_range``, a line
        break, then the little-endian bytes of ``src``, ``dst`` and
        ``weight`` (:data:`_ARRAYS`), the bytes the snapshot file's base64
        members hold; computed once per snapshot.  A non-finite provenance
        number is spelled ``NaN`` or ``Infinity``.  Raises ``ValueError``
        for a side of 2**32 or more vertices."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        entries = _entries(self)  # the vertex count is checked first
        g = self.graph
        header = json.dumps({"format": DIGEST_FORMAT, "origins": g.origins,
                             "terminals": g.terminals, "provenance": self.provenance,
                             "raw_weight_range": list(self.raw_weight_range)},
                            sort_keys=True, separators=(",", ":"))
        sha = hashlib.sha256(header.encode() + b"\n")
        for values in entries:
            sha.update(values)
        return "sha256:" + sha.hexdigest()

    @functools.cached_property
    def _memo(self) -> dict:
        """Steps that runs on this snapshot share: level -> ``(key, value)``
        of the level's last key (see ``evaluation.run_experiment``)."""
        return {}


def _entries(snapshot: Snapshot):
    """``src``, ``dst`` and ``weight`` of ``snapshot`` as contiguous arrays
    of their little-endian entries (:data:`_ARRAYS`), each made as it is
    read.  Raises ``ValueError`` at once for a side of 2**32 or more
    vertices, whose ids overflow uint32."""
    g = snapshot.graph
    if max(len(g.origins), len(g.terminals)) >= 2**32:
        raise ValueError("a snapshot numbers at most 2**32 vertices a side")
    return map(np.ascontiguousarray, (g.src, g.dst, snapshot.weight), _ARRAYS.values())


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
    source_sha256 = hashlib.sha256(data).hexdigest()
    text, data = utf8_text(data, spec.path), None  # the parse holds the text alone
    graph, weight, stamp = _parse(spec, text)
    del text
    rows, weight = _collapse(graph, weight, stamp)
    lo, hi = spec.weight_range
    weight = _rescale(weight, lo, hi)
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
        graph=graph,
        weight=_read_only(weight),
        raw_weight_range=(float(lo), float(hi)),
        provenance={
            "source_path": Path(spec.path).name,
            "source_sha256": source_sha256,
            "sampling": sampling,
        },
    )


# Top-level snapshot keys besides "format", and the JSON type each holds.
_SNAPSHOT_KEYS = {"raw_weight_range": list, "origins": list, "terminals": list,
                  **dict.fromkeys(_ARRAYS, str), "provenance": dict}


def _write_file(path, data) -> None:
    """Write ``data``, text as UTF-8 or a list of bytes parts in order, to
    ``path``, as a new file where one can be.

    Every file the package writes goes through here.  Text is encoded
    before the path is touched, so a text UTF-8 cannot encode leaves an
    existing file as it was.  A regular file with one link that the caller
    may write is unlinked, and the new file takes its permission bits: on
    ext4, truncating in place (or renaming over) makes the file's blocks be
    allocated at close (``auto_da_alloc``), and freeing allocated blocks on
    the next rewrite took about 0.1 s, where a new file's blocks wait for
    the kernel's writeback (about 30 s).  The price is that window: a power
    loss in it can leave the path empty, with the old bytes gone.  A
    symlink, a hard-linked file, or a file that cannot be unlinked is
    written through, truncated in place.
    """
    parts = [data.encode("utf-8")] if isinstance(data, str) else data
    mode = None
    try:
        old = os.lstat(path)
        if stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and os.access(path, os.W_OK):
            os.unlink(path)
            mode = old.st_mode & 0o777
    except OSError:
        pass  # no file there, or one to write through
    if mode is None:
        with open(path, "wb") as f:
            f.writelines(parts)
        return
    # Created exclusively, so a link planted after the unlink is refused,
    # and never wider than the old mode, so no reader opens it in between.
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags | os.O_EXCL, mode)) as f:
        os.fchmod(f.fileno(), mode)  # the umask may have narrowed it
        f.writelines(parts)


def save_snapshot(snapshot: Snapshot, path) -> None:
    """Write ``json.dumps(form, sort_keys=True, separators=(",", ":"))`` of
    the snapshot's file form (:data:`SNAPSHOT_FORMAT`) and a line break,
    the three base64 arrays spliced in as bytes between the other members.
    Raises ``ValueError``, writing nothing, for a side of 2**32 or more
    vertices, whose ids overflow uint32, or a non-finite provenance number."""
    src, dst, weight = map(base64.b64encode, _entries(snapshot))
    g = snapshot.graph
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"),
                              allow_nan=False)
    middle = dumps({"format": SNAPSHOT_FORMAT, "origins": g.origins,
                    "provenance": snapshot.provenance,
                    "raw_weight_range": list(snapshot.raw_weight_range)})[1:-1]
    # The members in key order: dst, format ... raw_weight_range, src, terminals, weight.
    _write_file(path, [b'{"dst":"', dst, b'",', middle.encode(), b',"src":"', src,
                       b'","terminals":', dumps(g.terminals).encode(), b',"weight":"', weight,
                       b'"}\n'])


# A code point UTF-8 cannot encode: JSON can spell a lone surrogate.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _clean(table: tuple) -> bool:
    """Whether the entries of ``table`` are distinct ``str`` tokens, none
    empty, padded, holding a line boundary or not UTF-8 text, each token
    then ending one line of the joined table (a trailing ``"\\r"`` merges
    with its ``"\\n"``, but it is padding)."""
    if set(map(type, table)) != {str} or len(set(table)) != len(table):
        return False
    joined = "\n".join([*table, ""])
    return ("" not in table and tuple(map(str.strip, table)) == table
            and len(joined.splitlines()) == len(table) and not _SURROGATE.search(joined))


def _listed_ids(ids: np.ndarray, n: int) -> Optional[np.ndarray]:
    """``ids`` as a read-only ``intp`` array, or ``None`` unless they number
    ``n`` vertices in order of first appearance: the first id is 0, each at
    most one above the running maximum before it, the last maximum ``n - 1``."""
    ids = ids.astype(np.intp)  # signed, so np.diff cannot wrap
    if ids[0] or ids.max() != n - 1 or (np.diff(np.maximum.accumulate(ids)) > 1).any():
        return None
    return _read_only(ids)


def _snapshot_columns(payload: dict, path: str) -> tuple:
    """The graph and weights of ``payload``, the snapshot file at ``path``'s
    document: ``src``, ``dst`` and ``weight`` as ``base64.b64decode(text,
    validate=True)`` reads them, then the rest checked at once; after a
    failed check the :class:`ParseError` names the first bad entry."""
    arrays = []
    for key, dtype in _ARRAYS.items():  # a fault here is the first one
        try:  # refuses bad base64 text, and a partial last entry
            arrays.append(np.frombuffer(base64.b64decode(payload[key], validate=True), dtype))
        except ValueError:
            raise ParseError(f"{key} is not base64 text of {dtype.itemsize}-byte entries",
                             path=path) from None
    origins, terminals = tuple(payload["origins"]), tuple(payload["terminals"])
    if (len(set(map(len, arrays))) == 1 and len(arrays[0])
            and _clean(origins) and _clean(terminals)):
        src, dst, weight = arrays
        src, dst = _listed_ids(src, len(origins)), _listed_ids(dst, len(terminals))
        if (src is not None and dst is not None
                and ((weight >= -1.0) & (weight <= 1.0)).all()):  # NaN fails
            graph = DirectedGraph(origins, terminals, src, dst)
            if not _repeats(graph):
                return graph, _read_only(weight.astype(float, copy=False))
    raise ParseError(_snapshot_fault(payload, arrays), path=path)


def _token_fault(token) -> Optional[str]:
    """What is wrong with ``token``, a vertex list entry, or ``None``: it
    must be a nonempty string with no leading or trailing whitespace (which
    parsing strips), no ``str.splitlines`` line boundary (on which parsing
    splits), and be UTF-8 text."""
    if type(token) is not str:
        return f"expected a token string, got {token!r}"
    if not token:
        return "empty token"
    for bad, fault in ((lambda t: t != t.strip(), "has leading or trailing whitespace"),
                       (lambda t: t.splitlines() != [t], "holds a line boundary"),
                       (_SURROGATE.search, "is not UTF-8 text")):
        if bad(token):
            return f"token {token!r} {fault}"
    return None


def _snapshot_fault(payload: dict, arrays: list) -> str:
    """What is wrong with the edges and vertex lists of ``payload``, a
    snapshot file's document whose ``src``, ``dst`` and ``weight`` decode to
    ``arrays``, located at the first bad entry.  In order: the arrays have
    one length, above 0; per edge, its ``src`` and ``dst`` index ``origins``
    and ``terminals``, each at most one above the largest id before it in
    its list (first-appearance order), then a weight in [-1, 1] and a new
    pair; per entry of ``origins``, then of ``terminals``, a token that
    passes :func:`_token_fault`, is not an earlier entry and is named by an
    edge."""
    src, dst, weights = (a.tolist() for a in arrays)
    if not len(src) == len(dst) == len(weights):
        return f"src, dst and weight differ in length: {len(src)}, {len(dst)} and {len(weights)}"
    if not weights:
        return "snapshot has no edges"
    tables = (("origins", "src"), ("terminals", "dst"))
    top, first_seen = [-1, -1], {}
    for i, pair in enumerate(zip(src, dst)):
        for side, (name, column) in enumerate(tables):
            n, v = len(payload[name]), pair[side]
            if v >= n:
                return f"edge {i}: {column} {v} is not an id in [0, {n})"
            if v > top[side] + 1:
                return (f"edge {i}: {column} {v} breaks first-appearance order "
                        f"(the next new id is {top[side] + 1})")
            top[side] = max(top[side], v)
        if not -1.0 <= weights[i] <= 1.0:
            return f"edge {i}: weight {weights[i]!r} is not a number in [-1, 1]"
        j = first_seen.setdefault(pair, i)
        if j < i:
            return f"edge {i}: repeats the (origin, terminal) pair of edge {j}"
    for side, (name, _) in enumerate(tables):
        first_entry: dict = {}
        for j, token in enumerate(payload[name]):
            k = first_entry.setdefault(token, j) if type(token) is str else j
            fault = (_token_fault(token) or (k < j and f"repeats entry {k}")
                     or (j > top[side] and f"{token!r} appears in no edge"))
            if fault:
                return f"{name} entry {j}: {fault}"
    raise AssertionError("the bulk snapshot check rejects a file whose entries all pass")


def _nesting(value) -> int:
    """How deep ``value``, a JSON value, nests lists and objects, a level at a time."""
    depth, level = 0, [value]
    while containers := [x for x in level if isinstance(x, (list, dict))]:
        depth += 1
        level = [v for x in containers for v in (x.values() if isinstance(x, dict) else x)]
    return depth


def load_snapshot(path) -> Snapshot:
    """Read a snapshot file, rejecting what :func:`save_snapshot` cannot write.

    Raises :class:`ParseError` naming the file, and the edge or list entry
    where there is one: for a file of another format (a file of an earlier
    version is told to re-run ``weightpred ingest``), a missing or unknown
    key, a provenance nesting deeper than :data:`_MAX_NESTING` or holding a
    non-finite number, a ``raw_weight_range`` that is not two finite
    numbers lo < hi, or edges and vertex lists that break a rule of
    :func:`_snapshot_columns` (the first bad entry is named).
    """
    where = str(path)
    payload = json_value(utf8_text(read_bytes(path, "snapshot"), path), where)
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != SNAPSHOT_FORMAT:
        hint = (f": {found} files are no longer read; re-run `weightpred ingest` on the "
                "raw edge list" if found in _OLD_FORMATS else "")
        raise ParseError(f"not a {SNAPSHOT_FORMAT} file (format={found!r}){hint}", path=where)
    for key, kind in _SNAPSHOT_KEYS.items():
        if not isinstance(payload.get(key), kind):
            raise ParseError(f"key {key!r} is missing or not a JSON {kind.__name__}", path=where)
    extra = sorted(payload.keys() - _SNAPSHOT_KEYS.keys() - {"format"})
    if extra:
        raise ParseError(f"unknown key {extra[0]!r}", path=where)
    if _nesting(payload["provenance"]) > _MAX_NESTING:
        raise ParseError(f"provenance nests deeper than {_MAX_NESTING} levels", path=where)
    try:  # as save_snapshot writes it
        json.dumps(payload["provenance"], allow_nan=False)
    except ValueError:
        raise ParseError("provenance holds a non-finite number", path=where) from None
    weight_range = payload["raw_weight_range"]
    if not (len(weight_range) == 2
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in weight_range)
            and float(weight_range[0]) < float(weight_range[1])):
        raise ParseError(f"raw_weight_range {weight_range!r} is not two finite numbers lo < hi",
                         path=where)
    return Snapshot(*_snapshot_columns(payload, where), tuple(map(float, weight_range)),
                    payload["provenance"])  # floats, so the digest ignores the spelling
