"""Edge-list ingestion, weight rescaling, snapshots, and seeded splits.

Input files are delimited text, one edge per line::

    origin,terminal,weight[,timestamp]

(the Bitcoin-OTC ``source,target,rating,time`` layout).  Comma and
whitespace delimiters are supported; a leading header line is skipped when
its weight field is not numeric.  Weights must lie inside the declared raw
range and are rescaled to [-1, 1] with the affine map
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
from .errors import DomainError, ParseError, SettingError

PRNG_NAME = "numpy-pcg64"
SNAPSHOT_FORMAT = "weightpred-snapshot-v1"
SCALED_RANGE = (-1.0, 1.0)


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide seeded generator (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class DatasetSpec:
    """Where a raw edge list lives and how to read it."""

    path: str
    weight_range: tuple  # declared raw (a, b)
    has_timestamp: bool = False
    delimiter: Optional[str] = ","  # None -> auto (comma if present, else whitespace)

    def __post_init__(self):
        a, b = self.weight_range
        if not a < b:
            raise ValueError(f"weight range [{a}, {b}] is empty")


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
        delimiter = "," if "," in line else None  # None -> any whitespace
    if delimiter is None or delimiter.isspace():
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
            out.append(max(group, key=lambda r: r.timestamp))
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
        if self.seed < 0:
            raise SettingError("seed", f"must be >= 0, got {self.seed!r}")
        if (self.train_count is None) == (self.train_fraction is None):
            raise SettingError("train_count", "must be set exactly when train_fraction is not")
        if self.train_count is not None and self.train_count < 1:
            raise SettingError("train_count", f"must be >= 1, got {self.train_count!r}")
        if self.train_fraction is not None and not 0.0 < self.train_fraction < 1.0:
            raise SettingError(
                "train_fraction", f"must be in (0, 1), got {self.train_fraction!r}"
            )
        if self.sample_size is not None and self.sample_size < 2:
            raise SettingError("sample_size", f"must be >= 2, got {self.sample_size!r}")

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
    """Train/test partition plus the sampled edge set it came from."""

    task: str  # origin | terminal | edge
    train: tuple  # EdgeRecords (edge task) or vertex tokens
    test: tuple
    sampled: tuple  # EdgeRecords forming the experiment's graph
    plan: SplitPlan


TASKS = ("origin", "terminal", "edge")


def make_split(records: Sequence[EdgeRecord], plan: SplitPlan, task: str) -> Split:
    """Sample the edge universe, then partition the task's element set.

    The edge task partitions the sampled edges; the origin/terminal tasks
    partition the vertex set of the sampled subgraph.  Everything is a pure
    function of (records, plan, task).
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    records = list(records)
    n = len(records)
    size = plan.sample_size if plan.sample_size is not None else n
    if size > n:
        raise DomainError(f"sample_size {size} exceeds the {n} available records")

    rng = make_rng(plan.seed)
    idx = rng.choice(n, size=size, replace=False)
    sampled = [records[i] for i in idx]

    if task == "edge":
        train_size = plan.resolve_train_size(len(sampled))
        train, test = sampled[:train_size], sampled[train_size:]
    else:
        pos = 0 if task == "origin" else 1
        vertices = list(dict.fromkeys(rec.pair[pos] for rec in sampled))
        perm = rng.permutation(len(vertices))
        shuffled = [vertices[i] for i in perm]
        train_size = plan.resolve_train_size(len(shuffled))
        train, test = shuffled[:train_size], shuffled[train_size:]

    return Split(
        task=task,
        train=tuple(train),
        test=tuple(test),
        sampled=tuple(sampled),
        plan=plan,
    )


@dataclass(frozen=True)
class Snapshot:
    """Canonical dataset form: scaled edges plus provenance."""

    edges: tuple  # EdgeRecords with weights already in [-1, 1]
    origins: tuple
    terminals: tuple
    raw_weight_range: tuple
    provenance: dict

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
        origins=tuple(dict.fromkeys(r.origin for r in scaled)),
        terminals=tuple(dict.fromkeys(r.terminal for r in scaled)),
        raw_weight_range=(float(lo), float(hi)),
        provenance={
            "source_path": str(spec.path),
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
    there is one) for a missing key, no edges, an edge that is not ``[origin,
    terminal, weight]`` with a finite weight in [-1, 1], a repeated
    (origin, terminal) pair, or vertex lists that differ from the edges'
    first-appearance order.
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

    raw = payload["edges"]
    if not raw:
        raise ParseError("snapshot has no edges", path=where)
    by_origin: dict = {}  # origin -> {terminal: edge index}
    for i, edge in enumerate(raw):
        if not (type(edge) is list and len(edge) == 3
                and type(edge[0]) is str and type(edge[1]) is str):
            raise ParseError(
                f"edge {i}: expected [origin, terminal, weight], got {edge!r}",
                path=where,
            )
        o, t, w = edge
        # NaN fails the range comparison, so this also rejects non-finite weights.
        if type(w) not in (int, float) or not -1.0 <= w <= 1.0:
            raise ParseError(
                f"edge {i}: weight {w!r} is not a number in [-1, 1]", path=where
            )
        seen = by_origin.get(o)
        if seen is None:
            seen = by_origin[o] = {}
        j = seen.setdefault(t, i)
        if j != i:
            raise ParseError(
                f"edge {i}: repeats the (origin, terminal) pair of edge {j}", path=where
            )

    for name, pos in (("origins", 0), ("terminals", 1)):
        listed = payload[name]
        expected = list(dict.fromkeys(edge[pos] for edge in raw))
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
    return Snapshot(
        edges=tuple(EdgeRecord(o, t, float(w), None) for o, t, w in raw),
        origins=tuple(payload["origins"]),
        terminals=tuple(payload["terminals"]),
        raw_weight_range=tuple(payload["raw_weight_range"]),
        provenance=payload["provenance"],
    )
