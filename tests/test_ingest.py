"""Parsing, rescaling, duplicate collapse, snapshots, and seeded splits."""

import gc
import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightpred import (
    DatasetSpec,
    DomainError,
    EdgeRecord,
    ParseError,
    Snapshot,
    SplitPlan,
    build_snapshot,
    load_snapshot,
    make_split,
    parse_edge_list,
    rescale,
    rescale_inverse,
    save_snapshot,
)
from weightpred.errors import SettingError
from weightpred.graph import graph_of
from weightpred.ingest import SNAPSHOT_FORMAT, Columns, _rescale

from helpers import (
    LINE_BOUNDARIES, reference_edge_fault, reference_ingest, reference_line_fault,
    snapshot_of, write_rating_file,
)


def _spec(path, rng=(-10.0, 10.0), ts=True, delim=","):
    return DatasetSpec(path=str(path), weight_range=rng, has_timestamp=ts, delimiter=delim)


class TestParseEdgeList:
    def test_bitcoin_style_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("6,2,4,1289241911\n")
        (rec,) = parse_edge_list(_spec(p))
        assert (rec.origin, rec.terminal, rec.weight, rec.timestamp) == (
            "6", "2", 4.0, 1289241911,
        )

    def test_out_of_range_weight_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,4,10\na,b,99,20\n")
        with pytest.raises(ParseError) as err:
            parse_edge_list(_spec(p))
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            parse_edge_list(_spec(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_edge_list(_spec(tmp_path / "nope.csv"))

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n")
        with pytest.raises(ParseError) as err:
            parse_edge_list(_spec(p))  # timestamps declared -> 4 fields
        assert err.value.line == 1

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("source,target,rating,time\n6,2,4,10\n")
        records = parse_edge_list(_spec(p))
        assert len(records) == 1

    @pytest.mark.parametrize("line,problem", [
        ("a,b,inf,20", "weight 'inf' is not finite"),
        ("a,b,nan,20", "weight 'nan' is not finite"),
        (",b,4,20", "empty origin or terminal token"),
        ("a, ,4,20", "empty origin or terminal token"),
        ("a,b,4,soon", "timestamp field 'soon' is not a number"),
        ("a,b,4,nan", "timestamp 'nan' is not finite"),
        ("a,b,4,-inf", "timestamp '-inf' is not finite"),
    ])
    def test_bad_field_names_line(self, tmp_path, line, problem):
        p = tmp_path / "d.csv"
        p.write_text(f"1,2,4,10\n{line}\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 2: {problem}")):
            parse_edge_list(_spec(p))

    def test_non_numeric_weight_midfile_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("6,2,4,10\n7,3,bad,11\n")
        with pytest.raises(ParseError) as err:
            parse_edge_list(_spec(p))
        assert err.value.line == 2

    def test_whitespace_delimiter(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("6 2 4\n7 3 -1\n")
        records = parse_edge_list(_spec(p, ts=False, delim=" "))
        assert [r.weight for r in records] == [4.0, -1.0]

    def test_tab_delimiter_keeps_spaces_in_tokens(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("alice smith\tbob\t5\n")
        records = parse_edge_list(_spec(p, ts=False, delim="\t"))
        assert records[0].pair == ("alice smith", "bob")

    def test_multi_character_delimiter(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("a::b::1\nc::d::2:\n:e::f::3\n")
        with pytest.raises(ParseError, match="line 2: weight field '2:' is not a number"):
            parse_edge_list(_spec(p, ts=False, delim="::"))

    def test_auto_delimiter(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("6\t2\t4\n")
        records = parse_edge_list(_spec(p, ts=False, delim=None))
        assert records[0].pair == ("6", "2")


@pytest.mark.parametrize("weight_range,delimiter,setting", [
    ((-math.inf, 10.0), ",", "weight_min"),
    ((-10.0, math.nan), ",", "weight_max"),
    ((5.0, 1.0), ",", "weight_min"),
    ((-10.0, 10.0), "", "delimiter"),
    ((False, True), ",", "weight_min"),
    ((-10.0, "10"), ",", "weight_max"),
    ((1e308, 1.7e308), ",", "weight_min"),
    ((-1.0, 1e308), ",", "weight_max"),
], ids=["min-infinite", "max-nan", "reversed", "empty-delimiter", "bools", "string",
        "min-above-half-the-largest-float", "max-above-half-the-largest-float"])
def test_dataset_spec_rejects_bad_setting(tmp_path, weight_range, delimiter, setting):
    with pytest.raises(SettingError) as err:
        _spec(tmp_path / "d.csv", rng=weight_range, delim=delimiter)
    assert err.value.setting == setting


def _collapsed(path, rows, ts):
    """The (origin, terminal, weight) edges ``build_snapshot`` makes of a raw
    file of ``rows``; over the range [-1, 1] rescaling keeps every bit."""
    path.write_text("".join(",".join(map(str, row[:3 + ts])) + "\n" for row in rows))
    snap = build_snapshot(_spec(path, rng=(-1.0, 1.0), ts=ts))
    return [(r.origin, r.terminal, r.weight) for r in snap.edges]


class TestCollapseDuplicates:
    def test_latest_timestamp_wins(self, tmp_path):
        rows = [("a", "b", 0.1, 100), ("a", "b", 0.5, 300), ("a", "b", 0.3, 200)]
        assert _collapsed(tmp_path / "d.csv", rows, True) == [("a", "b", 0.5)]

    def test_timestamp_tie_goes_to_last_record(self, tmp_path):
        rows = [("a", "b", 0.1, 5.0), ("a", "b", 0.2, 5.0)]
        assert _collapsed(tmp_path / "d.csv", rows, True) == [("a", "b", 0.2)]

    def test_mean_without_timestamps(self, tmp_path):
        rows = [("a", "b", 0.1), ("c", "d", -0.0), ("a", "b", 0.2)]
        (ab, cd) = _collapsed(tmp_path / "d.csv", rows, False)
        assert ab == ("a", "b", pytest.approx(0.15))
        assert cd == ("c", "d", 0.0)
        assert math.copysign(1.0, cd[2]) == -1.0  # a lone record is kept as is

    def test_distinct_pairs_untouched(self, tmp_path):
        rows = [("a", "b", 0.1, 5), ("a", "c", 0.2, 6)]
        assert _collapsed(tmp_path / "d.csv", rows, True) == [r[:3] for r in rows]

    @given(st.booleans(), st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1),
                  # 0.1 + 0.2 + 0.3 rounds differently in another order.
                  st.one_of(st.floats(-1.0, 1.0),
                            st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1 / 3])),
                  st.integers(0, 3)),
        min_size=1, max_size=60,
    ))
    # Added in file order, 0.3 + 0.2 + 0.1 is 0.6; ascending, it is 0.6000000000000001.
    @example(False, [(0, 0, 0.3, 0), (1, 1, -0.0, 0), (0, 0, 0.2, 0), (0, 0, 0.1, 0)])
    @settings(deadline=None)
    def test_matches_a_dict_oracle(self, tmp_path_factory, ts, rows):
        """Many rows over six pairs, with or without a timestamp column,
        ties and ``-0.0``, compared bit for bit with a dict oracle."""
        rows = [(f"o{o}", f"t{t}", w, stamp) for o, t, w, stamp in rows]
        groups = {}
        for row in rows:
            groups.setdefault(row[:2], []).append(row)
        want = []
        for (o, t), group in groups.items():
            if ts:
                latest = max(row[3] for row in group)
                want.append((o, t, [row for row in group if row[3] == latest][-1][2]))
            elif len(group) == 1:  # a lone record is kept as is, -0.0 included
                want.append((o, t, group[0][2]))
            else:
                total = 0.0
                for w in sorted(row[2] for row in group):
                    total += w
                want.append((o, t, total / len(group)))

        def bits(edges):
            return [(o, t, w.hex()) for o, t, w in edges]

        path = tmp_path_factory.mktemp("collapse") / "d.csv"
        assert bits(_collapsed(path, rows, ts)) == bits(want)


class TestRescale:
    def test_golden_values(self):
        assert rescale(5.0, 1.0, 5.0) == 1.0
        assert rescale(1.0, 1.0, 5.0) == -1.0
        assert rescale(3.0, 1.0, 5.0) == 0.0
        assert rescale(4.0, -10.0, 10.0) == 0.4
        assert rescale(0.37, -1.0, 1.0) == 0.37  # identity on [-1, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            rescale(99.0, -10.0, 10.0)

    def test_roundtrip_exact_on_standard_ranges(self):
        for lo, hi in ((-10.0, 10.0), (1.0, 5.0), (-1.0, 1.0)):
            for frac in np.linspace(0.0, 1.0, 23):
                value = lo + frac * (hi - lo)
                back = rescale_inverse(rescale(value, lo, hi), lo, hi)
                assert back == pytest.approx(value, abs=1e-12)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=120)
    def test_roundtrip_and_monotone(self, lo, width, frac):
        hi = lo + max(width, 0.0) + 1.0
        value = min(max(lo + frac * (hi - lo), lo), hi)
        scaled = rescale(value, lo, hi)
        assert -1.0 - 1e-12 <= scaled <= 1.0 + 1e-12
        back = rescale_inverse(scaled, lo, hi)
        assert back == pytest.approx(value, abs=1e-12 * max(1.0, abs(hi), abs(lo)))
        nudged = min(value + (hi - lo) * 1e-3, hi)
        assert rescale(nudged, lo, hi) >= scaled

    @pytest.mark.parametrize("lo,hi", [(1e308, 1.7e308), (-1e308, 1e308), (-1.0, 9e307)])
    def test_a_bound_above_half_the_largest_float_is_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="has a bound above"):
            rescale(hi, lo, hi)

    @given(st.data())
    @settings(max_examples=200)
    def test_in_range_values_map_into_the_unit_interval(self, data):
        """Within ``DatasetSpec``'s bound, ``2w``, ``lo + hi`` and ``hi - lo``
        are finite, so every image is a number in [-1, 1]."""
        bound = sys.float_info.max / 2
        ends = st.floats(-bound, bound) | st.sampled_from([-bound, bound, 0.0])
        lo, hi = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
        inside = st.floats(lo, hi) | st.sampled_from([lo, hi])
        scaled = _rescale(np.array(data.draw(st.lists(inside, min_size=1, max_size=8))), lo, hi)
        assert ((scaled >= -1.0) & (scaled <= 1.0)).all()  # NaN fails


def _records(n):
    return [EdgeRecord(f"o{i % 17}", f"t{i % 23}", ((i * 7) % 21 - 10) / 10.0) for i in range(n)]


class TestMakeSplit:
    def test_edge_counts(self):
        plan = SplitPlan(seed=3, sample_size=5000, train_count=3500)
        split = make_split(_records(6000), plan, "edge")
        assert len(split.train) == 3500
        assert len(split.test) == 1500
        assert len(split.sampled) == 5000

    def test_deterministic(self):
        plan = SplitPlan(seed=9, sample_size=100, train_count=70)
        a = make_split(_records(500), plan, "edge")
        b = make_split(_records(500), plan, "edge")
        assert a == b

    def test_seed_changes_split(self):
        r = _records(500)
        a = make_split(r, SplitPlan(seed=1, sample_size=100, train_count=70), "edge")
        b = make_split(r, SplitPlan(seed=2, sample_size=100, train_count=70), "edge")
        assert a.train != b.train

    def test_fraction_floors(self):
        # 10 distinct origins, 0.7 -> train exactly 7.
        records = [EdgeRecord(f"o{i}", "t", 0.1) for i in range(10)]
        plan = SplitPlan(seed=4, train_fraction=0.7)
        split = make_split(records, plan, "origin")
        assert len(split.train) == 7
        assert len(split.test) == 3

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(5)
        for task in ("edge", "origin", "terminal"):
            plan = SplitPlan(seed=int(rng.integers(1000)), train_fraction=0.7)
            split = make_split(_records(200), plan, task)
            train, test = set(split.train), set(split.test)
            assert not train & test
            if task == "edge":
                assert train | test == set(split.sampled)
            else:
                pos = 0 if task == "origin" else 1
                assert train | test == {r.pair[pos] for r in split.sampled}

    def test_sample_size_exceeding_data(self):
        plan = SplitPlan(seed=0, sample_size=5000, train_count=3500)
        with pytest.raises(DomainError):
            make_split(_records(100), plan, "edge")

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SplitPlan(seed=0)  # neither count nor fraction
        with pytest.raises(ValueError):
            SplitPlan(seed=0, train_count=10, train_fraction=0.5)
        with pytest.raises(ValueError):
            SplitPlan(seed=0, train_fraction=1.5)
        with pytest.raises(ValueError):
            SplitPlan(seed=0, train_count=0)
        with pytest.raises(ValueError):
            SplitPlan(seed=-1, train_fraction=0.5)

    def test_train_must_leave_a_test_set(self):
        plan = SplitPlan(seed=0, train_count=10)
        with pytest.raises(DomainError):
            make_split(_records(10), plan, "edge")


class TestSnapshot:
    def _write_raw(self, tmp_path, n=40):
        lines = [f"o{i % 7},t{i % 9},{(i % 21) - 10},{1000 + i}" for i in range(n)]
        p = tmp_path / "raw.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_roundtrip(self, tmp_path):
        raw = self._write_raw(tmp_path)
        snap = build_snapshot(_spec(raw))
        out = tmp_path / "snap.json"
        save_snapshot(snap, out)
        _assert_same_snapshot(load_snapshot(out), snap)

    @given(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6),
              st.one_of(st.integers(-10, 10), st.floats(-10.0, 10.0))),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_keeps_digest_and_bytes(self, tmp_path_factory, rows):
        root = tmp_path_factory.mktemp("roundtrip")
        raw = root / "raw.csv"
        raw.write_text("".join(
            f"o{o},t{t},{w},{1000 + i}\n" for i, (o, t, w) in enumerate(rows)
        ))
        built = build_snapshot(_spec(raw))
        first, second = root / "first.json", root / "second.json"
        save_snapshot(built, first)
        loaded = load_snapshot(first)
        assert loaded.digest() == built.digest()
        save_snapshot(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert load_snapshot(second).digest() == built.digest()

    def test_columns_hold_the_edges_as_ids(self, tmp_path):
        snap = build_snapshot(_spec(self._write_raw(tmp_path)))
        columns = snap.columns
        assert columns is snap.columns  # built once
        assert (columns.origins, columns.terminals) == (snap.origins, snap.terminals)
        assert columns.edges == tuple(r.pair for r in snap.edges)
        assert columns.weight.tolist() == [r.weight for r in snap.edges]

    def test_columns_reject_a_repeated_pair(self, tmp_path):
        path = tmp_path / "snap.json"
        _write_edges(path, [["a", "x", 0.1], ["b", "x", 0.2], ["a", "x", 0.3]])
        message = "edge 2: repeats the (origin, terminal) pair of edge 0"
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_snapshot(path)

    def test_a_snapshot_is_its_digest_and_not_its_weight_values(self):
        """``0.0 == -0.0``, yet the snapshot file spells them apart: two
        snapshots that differ only there have equal weight values but
        different weight bytes and digests.  ``==`` is identity."""
        plus, minus = snapshot_of([("a", "x", 0.0)]), snapshot_of([("a", "x", -0.0)])
        assert np.array_equal(plus.columns.weight, minus.columns.weight)
        assert plus.columns.weight.tobytes() != minus.columns.weight.tobytes()
        assert plus.digest() != minus.digest()
        assert plus != snapshot_of([("a", "x", 0.0)])

    def test_non_finite_provenance_keeps_the_digest_form(self, tmp_path):
        """``load_snapshot`` does not look inside ``provenance``: a NaN there
        loads, and the digest spells it as compact ``json.dumps`` does.  Only
        the saved form refuses it."""
        out = tmp_path / "snap.json"
        save_snapshot(build_snapshot(_spec(self._write_raw(tmp_path))), out)
        payload = json.loads(out.read_text())
        payload["provenance"]["note"] = float("nan")
        out.write_text(json.dumps(payload))
        snap = load_snapshot(out)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert snap.digest() == "sha256:" + hashlib.sha256(blob.encode()).hexdigest()
        again = tmp_path / "again.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_snapshot(snap, again)
        assert not again.exists()
        again.write_bytes(b"kept")
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_snapshot(snap, again)
        assert again.read_bytes() == b"kept"

    def test_digest_independent_of_directory(self, tmp_path):
        raw = self._write_raw(tmp_path)
        moved = tmp_path / "elsewhere" / raw.name
        moved.parent.mkdir()
        moved.write_bytes(raw.read_bytes())
        here, there = build_snapshot(_spec(raw)), build_snapshot(_spec(moved))
        assert here.provenance["source_path"] == "raw.csv"
        assert here.digest() == there.digest()

    def test_weights_scaled(self, tmp_path):
        raw = self._write_raw(tmp_path)
        snap = build_snapshot(_spec(raw))
        assert all(-1.0 <= r.weight <= 1.0 for r in snap.edges)

    def test_empty_sample_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sample_size"):
            build_snapshot(_spec(self._write_raw(tmp_path)), sample_size=0, seed=8)

    @pytest.mark.parametrize("kwargs,setting", [
        ({"sample_size": True, "seed": 8}, "sample_size"),
        ({"sample_size": 2.5, "seed": 8}, "sample_size"),
        ({"sample_size": 5, "seed": 1.5}, "seed"),
        ({"sample_size": 5, "seed": -1}, "seed"),
        ({"seed": True}, "seed"),
    ])
    def test_integer_arguments_checked(self, tmp_path, kwargs, setting):
        with pytest.raises(SettingError) as err:
            build_snapshot(_spec(self._write_raw(tmp_path)), **kwargs)
        assert err.value.setting == setting

    def test_load_builds_no_records(self, tmp_path):
        out = tmp_path / "snap.json"
        save_snapshot(build_snapshot(_spec(self._write_raw(tmp_path))), out)
        snap = load_snapshot(out)
        snap.digest()
        assert "edges" not in vars(snap)  # built on first use
        assert snap.edges[0] == EdgeRecord("o0", "t0", -1.0)

    def test_sampling_recorded_in_provenance(self, tmp_path):
        raw = self._write_raw(tmp_path, n=60)
        snap = build_snapshot(_spec(raw), sample_size=20, seed=8)
        assert len(snap.edges) == 20
        assert snap.provenance["sampling"] == {
            "seed": 8,
            "sample_size": 20,
            "prng": "numpy-pcg64",
        }

    def test_vertex_lists_match_edges(self, tmp_path):
        raw = self._write_raw(tmp_path)
        snap = build_snapshot(_spec(raw))
        origins = [r.origin for r in snap.edges]
        terminals = [r.terminal for r in snap.edges]
        assert list(snap.origins) == sorted(set(origins), key=origins.index)
        assert list(snap.terminals) == sorted(set(terminals), key=terminals.index)
        # The edges alone fix the vertex lists: the constructor does not take them.
        with pytest.raises(TypeError):
            Snapshot(columns=snap.columns, origins=snap.origins, terminals=snap.terminals,
                     raw_weight_range=snap.raw_weight_range, provenance={})

    def test_bad_format_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParseError):
            load_snapshot(p)

    def test_duplicates_collapsed_before_snapshot(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("a,b,1,100\na,b,9,200\nc,d,5,100\n")
        snap = build_snapshot(_spec(p))
        assert len(snap.edges) == 2
        by_pair = {r.pair: r.weight for r in snap.edges}
        assert by_pair[("a", "b")] == rescale(9.0, -10.0, 10.0)


# Tokens each delimiter can carry: non-ASCII, a quote, a backslash, and
# the delimiters the line does not split on, '", "' among them.
_TOKENS = {
    ",": ["a", "b", "\u00e9", "\u65e5\u672c", 'q"t', "back\\slash", "two words"],
    "\t": ["a", "b", "\u00e9", 'q"t', "back\\slash", 'x", "y', "two words"],
    " ": ["a", "b", "\u00e9", 'q"t', "back\\slash", "c,d"],
    None: ["a", "b", "\u00e9", 'q"t', "back\\slash"],
}
_WEIGHT_RANGES = [(-10.0, 10.0), (1.0, 5.0), (-1.0, 1.0), (0.5, 2.25)]


@st.composite
def _raw_files(draw):
    """(delimiter, weight range, timestamps?, header?, rows) of a raw file.

    Few tokens and few timestamps, so pairs repeat and timestamps tie."""
    delimiter = draw(st.sampled_from(list(_TOKENS)))
    lo, hi = draw(st.sampled_from(_WEIGHT_RANGES))
    ts = draw(st.booleans())
    n_tokens = len(_TOKENS[delimiter])
    weight = st.one_of(
        st.integers(math.ceil(lo), math.floor(hi)).map(str),
        st.floats(lo, hi).map(repr),
    )
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_tokens - 1), st.integers(0, n_tokens - 1),
                  weight, st.integers(0, 3).map(str)),
        min_size=1, max_size=30,
    ))
    return delimiter, (lo, hi), ts, draw(st.booleans()), rows


def _write_raw_file(path, delimiter, ts, header, rows, data):
    tokens = _TOKENS[delimiter]
    lines = ["source,target,rating,time" if ts else "source,target,rating"] if header else []
    for o, t, w, stamp in rows:
        fields = [tokens[o], tokens[t], w] + [stamp] * ts
        sep = delimiter
        if sep is None:
            sep = data.draw(st.sampled_from([",", " "]))
        elif sep == " ":
            sep = data.draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(sep.join(fields))
    if delimiter in ("\t", " ") and header:
        lines[0] = lines[0].replace(",", delimiter)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@given(_raw_files(), st.floats(0.0, 1.0), st.integers(0, 2**32), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_snapshot_bytes_match_the_token_level_reference(
    tmp_path_factory, raw, fraction, seed, sampled, data
):
    """File bytes and digest equal a record-at-a-time ingest's: repeated
    pairs with and without timestamps (ties included), tricky tokens, every
    delimiter, a header line, and sampling at ingest."""
    delimiter, weight_range, ts, header, rows = raw
    root = tmp_path_factory.mktemp("reference")
    path = root / "raw.txt"
    _write_raw_file(path, delimiter, ts, header, rows, data)
    spec = DatasetSpec(str(path), weight_range, ts, delimiter)
    n_pairs = len({(o, t) for o, t, _, _ in rows})
    sample = dict(sample_size=1 + int(fraction * (n_pairs - 1)), seed=seed) if sampled else {}
    want_text, want_digest = reference_ingest(spec, **sample)
    snap = build_snapshot(spec, **sample)
    save_snapshot(snap, root / "snap.json")
    assert (root / "snap.json").read_bytes() == want_text.encode()
    assert snap.digest() == want_digest
    assert load_snapshot(root / "snap.json").digest() == want_digest


def _snapshot_payload():
    return {
        "format": "weightpred-snapshot-v1",
        "raw_weight_range": [-10.0, 10.0],
        "origins": ["a", "b"],
        "terminals": ["x", "y"],
        "edges": [["a", "x", 0.5], ["b", "y", -0.25], ["a", "y", 1.0]],
        "provenance": {"source_path": "raw.csv", "source_sha256": "0", "sampling": None},
    }


def _write_edges(path, edges):
    """Write a snapshot file holding ``edges``, its vertex lists in the
    order the edges first name them."""
    payload = _snapshot_payload()
    payload.update(edges=edges, origins=list(dict.fromkeys(e[0] for e in edges)),
                   terminals=list(dict.fromkeys(e[1] for e in edges)))
    path.write_text(json.dumps(payload))


def _assert_same_snapshot(a, b):
    """``a`` and ``b`` have one digest and the same columns, bit for bit."""
    assert a.digest() == b.digest()
    for name in ("src", "dst", "weight"):
        x, y = getattr(a.columns, name), getattr(b.columns, name)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes())


def _drop(key):
    return lambda s: s.pop(key)


def _set_edge(i, value):
    return lambda s: s["edges"].__setitem__(i, value)


def _faults(*edges):
    """Set (or append, at the end) each ``(index, edge)`` in turn."""
    def corrupt(s):
        for i, edge in edges:
            if i < len(s["edges"]):
                s["edges"][i] = edge
            else:
                s["edges"].append(edge)
    return corrupt


# Parsing splits a raw file on the line boundaries of str.splitlines, so
# build_snapshot never writes a token that holds one.
def test_line_boundaries_are_those_of_splitlines():
    assert LINE_BOUNDARIES == "".join(
        c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2
    )


def _broken_terminal(boundary):
    """Edges 1 and 2 share a terminal token that holds ``boundary``."""
    def corrupt(s):
        s["terminals"][1] = f"y{boundary}z"
        for edge in s["edges"][1:]:
            edge[1] = f"y{boundary}z"
    return corrupt


@pytest.mark.parametrize("corrupt,located", [
    (_drop("edges"), "key 'edges' is missing"),
    (_drop("provenance"), "key 'provenance' is missing"),
    (_set_edge(1, ["b", "y"]), "edge 1: expected [origin, terminal, weight]"),
    (_set_edge(1, ["b", "y", 0.1, 7]), "edge 1: expected [origin, terminal, weight]"),
    (_set_edge(0, ["", "x", 0.5]), "edge 0: empty origin or terminal token"),
    (_set_edge(0, [" a", "x", 0.5]), "edge 0: token ' a' has leading or trailing whitespace"),
    (_set_edge(1, ["b", "y\t", 0.5]), "edge 1: token 'y\\t' has leading or trailing whitespace"),
    (_set_edge(0, ["a", "x", "0.5"]), "edge 0: weight"),
    (_set_edge(0, ["a", "x", float("nan")]), "edge 0: weight"),
    (_set_edge(2, ["a", "y", float("inf")]), "edge 2: weight"),
    (_set_edge(2, ["a", "y", 1.5]), "edge 2: weight"),
    (lambda s: s["edges"].append(["a", "x", 0.1]), "edge 3: repeats"),
    (lambda s: s.update(origins=["b", "a"]), "first seen in edge 0"),
    (lambda s: s.update(terminals=["x"]), "first seen in edge 1"),
    (lambda s: s.update(origins=["a", "b", "c"]), "'c' appears in no edge"),
    (lambda s: s.update(edges=[], origins=[], terminals=[]), "snapshot has no edges"),
    (lambda s: s.update(raw_weight_range=[5, "x", None]), "raw_weight_range [5, 'x', None]"),
    (lambda s: s.update(raw_weight_range=[10.0, -10.0]), "raw_weight_range [10.0, -10.0]"),
    (lambda s: s.update(raw_weight_range=[-10.0, math.inf]), "raw_weight_range [-10.0, inf]"),
    (lambda s: s.update(raw_weight_range=[-10.0, True]), "raw_weight_range [-10.0, True]"),
    # Two faults: the lower edge index is named, whatever the kinds.
    (_faults((1, ["a", "x", 0.2]), (3, ["c", "z", float("nan")])),
     "edge 1: repeats the (origin, terminal) pair of edge 0"),
    (_faults((1, ["b", "y", float("nan")]), (3, ["a", "x", 0.1])), "edge 1: weight nan"),
    (_faults((1, ["b", "y", "0.5"]), (2, ["a", "y"])), "edge 1: weight '0.5'"),
    (_faults((1, ["b", "y"]), (3, ["a", "x", 0.1])), "edge 1: expected"),
    (_faults((1, ["b", " y", 0.5]), (2, ["", "y", 1.0])), "edge 1: token ' y'"),
    (_faults((1, ["b", "", 0.5]), (2, ["a", " y", 1.0])), "edge 1: empty origin"),
    (_faults((2, ["b", "y", 0.1]), (1, ["b", "y", 2.0])), "edge 1: weight 2.0"),
    # Two faults in one edge: the check that runs first per edge is named.
    (_set_edge(0, ["", "x", "0.5"]), "edge 0: empty origin or terminal token"),
    (_set_edge(0, [" a", "x", float("nan")]), "edge 0: token ' a'"),
    (_set_edge(2, ["a", "x", float("nan")]), "edge 2: weight nan"),
    (_set_edge(0, ["a\rb", "x", 0.5]), "edge 0: token 'a\\rb' holds a line boundary"),
    (_set_edge(1, ["b", "y\r", 0.5]), "edge 1: token 'y\\r' has leading or trailing whitespace"),
    (_faults((1, ["b", "y\x0cz", 0.5]), (2, ["", "y", 1.0])), "edge 1: token 'y\\x0cz'"),
    (_faults((1, ["b", "", 0.5]), (2, ["a\x85b", "y", 1.0])), "edge 1: empty origin"),
    (_faults((1, ["b", "y", 2.0]), (2, ["a", "y\u2028z", 1.0])), "edge 1: weight 2.0"),
    (_set_edge(0, [" a\nb", "x", 0.5]), "edge 0: token ' a\\nb' has leading"),
    (_set_edge(0, ["a\u2029b", "x", float("nan")]), "edge 0: token 'a\\u2029b' holds"),
    # The token's first edge is named, not a later one that repeats it.
    *[(_broken_terminal(c), f"edge 1: token {f'y{c}z'!r} holds a line boundary")
      for c in LINE_BOUNDARIES],
], ids=[
    "no-edges", "no-provenance", "two-fields", "four-fields", "empty-origin",
    "padded-origin", "padded-terminal",
    "string-weight",
    "nan-weight", "inf-weight", "weight-above-1", "repeated-pair",
    "origins-reordered", "terminals-short", "origins-extra", "empty-edges",
    "range-three-items", "range-reversed", "range-infinite", "range-bool",
    "repeat-before-nan", "nan-before-repeat", "string-weight-before-short-edge",
    "short-edge-before-repeat", "padded-before-empty", "empty-before-padded",
    "weight-before-repeat", "empty-and-string-weight", "padded-and-nan",
    "nan-and-repeat", "line-break-origin", "trailing-carriage-return-is-padding",
    "line-break-before-empty", "empty-before-line-break", "weight-before-line-break",
    "padded-and-line-break", "line-break-and-nan",
    *[f"line-boundary-U+{ord(c):04X}" for c in LINE_BOUNDARIES],
])
def test_load_snapshot_rejects_malformed_schema(tmp_path, corrupt, located):
    path = tmp_path / "snap.json"
    payload = _snapshot_payload()
    path.write_text(json.dumps(payload))
    assert len(load_snapshot(path).edges) == 3
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=re.escape(str(path)) + ".*" + re.escape(located)):
        load_snapshot(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_snapshot_pauses_the_cyclic_collector_and_restores_it(
    tmp_path, monkeypatch, enabled
):
    """The collector is off while the document is parsed, and afterwards as
    the caller had it, after a load and after a refusal alike."""
    loads, seen = json.loads, []

    def spy_loads(text):
        seen.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(json, "loads", spy_loads)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_snapshot_payload()))
    bad.write_text(json.dumps({**_snapshot_payload(), "edges": []}))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(load_snapshot(good).edges) == 3
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError, match="snapshot has no edges"):
            load_snapshot(bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False, False]


_CLEAN_TOKENS = st.text(alphabet='ab#\u00e9,"\t ', min_size=1, max_size=3).filter(
    lambda t: t == t.strip()
)
_BAD_WEIGHTS = [
    "0.5", None, [0.5], math.nan, math.inf, -math.inf, 1.5, -1.0000001, 2, -2, 10**400,
]
_SPACES = " \t\u00a0\u3000" + LINE_BOUNDARIES


@st.composite
def _faulty_edges(draw):
    """A snapshot's ``edges`` list: distinct pairs with weights in [-1, 1],
    then 0-3 faults of random kinds at random positions."""
    pairs = draw(st.lists(st.tuples(_CLEAN_TOKENS, _CLEAN_TOKENS),
                          min_size=1, max_size=10, unique=True))
    weights = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1, 0, 1]))
    edges = [[o, t, draw(weights)] for o, t in pairs]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(edges) - 1))
        edge = edges[i] if type(edges[i]) is list else ["a", "b", 0.5]
        side = draw(st.integers(0, 1))
        token = str(edge[side]) if len(edge) > side else "a"
        kind = draw(st.sampled_from([
            "shape", "token-type", "empty", "padded", "boundary", "surrogate", "weight",
            "repeat",
        ]))
        if kind == "shape":
            edges[i] = draw(st.sampled_from([edge[:2], [*edge, 7], [], "edge", None]))
            continue
        edge = list(edge[:3]) + [0.5] * (3 - len(edge))
        if kind == "token-type":
            edge[side] = draw(st.sampled_from([7, None, 0.5, ["a"]]))
        elif kind == "empty":
            edge[side] = ""
        elif kind == "padded":
            space = draw(st.sampled_from(_SPACES))
            edge[side] = draw(st.sampled_from([space + token, token + space]))
        elif kind == "boundary":
            at = draw(st.integers(0, len(token)))
            c = draw(st.sampled_from([*LINE_BOUNDARIES, "\r\n"]))
            edge[side] = token[:at] + c + token[at:]
        elif kind == "surrogate":
            # High surrogates only: JSON reads an escaped high-low pair as one
            # character, so two faults could otherwise make a valid token.
            at = draw(st.integers(0, len(token)))
            edge[side] = token[:at] + chr(draw(st.integers(0xD800, 0xDBFF))) + token[at:]
        elif kind == "weight":
            edge[2] = draw(st.one_of(st.booleans(), st.sampled_from(_BAD_WEIGHTS)))
        else:  # repeat an earlier or later edge's pair
            other = edges[draw(st.integers(0, len(edges) - 1))]
            if type(other) is list and len(other) == 3:
                edge[:2] = other[:2]
        edges[i] = edge
    return edges


@given(_faulty_edges())
@settings(max_examples=300, deadline=None)
def test_the_bulk_check_and_the_walk_agree(tmp_path_factory, edges):
    """``load_snapshot`` loads exactly what a per-edge reference accepts,
    and otherwise names the edge and the fault it names; none reaches the
    walk's ``AssertionError``."""
    path = tmp_path_factory.mktemp("edges") / "snap.json"
    payload = _snapshot_payload()
    payload["edges"] = edges
    want = reference_edge_fault(edges)
    if want is None:
        payload["origins"] = list(dict.fromkeys(e[0] for e in edges))
        payload["terminals"] = list(dict.fromkeys(e[1] for e in edges))
    path.write_text(json.dumps(payload))
    if want is None:
        load_snapshot(path)
    else:
        i, fault = want
        with pytest.raises(ParseError) as err:
            load_snapshot(path)
        assert str(err.value) == f"{path}: edge {i}: {fault}"


@pytest.mark.parametrize("edge,fault", [
    (["", "x", 0.5], "empty origin or terminal token"),
    ([" a", "x", 0.5], "token ' a' has leading or trailing whitespace"),
    (["a\rb", "x", 0.5], "token 'a\\rb' holds a line boundary"),
    ([7, "x", 0.5], "expected [origin, terminal, weight], got [7, 'x', 0.5]"),
    (["a", "x", "0.5"], "weight '0.5' is not a number in [-1, 1]"),
    (["a", "x", True], "weight True is not a number in [-1, 1]"),
], ids=["empty", "padded", "line-boundary", "int-token", "string-weight", "bool-weight"])
def test_load_snapshot_names_the_bad_edge_and_its_fault(tmp_path, edge, fault):
    edges = [["b", "y", -0.25], edge]
    assert reference_edge_fault(edges) == (1, fault)
    path = tmp_path / "snap.json"
    _write_edges(path, edges)
    with pytest.raises(ParseError) as err:
        load_snapshot(path)
    assert str(err.value) == f"{path}: edge 1: {fault}"


@pytest.mark.parametrize("weight", [True, False, "1", None, 10**400, -(10**400)])
def test_load_snapshot_rejects_a_weight_that_is_not_a_number_in_range(tmp_path, weight):
    path = tmp_path / "snap.json"
    payload = _snapshot_payload()
    payload["edges"][1][2] = weight
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=re.escape(f"edge 1: weight {weight!r} is not")):
        load_snapshot(path)


def test_load_snapshot_reads_integer_weights_as_floats(tmp_path):
    """JSON ``0``, ``1`` and ``-1`` load as the floats of ``0.0``, ``1.0``
    and ``-1.0``: the same weights and the same digest."""
    ints, floats = tmp_path / "ints.json", tmp_path / "floats.json"
    _write_edges(ints, [["a", "x", 0.5], ["a", "y", 0], ["b", "x", 1], ["b", "y", -1]])
    _write_edges(floats, [["a", "x", 0.5], ["a", "y", 0.0], ["b", "x", 1.0], ["b", "y", -1.0]])
    loaded = load_snapshot(ints)
    _assert_same_snapshot(loaded, load_snapshot(floats))
    assert loaded.columns.weight.tolist() == [0.5, 0.0, 1.0, -1.0]


def test_a_token_that_is_not_utf8_text_is_rejected(tmp_path):
    """JSON can spell a lone surrogate, which no raw file can produce and
    no predictions file can hold."""
    path = tmp_path / "snap.json"
    payload = _snapshot_payload()
    payload["origins"][0] = "a\ud800"
    for edge in payload["edges"][::2]:
        edge[0] = "a\ud800"
    path.write_text(json.dumps(payload))
    message = "edge 0: token 'a\\ud800' is not UTF-8 text"
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_snapshot(path)


# ---- raw files: byte-order mark and line numbers ------------------------------


def test_a_byte_order_mark_and_crlf_give_the_columns_of_the_plain_file(tmp_path):
    plain = write_rating_file(tmp_path / "plain.csv", n_edges=300, seed=4)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    want, got = build_snapshot(_spec(plain)), build_snapshot(_spec(marked))
    assert (got.origins, got.terminals) == (want.origins, want.terminals)
    for name in ("src", "dst", "weight"):
        assert np.array_equal(getattr(got.columns, name), getattr(want.columns, name))
    # The source hash is of the bytes as read.
    assert got.provenance["source_sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()


def test_a_snapshot_file_with_a_byte_order_mark_loads(tmp_path):
    path = tmp_path / "snap.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(_snapshot_payload()).encode())
    assert load_snapshot(path).origins == ("a", "b")


@pytest.mark.parametrize("boundary", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85",
                                      "\u2028"])
def test_a_bad_byte_is_on_the_line_splitlines_numbers(tmp_path, boundary):
    path = tmp_path / "d.csv"
    brk = boundary.encode("utf-8")
    path.write_bytes(b"a,b,1" + brk + b"caf\xe9,d,1" + brk + b"e,f,2" + brk)
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 2: not UTF-8 text")):
        build_snapshot(_spec(path, ts=False))


# ---- raw files: the bulk parse and the line walk agree ------------------------

# Each delimiter mode and tokens it can carry; "::" is a multi-character one.
_RAW_TOKENS = {**_TOKENS, "::": ["a", "b", "\u00e9", "c:d", 'q"t', "two words"]}
_LINE_BREAKS = [*LINE_BOUNDARIES, "\r\n"]


@st.composite
def _faulty_raw_files(draw):
    """(delimiter, weight range, timestamps?, text) of a raw file: valid
    rows, maybe a header, then 0-3 faults, blank lines and line breaks of
    every kind."""
    delimiter = draw(st.sampled_from(list(_RAW_TOKENS)))
    lo, hi = draw(st.sampled_from(_WEIGHT_RANGES))
    ts = draw(st.booleans())
    token = st.sampled_from(_RAW_TOKENS[delimiter])
    weight = st.one_of(st.integers(math.ceil(lo), math.floor(hi)).map(str),
                       st.floats(lo, hi).map(repr))
    header = ["source", "target", "rating", "time"][:3 + ts]
    lines = [header] if draw(st.booleans()) else []
    lines += draw(st.lists(
        st.tuples(token, token, weight, st.integers(0, 3).map(str)).map(lambda r: [*r][:3 + ts]),
        min_size=1, max_size=12,
    ))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = list(lines[i])
        kind = draw(st.sampled_from(["count", "weight", "empty", "stamp", "header"]))
        if kind == "count":
            fields = draw(st.sampled_from([fields[:-1], fields + ["7"], fields[:1]]))
        elif kind == "weight" and len(fields) > 2:
            fields[2] = draw(st.sampled_from(
                ["x", "inf", "-inf", "nan", "1e400", repr(hi + 1.0), repr(lo - 0.5)]
            ))
        elif kind == "empty" and len(fields) > 2:
            fields[draw(st.integers(0, 1))] = ""
        elif kind == "stamp" and len(fields) == 4:
            fields[3] = draw(st.sampled_from(["soon", "nan", "inf", "-Infinity"]))
        elif kind == "header":
            fields = header
        lines[i] = fields
    text = ""
    for fields in lines:
        if draw(st.booleans()) and draw(st.booleans()):
            text += draw(st.sampled_from(["", " ", "\t "])) + draw(st.sampled_from(_LINE_BREAKS))
        sep = delimiter
        if sep is None:
            sep = draw(st.sampled_from([",", " "]))
        elif sep == " ":
            sep = draw(st.sampled_from([" ", "\t", "  "]))
        text += sep.join(fields) + draw(st.sampled_from(_LINE_BREAKS))
    return delimiter, (lo, hi), ts, text


@given(_faulty_raw_files())
@settings(max_examples=300, deadline=None)
def test_the_raw_bulk_parse_and_the_walk_agree(tmp_path_factory, raw):
    """``build_snapshot`` ingests exactly the raw files a per-line reference
    accepts, as the record-at-a-time reference ingests them, and otherwise
    names the line and fault the reference names; none reaches the walk's
    ``AssertionError``."""
    delimiter, weight_range, ts, text = raw
    root = tmp_path_factory.mktemp("raw")
    path = root / "raw.txt"
    path.write_bytes(text.encode("utf-8"))
    spec = DatasetSpec(str(path), weight_range, ts, delimiter)
    want = reference_line_fault(spec)
    if want is None:
        want_text, want_digest = reference_ingest(spec)
        snap = build_snapshot(spec)
        save_snapshot(snap, root / "snap.json")
        assert (root / "snap.json").read_bytes() == want_text.encode()
        assert snap.digest() == want_digest
    else:
        line, fault = want
        with pytest.raises(ParseError) as err:
            build_snapshot(spec)
        where = f"{path}: " + (f"line {line}: " if line else "")
        assert str(err.value) == where + fault


# ---- the snapshot writer against json.dumps -----------------------------------

# Any token the token rules let through: non-BMP characters, quotes,
# backslashes, C0 controls other than line breaks, DEL.
_ANY_TOKENS = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600"]),
        st.characters(exclude_categories=("Cs",), exclude_characters=LINE_BOUNDARIES),
    ),
    min_size=1, max_size=4,
).filter(lambda t: t == t.strip())
_PROVENANCE = st.dictionaries(st.text(max_size=4), st.recursive(
    st.none() | st.text(max_size=4) | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
), max_size=4)


def _json_form(snapshot, edges):
    return {
        "format": SNAPSHOT_FORMAT,
        "raw_weight_range": list(snapshot.raw_weight_range),
        "origins": list(dict.fromkeys(e[0] for e in edges)),
        "terminals": list(dict.fromkeys(e[1] for e in edges)),
        "edges": edges,
        "provenance": snapshot.provenance,
    }


def _assert_written_as_json_dumps(snapshot, edges, path):
    form = _json_form(snapshot, edges)
    save_snapshot(snapshot, path)
    assert path.read_bytes() == (
        json.dumps(form, sort_keys=True, indent=2, allow_nan=False) + "\n"
    ).encode()
    compact = json.dumps(form, sort_keys=True, separators=(",", ":"))
    assert snapshot.digest() == "sha256:" + hashlib.sha256(compact.encode()).hexdigest()


@given(
    st.lists(st.tuples(_ANY_TOKENS, _ANY_TOKENS), min_size=1, max_size=12, unique=True),
    st.data(),
    st.sampled_from([(-10.0, 10.0), (0.5, 2.25), (1, 5)]),
    _PROVENANCE,
)
@settings(max_examples=200, deadline=None)
def test_the_snapshot_writer_matches_json_dumps(tmp_path_factory, pairs, data, weight_range,
                                                provenance):
    weight = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324, 0.1]),
                       st.floats(-1.0, 1.0))
    edges = [[o, t, data.draw(weight)] for o, t in pairs]
    snap = snapshot_of(edges, weight_range, provenance)
    _assert_written_as_json_dumps(snap, edges, tmp_path_factory.mktemp("writer") / "s.json")


def test_a_snapshot_without_edges_is_written_as_json_dumps(tmp_path):
    """``Snapshot(columns, ...)`` checks nothing, so it may hold no edges."""
    columns = Columns.of(graph_of([], []), np.array([], dtype=float))
    snap = Snapshot(columns, (-1.0, 1.0), {"sampling": None})
    _assert_written_as_json_dumps(snap, [], tmp_path / "s.json")
