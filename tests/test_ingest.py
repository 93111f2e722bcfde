"""Parsing, rescaling, duplicate collapse, snapshots, and seeded splits."""

import base64
import gc
import hashlib
import json
import math
import re
import sys
from unittest import mock

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
    save_snapshot,
)
import weightpred.ingest
from weightpred.errors import SettingError
from weightpred.graph import DirectedGraph, graph_of
from weightpred.ingest import _rescale

from helpers import (
    ARRAY_CODES, LINE_BOUNDARIES, decoded, encoded, packed, reference_digest, reference_ingest,
    reference_line_fault, reference_snapshot_fault, snapshot_form, snapshot_of, unpacked, v1_form,
    write_rating_file,
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
    ((-(10**400), 10), ",", "weight_min"),
    ((-10, 10**400), ",", "weight_max"),
], ids=["min-infinite", "max-nan", "reversed", "empty-delimiter", "bools", "string",
        "min-above-half-the-largest-float", "max-above-half-the-largest-float",
        "min-int-beyond-float", "max-int-beyond-float"])
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
                  # 0.0 and -0.0 are equal stamps, so they tie.
                  st.one_of(st.integers(0, 3), st.sampled_from([0.0, -0.0]))),
        min_size=1, max_size=60,
    ))
    # Added in file order, 0.3 + 0.2 + 0.1 is 0.6; ascending, it is 0.6000000000000001.
    @example(False, [(0, 0, 0.3, 0), (1, 1, -0.0, 0), (0, 0, 0.2, 0), (0, 0, 0.1, 0)])
    # Each pair's latest stamp is on its first record, and a later record ties
    # with it: the later one wins.
    @example(True, [(0, 0, 0.5, 3), (1, 1, 0.2, 0.0), (0, 0, 0.1, 1),
                    (1, 1, -0.7, -0.0), (0, 0, 0.25, 3)])
    @settings(deadline=None)
    def test_matches_a_dict_oracle(self, tmp_path_factory, ts, rows):
        """Many rows over six pairs, with or without a timestamp column,
        ties and ``-0.0``, compared bit for bit with a dict oracle."""
        rows = [(f"o{o}", f"t{t}", w, stamp) for o, t, w, stamp in rows]
        path = tmp_path_factory.mktemp("collapse") / "d.csv"
        assert _bits(_collapsed(path, rows, ts)) == _bits(_collapse_oracle(rows, ts))

    @given(st.booleans(), st.lists(
        # Origins 2**15 apart, over 2**17 terminals, give pair keys 2**32
        # apart: equal in their low 32 bits, told apart by the high ones.
        st.tuples(st.sampled_from([0, 1, 2**15, 2**15 + 1]),
                  st.sampled_from([0, 1, 2**17 - 1]),
                  st.one_of(st.floats(-1.0, 1.0),
                            st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1 / 3])),
                  st.one_of(st.integers(0, 3), st.sampled_from([0.0, -0.0]))),
        min_size=1, max_size=60,
    ))
    @example(False, [(0, 0, 0.3, 0), (2**15, 0, -0.5, 0), (0, 0, 0.2, 0), (2**15, 0, 0.1, 0)])
    @example(True, [(1, 1, 0.5, 3), (2**15 + 1, 1, 0.2, 0.0), (1, 1, 0.1, 3),
                    (2**15 + 1, 1, -0.7, -0.0)])
    def test_pair_keys_past_2_32_match_a_dict_oracle(self, ts, rows):
        """Pair keys at and above 2**32, sharing their low 32 bits, collapse
        as the dict oracle does, with or without timestamps."""
        origins, terminals = _WIDE_SIDES
        src, dst, weight, stamp = (np.array(column) for column in zip(*rows))
        graph = DirectedGraph(origins, terminals, src, dst)
        first, got = weightpred.ingest._collapse(
            graph, weight.astype(float), stamp.astype(float) if ts else None)
        edges = zip(src[first].tolist(), dst[first].tolist(), got.tolist())
        assert _bits(edges) == _bits(_collapse_oracle(rows, ts))


# The sides of a graph whose pair keys reach past 2**32, built once for
# every example.
_WIDE_SIDES = (tuple(range(2**15 + 2)), tuple(range(2**17)))


def _bits(edges):
    return [(o, t, w.hex()) for o, t, w in edges]


def _collapse_oracle(rows, ts):
    """The (origin, terminal, weight) edges of ``(origin, terminal, weight,
    stamp)`` ``rows`` after the collapse, from a dict: the latest record's
    weight (ties: the last in file order), or without timestamps the mean of
    the ascending weights, a lone record keeping its own."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[:2]), []).append(row)
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
    return want


class TestRescale:
    def test_golden_values(self):
        cases = [((5.0, 1.0, 3.0), (1.0, 5.0), (1.0, -1.0, 0.0)),
                 ((4.0,), (-10.0, 10.0), (0.4,)),
                 ((0.37,), (-1.0, 1.0), (0.37,))]  # identity on [-1, 1]
        for values, (lo, hi), want in cases:
            got = _rescale(np.array(values), lo, hi)
            assert got.tobytes() == np.array(want).tobytes()

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=120)
    def test_roundtrip_and_monotone(self, lo, width, frac):
        """The README's inverse formula, ``(s * (hi - lo) + (lo + hi)) / 2``,
        takes an image back to its value, and a larger value's image is not
        smaller."""
        hi = lo + max(width, 0.0) + 1.0
        value = min(max(lo + frac * (hi - lo), lo), hi)
        nudged = min(value + (hi - lo) * 1e-3, hi)
        scaled, scaled_nudged = _rescale(np.array([value, nudged]), lo, hi)
        assert -1.0 - 1e-12 <= scaled <= 1.0 + 1e-12
        back = (scaled * (hi - lo) + (lo + hi)) / 2
        assert back == pytest.approx(value, abs=1e-12 * max(1.0, abs(hi), abs(lo)))
        assert scaled_nudged >= scaled

    @given(st.data())
    @settings(max_examples=200)
    def test_in_range_values_map_into_the_unit_interval(self, data):
        """Within ``DatasetSpec``'s bound, ``2w``, ``lo + hi`` and ``hi - lo``
        are finite, so every image is a number in [-1, 1], and the map keeps
        the order of the values."""
        bound = sys.float_info.max / 2
        ends = st.floats(-bound, bound) | st.sampled_from([-bound, bound, 0.0])
        lo, hi = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
        inside = st.floats(lo, hi) | st.sampled_from([lo, hi])
        values = np.sort(data.draw(st.lists(inside, min_size=1, max_size=8)))
        scaled = _rescale(values, lo, hi)
        assert ((scaled >= -1.0) & (scaled <= 1.0)).all()  # NaN fails
        assert (scaled[1:] >= scaled[:-1]).all()


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
        graph = snap.graph
        assert (graph.origins, graph.terminals) == (snap.origins, snap.terminals)
        assert graph.edges == tuple(r.pair for r in snap.edges)
        assert snap.weight.tolist() == [r.weight for r in snap.edges]

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
        assert np.array_equal(plus.weight, minus.weight)
        assert plus.weight.tobytes() != minus.weight.tobytes()
        assert plus.digest() != minus.digest()
        assert plus != snapshot_of([("a", "x", 0.0)])

    def test_non_finite_provenance_keeps_the_digest_form(self, tmp_path):
        """A snapshot made in memory with a NaN in ``provenance`` has a
        digest that spells it as compact ``json.dumps`` does; the saved form
        refuses it, and ``load_snapshot`` refuses a file that holds it."""
        out = tmp_path / "snap.json"
        save_snapshot(build_snapshot(_spec(self._write_raw(tmp_path))), out)
        payload = json.loads(out.read_text())
        payload["provenance"]["note"] = float("nan")
        loaded = load_snapshot(out)
        snap = Snapshot(loaded.graph, loaded.weight, loaded.raw_weight_range,
                        payload["provenance"])
        out.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="provenance holds a non-finite number"):
            load_snapshot(out)
        assert snap.digest() == reference_digest(payload)
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
            Snapshot(graph=snap.graph, weight=snap.weight, origins=snap.origins,
                     terminals=snap.terminals, raw_weight_range=snap.raw_weight_range,
                     provenance={})

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
        assert by_pair[("a", "b")] == 0.9


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


# Pass sizes of the raw-file parse: a line or less per pass, a few lines, and
# the default (one pass for a small file).
_PASS_SIZES = st.sampled_from([1, 2, 16, weightpred.ingest._PASS_CHARS])


def _pass_chars(n):
    """``_PASS_CHARS`` set to ``n`` for the ``with`` block (in a test body,
    as hypothesis refuses function-scoped fixtures)."""
    return mock.patch.object(weightpred.ingest, "_PASS_CHARS", n)


@given(_raw_files(), st.floats(0.0, 1.0), st.integers(0, 2**32), st.booleans(), _PASS_SIZES,
       st.data())
@settings(max_examples=120, deadline=None)
def test_snapshot_bytes_match_the_token_level_reference(
    tmp_path_factory, raw, fraction, seed, sampled, pass_chars, data
):
    """File bytes and digest equal a record-at-a-time ingest's: repeated
    pairs with and without timestamps (ties included), tricky tokens, every
    delimiter, a header line, sampling at ingest, and any pass size."""
    delimiter, weight_range, ts, header, rows = raw
    root = tmp_path_factory.mktemp("reference")
    path = root / "raw.txt"
    _write_raw_file(path, delimiter, ts, header, rows, data)
    spec = DatasetSpec(str(path), weight_range, ts, delimiter)
    n_pairs = len({(o, t) for o, t, _, _ in rows})
    sample = dict(sample_size=1 + int(fraction * (n_pairs - 1)), seed=seed) if sampled else {}
    want_text, want_digest = reference_ingest(spec, **sample)
    with _pass_chars(pass_chars):
        snap = build_snapshot(spec, **sample)
    save_snapshot(snap, root / "snap.json")
    assert (root / "snap.json").read_bytes() == want_text.encode()
    assert snap.digest() == want_digest
    assert load_snapshot(root / "snap.json").digest() == want_digest


def _snapshot_payload():
    return snapshot_form(
        [("a", "x", 0.5), ("b", "y", -0.25), ("a", "y", 1.0)], [-10.0, 10.0],
        {"source_path": "raw.csv", "source_sha256": "0", "sampling": None},
    )


def _write_edges(path, edges):
    """Write a snapshot file holding ``edges``, its vertex lists in the
    order the edges first name them."""
    path.write_text(json.dumps(snapshot_form(edges, [-10.0, 10.0])))


def _assert_same_snapshot(a, b):
    """``a`` and ``b`` have one digest and the same graph and weights, bit
    for bit."""
    assert a.digest() == b.digest()
    assert (a.origins, a.terminals) == (b.origins, b.terminals)
    for x, y in ((a.graph.src, b.graph.src), (a.graph.dst, b.graph.dst), (a.weight, b.weight)):
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes())


def _assert_refused_as_the_oracle_says(path, payload):
    """``payload``, written to ``path``, fails to load with the message of
    ``reference_snapshot_fault``."""
    want = reference_snapshot_fault(payload)
    assert want is not None
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError) as err:
        load_snapshot(path)
    assert str(err.value) == f"{path}: {want}"


def _drop(key):
    return lambda s: s.pop(key)


def _edit(key, edit):
    """Apply ``edit`` to the list ``key``, decoded and encoded again where
    the file holds it as base64 text."""
    def corrupt(s):
        if key not in ARRAY_CODES:
            return edit(s[key])
        values = unpacked(s[key], ARRAY_CODES[key])
        edit(values)
        s[key] = packed(values, ARRAY_CODES[key])
    return corrupt


def _set(key, i, value):
    return _edit(key, lambda values: values.__setitem__(i, value))


def _put(**members):
    """Replace whole members of the file, as they are written."""
    return lambda s: s.update(members)


def _append(src, dst, weight):
    """Append an edge by its ids."""
    return _each(*(_edit(key, lambda values, v=v: values.append(v))
                   for key, v in (("src", src), ("dst", dst), ("weight", weight))))


def _each(*corrupts):
    def corrupt(s):
        for c in corrupts:
            c(s)
    return corrupt


# Parsing splits a raw file on the line boundaries of str.splitlines, so
# build_snapshot never writes a token that holds one.
def test_line_boundaries_are_those_of_splitlines():
    assert LINE_BOUNDARIES == "".join(
        c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2
    )


# The file holds origins ["a", "b"], terminals ["x", "y"], src [0, 1, 0],
# dst [0, 1, 1] and weight [0.5, -0.25, 1.0], the last three as base64.
# Case ids kept from earlier layouts name the fault the case had there; the
# case now puts the same kind of fault in the base64 layout: a bool, float
# or string id, or a string weight, is a member of the wrong JSON type, one
# that is not base64 text, or one of another entry size.
@pytest.mark.parametrize("corrupt,located", [
    (_drop("src"), "key 'src' is missing"),
    (_drop("provenance"), "key 'provenance' is missing"),
    (_edit("weight", list.pop), "src, dst and weight differ in length: 3, 3 and 2"),
    (_edit("dst", lambda v: v.append(0)), "src, dst and weight differ in length: 3, 4 and 3"),
    (_set("origins", 0, ""), "origins entry 0: empty token"),
    (_set("origins", 0, " a"), "origins entry 0: token ' a' has leading or trailing whitespace"),
    (_set("terminals", 1, "y\t"),
     "terminals entry 1: token 'y\\t' has leading or trailing whitespace"),
    (_put(weight="0.5"), "weight is not base64 text of 8-byte entries"),
    (_set("weight", 0, math.nan), "edge 0: weight nan"),
    (_set("weight", 2, math.inf), "edge 2: weight inf"),
    (_set("weight", 2, 1.5), "edge 2: weight 1.5"),
    (_append(0, 0, 0.1), "edge 3: repeats the (origin, terminal) pair of edge 0"),
    (_set("src", 0, 1), "edge 0: src 1 breaks first-appearance order (the next new id is 0)"),
    (lambda s: s.update(terminals=["x"]), "edge 1: dst 1 is not an id in [0, 1)"),
    (lambda s: s.update(origins=["a", "b", "c"]), "origins entry 2: 'c' appears in no edge"),
    (lambda s: s.update(origins=["a", "b", "a"]), "origins entry 2: repeats entry 0"),
    (lambda s: s.update(terminals=["x", 7]), "terminals entry 1: expected a token string, got 7"),
    (_set("src", 1, 2), "edge 1: src 2 is not an id in [0, 2)"),
    # Ids 0, 2, 1: every id is in range, and only the running maximum rises
    # by more than one.
    (_put(origins=["a", "b", "c"], src=packed([0, 2, 1], "I")),
     "edge 1: src 2 breaks first-appearance order (the next new id is 1)"),
    (_put(src=[0, 1, 0]), "key 'src' is missing or not a JSON str"),
    (lambda s: s.update(origins=[7, "b"]), "origins entry 0: expected a token string, got 7"),
    (_put(src="", dst="", weight="", origins=[], terminals=[]),
     "snapshot has no edges"),
    (lambda s: s.update(raw_weight_range=[5, "x", None]), "raw_weight_range [5, 'x', None]"),
    (lambda s: s.update(raw_weight_range=[10.0, -10.0]), "raw_weight_range [10.0, -10.0]"),
    (lambda s: s.update(raw_weight_range=[-10.0, math.inf]), "raw_weight_range [-10.0, inf]"),
    (lambda s: s.update(raw_weight_range=[-10.0, True]), "raw_weight_range [-10.0, True]"),
    (lambda s: s.update(raw_weight_range=[-10, 10**400]), f"raw_weight_range [-10, {10**400}]"),
    # Two ints that are one float: lo < hi as ints, not as the floats loaded.
    (lambda s: s.update(raw_weight_range=[2**60, 2**60 + 1]),
     f"raw_weight_range [{2**60}, {2**60 + 1}]"),
    # Two faults: the lower edge index is named, whatever the kinds.
    (_each(_set("src", 1, 0), _set("dst", 1, 0), _append(1, 1, math.nan)),
     "edge 1: repeats the (origin, terminal) pair of edge 0"),
    (_each(_set("weight", 1, math.nan), _append(0, 0, 0.1)), "edge 1: weight nan"),
    (_each(_put(weight="AAAA=AAA"), _edit("dst", list.pop)),
     "weight is not base64 text of 8-byte entries"),
    (_each(_set("dst", 1, 7), _append(0, 0, 0.1)), "edge 1: dst 7 is not an id"),
    # Two bad entries: origins before terminals.
    (_each(_set("origins", 1, " b"), _set("terminals", 0, "")), "origins entry 1: token ' b'"),
    (_each(_set("origins", 1, ""), _set("terminals", 1, " y")), "origins entry 1: empty token"),
    # Per edge, the ids before the weight before the pair.
    (_each(_set("weight", 1, 2.0), _set("src", 2, 1), _set("dst", 2, 1)),
     "edge 1: weight 2.0"),
    # A bad edge before a bad list entry.
    (_each(_set("origins", 0, ""), _put(weight="0.5")),
     "weight is not base64 text of 8-byte entries"),
    (_each(_set("origins", 0, " a"), _set("weight", 0, math.nan)), "edge 0: weight nan"),
    (_each(_set("dst", 2, 0), _set("weight", 2, math.nan)), "edge 2: weight nan"),
    (_set("origins", 0, "a\rb"), "origins entry 0: token 'a\\rb' holds a line boundary"),
    (_set("terminals", 1, "y\r"),
     "terminals entry 1: token 'y\\r' has leading or trailing whitespace"),
    (_each(_set("origins", 1, "b\x0cz"), _set("terminals", 0, "")),
     "origins entry 1: token 'b\\x0cz' holds"),
    (_each(_set("origins", 1, ""), _set("terminals", 0, "a\x85b")),
     "origins entry 1: empty token"),
    (_each(_set("weight", 1, 2.0), _set("terminals", 1, "y\u2028z")), "edge 1: weight 2.0"),
    (_set("origins", 0, " a\nb"), "origins entry 0: token ' a\\nb' has leading"),
    (_each(_set("origins", 0, "a\u2029b"), _set("weight", 0, math.nan)), "edge 0: weight nan"),
    *[(_set("terminals", 1, f"y{c}z"),
       f"terminals entry 1: token {f'y{c}z'!r} holds a line boundary")
      for c in LINE_BOUNDARIES],
    (_put(dst=False), "key 'dst' is missing or not a JSON str"),
    (_put(src=packed([0.0, 1.0, 0.0], "d")), "src, dst and weight differ in length: 6, 3 and 3"),
    (_set("dst", 2, 2**32 - 1), f"edge 2: dst {2**32 - 1} is not an id in [0, 2)"),
    # save_snapshot cannot write either: it refuses NaN and keeps no other key.
    (lambda s: s["provenance"].update(source_sha256=math.nan),
     "provenance holds a non-finite number"),
    (lambda s: s.update(extra=1), "unknown key 'extra'"),
    # Members that are not base64 text of whole entries, named in key order.
    (_put(src="\u00e9AAA"), "src is not base64 text of 4-byte entries"),
    (_put(dst="AAAAAAAAAAAAAAA"), "dst is not base64 text of 4-byte entries"),
    (_put(dst="AAAA\nAAAAAAAA"), "dst is not base64 text of 4-byte entries"),
    (_put(weight=packed([0, 0, 0, 0, 0], "I")),
     "weight is not base64 text of 8-byte entries"),
    (_each(_put(weight="!"), _put(src=packed([0, 1, 0], "H"))),
     "src is not base64 text of 4-byte entries"),
], ids=[
    "no-edges", "no-provenance", "two-fields", "four-fields", "empty-origin",
    "padded-origin", "padded-terminal",
    "string-weight",
    "nan-weight", "inf-weight", "weight-above-1", "repeated-pair",
    "origins-reordered", "terminals-short", "origins-extra",
    "origins-repeated-entry", "terminals-int-entry", "origins-stray-token",
    "origins-skip-ahead", "int-edge-token-listed-as-string", "int-edge-token-listed-as-int",
    "empty-edges",
    "range-three-items", "range-reversed", "range-infinite", "range-bool", "range-int-overflow",
    "range-ints-one-float",
    "repeat-before-nan", "nan-before-repeat", "string-weight-before-short-edge",
    "short-edge-before-repeat", "padded-before-empty", "empty-before-padded",
    "weight-before-repeat", "empty-and-string-weight", "padded-and-nan",
    "nan-and-repeat", "line-break-origin", "trailing-carriage-return-is-padding",
    "line-break-before-empty", "empty-before-line-break", "weight-before-line-break",
    "padded-and-line-break", "line-break-and-nan",
    *[f"line-boundary-U+{ord(c):04X}" for c in LINE_BOUNDARIES],
    "bool-id", "float-id", "huge-id", "nan-provenance", "extra-key",
    "src-not-ascii", "dst-badly-padded", "dst-line-break", "weight-partial-entry",
    "src-before-weight",
])
def test_load_snapshot_rejects_malformed_schema(tmp_path, corrupt, located):
    path = tmp_path / "snap.json"
    payload = _snapshot_payload()
    path.write_text(json.dumps(payload))
    assert len(load_snapshot(path).edges) == 3
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError) as err:
        load_snapshot(path)
    assert str(err.value).startswith(f"{path}: {located}")
    try:  # where the columns are at fault, the oracle gives the whole message
        want = reference_snapshot_fault(payload)
    except (KeyError, TypeError):  # a member missing or of another JSON type
        want = None
    assert want is None or str(err.value) == f"{path}: {want}"


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_provenance_number_the_writer_cannot_spell_is_refused(tmp_path, number):
    """``json.loads`` reads each of these as a float that is not finite;
    the digest would hash it, but no snapshot file can hold it."""
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_snapshot_payload()).replace('"0"', number))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: provenance holds a non"):
        load_snapshot(path)


def _assert_refused_naming_ingest(path, old_format):
    message = (f"not a weightpred-snapshot-v3 file (format={old_format!r}): "
               f"{old_format} files are no longer read; re-run `weightpred ingest` "
               "on the raw edge list")
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_snapshot(path)


def test_a_v1_file_is_refused_with_the_step_that_replaces_it(tmp_path):
    """A file in the ``[origin, terminal, weight]`` layout of 0.4.0 and
    before is refused, naming its format and ``weightpred ingest``."""
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(v1_form(_snapshot_payload())))
    _assert_refused_naming_ingest(path, "weightpred-snapshot-v1")


def test_a_v2_file_is_refused_with_the_step_that_replaces_it(tmp_path):
    """A file of 0.5.0 and 0.6.0, whose ``src``, ``dst`` and ``weight`` are
    JSON lists, is refused as a v1 file is."""
    path = tmp_path / "snap.json"
    path.write_text(json.dumps({**decoded(_snapshot_payload()),
                                "format": "weightpred-snapshot-v2"}))
    _assert_refused_naming_ingest(path, "weightpred-snapshot-v2")


def _nested(depth):
    """A JSON value that nests ``depth`` lists deep."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def test_a_provenance_nested_past_the_bound_is_refused(tmp_path):
    """A provenance as deep as the bound loads and has a digest; one level
    deeper is refused, naming the file, before any digest can overflow the
    stack."""
    bound = weightpred.ingest._MAX_NESTING
    path = tmp_path / "snap.json"
    for depth, refused in ((bound, False), (bound + 1, True)):
        payload = _snapshot_payload()
        payload["provenance"]["sampling"] = _nested(depth - 1)  # inside the provenance object
        path.write_text(json.dumps(payload))
        if refused:
            message = f"provenance nests deeper than {bound} levels"
            with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
                load_snapshot(path)
        else:
            assert load_snapshot(path).digest().startswith("sha256:")


@pytest.mark.parametrize("value,depth", [
    (1, 0), ("x", 0), ([], 1), ({}, 1), ([1, [2]], 2), ({"a": [{}], "b": 0}, 3), (_nested(5), 5),
])
def test_nesting_counts_lists_and_objects(value, depth):
    assert weightpred.ingest._nesting(value) == depth


# Text json.loads refuses with another error than JSONDecodeError: nesting
# past the recursion limit, and an int of more digits than int() converts.
DEEP_NESTING = "[" * 200_000 + "]" * 200_000
LONG_INT = "7" * 5_000


@pytest.mark.parametrize("old,new,fault", [
    ('"0"', DEEP_NESTING, "maximum recursion depth exceeded"),
    (f'"src": "{_snapshot_payload()["src"]}"', '"src": ' + LONG_INT,
     "Exceeds the limit (4300 digits)"),
], ids=["deep-provenance", "long-src-id"])
def test_json_that_json_loads_refuses_is_a_parse_error(tmp_path, old, new, fault):
    """Both are refused as invalid JSON, naming the file."""
    path = tmp_path / "snap.json"
    text = json.dumps(_snapshot_payload())
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: invalid JSON: {fault}')}"):
        load_snapshot(path)


def test_a_file_in_the_indented_layout_of_0_5_0_loads_as_the_compact_one(tmp_path):
    """The file is compact ``json.dumps``; re-indented as 0.5.0 wrote its
    files, or with its keys in another order, it holds the same document,
    so it loads to the same arrays and to the digest the stdlib computes
    from the document."""
    compact, relaid = tmp_path / "compact.json", tmp_path / "relaid.json"
    save_snapshot(build_snapshot(_spec(write_rating_file(tmp_path / "r.csv", 300, seed=5))),
                  compact)
    text = compact.read_text(encoding="utf-8")
    document = json.loads(text)
    assert text == json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    for layout in (json.dumps(document, sort_keys=True, indent=2) + "\n",
                   json.dumps(dict(reversed(document.items())), indent=1)):
        relaid.write_text(layout)
        _assert_same_snapshot(load_snapshot(relaid), load_snapshot(compact))
        assert load_snapshot(relaid).digest() == reference_digest(document)


def test_a_weight_range_spelled_as_ints_loads_as_floats(tmp_path):
    """A raw weight range spelled ``[-10, 10]`` names the network that
    ``[-10.0, 10.0]`` names: it loads as floats, to the digest of the file
    as written, and is saved back to that file's bytes."""
    saved, edited, again = tmp_path / "saved.json", tmp_path / "edited.json", tmp_path / "again.json"
    save_snapshot(build_snapshot(_spec(write_rating_file(tmp_path / "r.csv", 300, seed=5))),
                  saved)
    document = json.loads(saved.read_text(encoding="utf-8"))
    assert document["raw_weight_range"] == [-10.0, 10.0]
    edited.write_text(json.dumps({**document, "raw_weight_range": [-10, 10]}), encoding="utf-8")
    snap = load_snapshot(edited)
    assert [(type(v), v) for v in snap.raw_weight_range] == [(float, -10.0), (float, 10.0)]
    assert snap.digest() == load_snapshot(saved).digest() == reference_digest(document)
    save_snapshot(snap, again)
    assert again.read_bytes() == saved.read_bytes()


# A snapshot's members, as Snapshot(DirectedGraph(...), ...) takes them.
_MEMBERS = {"origins": ("a", "b"), "terminals": ("x", "y"), "src": [0, 0, 1, 1],
            "dst": [0, 1, 0, 1], "weight": [0.0, 0.5, -0.5, 0.25],
            "raw_weight_range": (-10.0, 10.0), "provenance": {"sampling": None}}


@pytest.mark.parametrize("change", [
    {"src": [0, 0, 1, 0]},
    {"dst": [0, 1, 1, 1]},
    {"weight": [-0.0, 0.5, -0.5, 0.25]},  # the sign bit alone
    {"origins": ("a", "c")},
    {"terminals": ("y", "x")},
    {"provenance": {"sampling": 0}},
    {"raw_weight_range": (-10.0, 10.5)},
], ids=["src", "dst", "weight-sign", "origin-token", "terminal-order", "provenance", "range"])
def test_a_change_to_any_member_moves_the_digest(change):
    """The digest tells apart snapshots that differ in one id, one weight's
    bits, one token, the provenance or the raw weight range."""
    def digest(members):
        graph = DirectedGraph(members["origins"], members["terminals"],
                              np.array(members["src"]), np.array(members["dst"]))
        return Snapshot(graph, np.array(members["weight"]), members["raw_weight_range"],
                        members["provenance"]).digest()

    assert digest({**_MEMBERS, **change}) != digest(_MEMBERS)


def test_save_refuses_more_vertices_than_a_uint32_id_numbers(tmp_path):
    """A side of 2**32 vertices would wrap its last id, so nothing is
    written and no digest is taken; 2**32 - 1 are within reach of the check
    (the tables here are ranges, so no token list is built)."""
    one = np.zeros(1, dtype=np.intp)
    path = tmp_path / "snap.json"
    for origins, terminals in ((range(2**32), ("x",)), (("a",), range(2**32 + 5))):
        snap = Snapshot(DirectedGraph(origins, terminals, one, one), np.zeros(1), (-1.0, 1.0), {})
        with pytest.raises(ValueError, match="at most 2\\*\\*32 vertices a side"):
            save_snapshot(snap, path)
        assert not path.exists()
        with pytest.raises(ValueError, match="at most 2\\*\\*32 vertices a side"):
            snap.digest()


def test_save_leaves_no_reference_cycles(tmp_path):
    """Saving a snapshot leaves nothing for the cyclic collector to free."""
    snap = build_snapshot(_spec(write_rating_file(tmp_path / "r.csv", 300, seed=5)))
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        save_snapshot(snap, tmp_path / "snap.json")
        assert gc.collect() == 0
    finally:
        gc.enable() if was else gc.disable()


# Any token the token rules let through: non-BMP characters, quotes,
# backslashes, C0 controls other than line breaks, DEL.
_ANY_TOKENS = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600"]),
        st.characters(exclude_categories=("Cs",), exclude_characters=LINE_BOUNDARIES),
    ),
    min_size=1, max_size=4,
).filter(lambda t: t == t.strip())
_CLEAN_TOKENS = st.text(alphabet='ab#\u00e9,"\t ', min_size=1, max_size=3).filter(
    lambda t: t == t.strip()
)
_BAD_WEIGHTS = [math.nan, math.inf, -math.inf, 1.5, -1.0000001, 2.0, -2.0, 1.0000000000000002]
_SPACES = " \t\u00a0\u3000" + LINE_BOUNDARIES
_STRAYS = st.one_of(_CLEAN_TOKENS, st.sampled_from([7, 1, None, 0.5, True, ["a"], {}]))


def _bad_token(draw, token):
    """``token`` made empty, padded, broken by a line boundary, or not
    UTF-8 text."""
    kind = draw(st.sampled_from(["empty", "padded", "boundary", "surrogate"]))
    if kind == "empty":
        return ""
    at = draw(st.integers(0, len(token)))
    if kind == "padded":
        space = draw(st.sampled_from(_SPACES))
        return draw(st.sampled_from([space + token, token + space]))
    if kind == "boundary":  # inside the token, or it is padding first
        c = draw(st.sampled_from([*LINE_BOUNDARIES, "\r\n"]))
        return token[:at] + c + token[at:] if 0 < at < len(token) else token + c + token
    # High surrogates only: JSON reads an escaped high-low pair as one
    # character, so two faults could otherwise make a valid token.
    return token[:at] + chr(draw(st.integers(0xD800, 0xDBFF))) + token[at:]



def _bad_member(draw, text):
    """Base64 ``text`` cut short, broken by a character outside the
    alphabet or a line break, or re-encoded with bytes added or dropped."""
    kind = draw(st.sampled_from(["cut", "broken", "resized"]))
    if kind == "cut":
        return text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    if kind == "broken":
        at = draw(st.integers(0, len(text)))
        bad = draw(st.sampled_from(["!", "-", "_", " ", "\u00e9", "\n", "\r\n"]))
        return text[:at] + bad + text[at:]
    data, k = base64.b64decode(text), draw(st.integers(1, 11))
    return base64.b64encode(data + bytes(k) if draw(st.booleans()) else data[:-k]).decode()


@st.composite
def _faulty_payloads(draw):
    """A snapshot file's document: distinct pairs with weights in [-1, 1],
    then 0-3 faults of random kinds at random positions."""
    pairs = draw(st.lists(st.tuples(_CLEAN_TOKENS, _CLEAN_TOKENS),
                          min_size=1, max_size=10, unique=True))
    payload = decoded(snapshot_form((o, t, draw(st.floats(-1.0, 1.0))) for o, t in pairs))
    members = set()  # columns to break once the lists are encoded
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from(["src", "dst", "weight"]))
        name = draw(st.sampled_from(["origins", "terminals"]))
        n = min(map(len, (payload["src"], payload["dst"], payload["weight"])))
        i = draw(st.integers(0, max(n - 1, 0)))
        kind = draw(st.sampled_from([
            "length", "id", "order", "weight", "repeat", "token", "stray", "twice", "member",
        ]))
        if kind == "member":
            members.add(column)
        elif kind == "length":
            if payload[column] and draw(st.booleans()):
                payload[column].pop()
            else:
                payload[column].append(0)
        elif n == 0:
            continue
        elif kind == "id":
            payload[column][i] = draw(st.sampled_from([len(payload[name]), 2**31, 2**32 - 1]))
        elif kind == "order" and column != "weight":
            payload[column][i] = draw(st.integers(0, len(payload[name])))
        elif kind == "weight":
            payload["weight"][i] = draw(st.sampled_from(_BAD_WEIGHTS))
        elif kind == "repeat":
            k = draw(st.integers(0, n - 1))
            payload["src"][i], payload["dst"][i] = payload["src"][k], payload["dst"][k]
        elif kind == "token" and payload[name]:
            j = draw(st.integers(0, len(payload[name]) - 1))
            token = payload[name][j]
            payload[name][j] = _bad_token(draw, token) if type(token) is str else ""
        elif kind == "stray":
            payload[name].insert(draw(st.integers(0, len(payload[name]))), draw(_STRAYS))
        elif kind == "twice" and payload[name]:
            payload[name].append(draw(st.sampled_from(payload[name])))
    payload = encoded(payload)
    for column in sorted(members):
        payload[column] = _bad_member(draw, payload[column])
    return payload


@given(_faulty_payloads())
@settings(max_examples=300, deadline=None)
def test_the_bulk_check_and_the_walk_agree(tmp_path_factory, payload):
    """``load_snapshot`` loads exactly what a per-entry reference accepts,
    and otherwise names the entry and the fault it names; none reaches the
    walk's ``AssertionError``."""
    path = tmp_path_factory.mktemp("edges") / "snap.json"
    if reference_snapshot_fault(payload) is not None:
        _assert_refused_as_the_oracle_says(path, payload)
        return
    path.write_text(json.dumps(payload))
    graph, lists = load_snapshot(path).graph, decoded(payload)
    assert (graph.src.tolist(), graph.dst.tolist()) == (lists["src"], lists["dst"])


@st.composite
def _listed_snapshots(draw):
    """A snapshot file's document whose two vertex lists are put through
    0-3 perturbations (swap, drop, duplicate, insert, replace)."""
    pairs = draw(st.lists(st.tuples(_CLEAN_TOKENS, _CLEAN_TOKENS),
                          min_size=1, max_size=10, unique=True))
    payload = snapshot_form((o, t, draw(st.floats(-1.0, 1.0))) for o, t in pairs)
    for _ in range(draw(st.integers(0, 3))):
        listed = payload[draw(st.sampled_from(["origins", "terminals"]))]
        kind = draw(st.sampled_from(["swap", "drop", "duplicate", "insert", "replace"]))
        at = draw(st.integers(0, len(listed)))
        if kind == "insert":
            listed.insert(at, draw(_STRAYS))
            continue
        if not listed:
            continue
        i = draw(st.integers(0, len(listed) - 1))
        if kind == "swap":
            j = draw(st.integers(0, len(listed) - 1))
            listed[i], listed[j] = listed[j], listed[i]
        elif kind == "drop":
            del listed[i]
        elif kind == "duplicate":
            listed.insert(at, listed[i])
        else:
            listed[i] = draw(_STRAYS)
    return payload


@given(_listed_snapshots())
@settings(max_examples=300, deadline=None)
def test_load_snapshot_accepts_exactly_the_first_appearance_lists(tmp_path_factory, payload):
    """``load_snapshot`` accepts exactly the vertex lists that hold one
    distinct clean token per id the edges name; the edges' ids then number
    each list in order of first appearance, and the lists are the graph's
    tables.  Otherwise it names the list, the entry and the fault, or the
    edge whose id a shortened list lacks."""
    path = tmp_path_factory.mktemp("lists") / "snap.json"
    if reference_snapshot_fault(payload) is not None:
        _assert_refused_as_the_oracle_says(path, payload)
        return
    path.write_text(json.dumps(payload))
    graph = load_snapshot(path).graph
    assert (graph.origins, graph.terminals) == (
        tuple(payload["origins"]), tuple(payload["terminals"]))
    for ids, table in ((graph.src, graph.origins), (graph.dst, graph.terminals)):
        assert list(dict.fromkeys(ids.tolist())) == list(range(len(table)))


@st.composite
def _perturbations(draw, payload):
    """One fault of a valid snapshot file's document, of the kinds
    ``load_snapshot`` must refuse: an id out of range, a member that is not
    base64 text of whole entries, order broken, a vertex listed twice, a
    repeated pair, a padded, line-breaking or surrogate token, or a weight
    outside [-1, 1]."""
    payload = decoded(json.loads(json.dumps(payload)))
    n = len(payload["src"])
    i = draw(st.integers(0, n - 1))
    side = draw(st.sampled_from([("src", "origins"), ("dst", "terminals")]))
    column, name = side
    ordered = [s for s in (("src", "origins"), ("dst", "terminals")) if len(payload[s[1]]) > 1]
    kinds = ["range", "member", "twice", "token", "weight"]
    kinds += ["order"] * bool(ordered) + ["repeat"] * (n > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "range":
        payload[column][i] = draw(st.sampled_from([len(payload[name]), 2**32 - 1]))
    elif kind == "member":
        payload = encoded(payload)
        payload[column] = _bad_member(draw, payload[column])
        return payload
    elif kind == "order":  # the first appearances of ids 0 and 1 swap ids
        column, name = draw(st.sampled_from(ordered))
        first = payload[column].index(1)
        payload[column][0], payload[column][first] = 1, 0
    elif kind == "repeat":
        k, i = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        payload["src"][i], payload["dst"][i] = payload["src"][k], payload["dst"][k]
    elif kind == "twice":
        payload[name].insert(draw(st.integers(0, len(payload[name]))),
                             draw(st.sampled_from(payload[name])))
    elif kind == "token":
        j = draw(st.integers(0, len(payload[name]) - 1))
        payload[name][j] = _bad_token(draw, payload[name][j])
    else:
        payload["weight"][i] = draw(st.sampled_from(_BAD_WEIGHTS))
    return encoded(payload)


@given(
    st.lists(st.tuples(_ANY_TOKENS, _ANY_TOKENS), min_size=1, max_size=12, unique=True),
    st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
    st.data(),
)
@settings(deadline=None)
def test_load_keeps_a_saved_snapshot_and_refuses_a_perturbed_one(
    tmp_path_factory, pairs, weights, data
):
    """``load_snapshot(save_snapshot(s))`` has the digest, the graph and the
    weights of ``s``, bit for bit; the saved file with one fault is refused
    with the message of ``reference_snapshot_fault``."""
    root = tmp_path_factory.mktemp("perturbed")
    snap = snapshot_of((o, t, w) for (o, t), w in zip(pairs, weights))
    save_snapshot(snap, root / "snap.json")
    _assert_same_snapshot(load_snapshot(root / "snap.json"), snap)
    payload = json.loads((root / "snap.json").read_text(encoding="utf-8"))
    _assert_refused_as_the_oracle_says(root / "bad.json", data.draw(_perturbations(payload)))


@pytest.mark.parametrize("edge,fault", [
    (["", "x", 0.5], "origins entry 1: empty token"),
    ([" a", "x", 0.5], "origins entry 1: token ' a' has leading or trailing whitespace"),
    (["a\rb", "x", 0.5], "origins entry 1: token 'a\\rb' holds a line boundary"),
    ([7, "x", 0.5], "origins entry 1: expected a token string, got 7"),
], ids=["empty", "padded", "line-boundary", "int-token"])
def test_load_snapshot_names_the_bad_edge_and_its_fault(tmp_path, edge, fault):
    """A bad weight is named by its edge, a bad token by its list entry."""
    payload = snapshot_form([["b", "y", -0.25], edge], [-10.0, 10.0])
    assert reference_snapshot_fault(payload) == fault
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError) as err:
        load_snapshot(path)
    assert str(err.value) == f"{path}: {fault}"


@pytest.mark.parametrize("weight", [True, False, "1", None, 10**400, -(10**400)])
def test_load_snapshot_rejects_a_weight_that_is_not_a_number_in_range(tmp_path, weight):
    """The JSON values a 0.6.0 file could hold as one weight are refused in
    place of the weights' base64 text."""
    path = tmp_path / "snap.json"
    payload = _snapshot_payload()
    payload["weight"] = weight
    path.write_text(json.dumps(payload))
    fault = ("weight is not base64 text of 8-byte entries" if type(weight) is str
             else "key 'weight' is missing or not a JSON str")
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {fault}')}$"):
        load_snapshot(path)


def test_a_token_that_is_not_utf8_text_is_rejected(tmp_path):
    """JSON can spell a lone surrogate, which no raw file can produce and
    no predictions file can hold."""
    path = tmp_path / "snap.json"
    payload = _snapshot_payload()
    payload["origins"][0] = "a\ud800"
    path.write_text(json.dumps(payload))
    message = "origins entry 0: token 'a\\ud800' is not UTF-8 text"
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_snapshot(path)


# ---- raw files: byte-order mark and line numbers ------------------------------


def test_a_byte_order_mark_and_crlf_give_the_columns_of_the_plain_file(tmp_path):
    plain = write_rating_file(tmp_path / "plain.csv", n_edges=300, seed=4)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    want, got = build_snapshot(_spec(plain)), build_snapshot(_spec(marked))
    assert (got.origins, got.terminals) == (want.origins, want.terminals)
    for name in ("src", "dst"):
        assert np.array_equal(getattr(got.graph, name), getattr(want.graph, name))
    assert np.array_equal(got.weight, want.weight)
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


def _outcome(spec, root):
    """What ``build_snapshot`` then ``save_snapshot`` make of ``spec``:
    the file's bytes and the digest, or the :class:`ParseError` text."""
    try:
        snap = build_snapshot(spec)
    except ParseError as err:
        return str(err)
    save_snapshot(snap, root / "snap.json")
    return (root / "snap.json").read_bytes(), snap.digest()


def _reference_outcome(spec):
    """:func:`_outcome` as the per-line and record-at-a-time references
    give it."""
    want = reference_line_fault(spec)
    if want is None:
        text, digest = reference_ingest(spec)
        return text.encode(), digest
    line, fault = want
    return f"{spec.path}: " + (f"line {line}: " if line else "") + fault


@given(_faulty_raw_files(), _PASS_SIZES)
# At least 300 examples, and the profile's count where it is higher.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_the_raw_bulk_parse_and_the_walk_agree(tmp_path_factory, raw, pass_chars):
    """``build_snapshot`` ingests exactly the raw files a per-line reference
    accepts, as the record-at-a-time reference ingests them, and otherwise
    names the line and fault the reference names, at any pass size; none
    reaches the walk's ``AssertionError``."""
    delimiter, weight_range, ts, text = raw
    root = tmp_path_factory.mktemp("raw")
    path = root / "raw.txt"
    path.write_bytes(text.encode("utf-8"))
    spec = DatasetSpec(str(path), weight_range, ts, delimiter)
    with _pass_chars(pass_chars):
        assert _outcome(spec, root) == _reference_outcome(spec)


# Small files, ingested below at every pass size up to their length.
_BOUNDARY_FILES = {
    "bad-line-in-the-last-pass": "a,b,1,0\nc,d,2,1\ne,f,11,2\n",
    "blank-lines-and-crlf": "a,b,1,0\r\n\r\n \t\r\nc,d,2,1\r\n\n\r\ne,f,3,2\r\n\r\n",
    "header": "\r\n \nsource,target,rating,time\r\na,b,1,0\nc,d,2,1",
    "header-only-first": "a,b,1,0\nsource,target,rating,time\nc,d,2,1\n",
    "u2028-line-break": "a,b,1,0\u2028c,d,2,1\ne,f,3,2\u2028\u2028g,h,x,3\n",
    "u2028-no-fault": "a,b,1,0\u2028c,d,2,1\ne,f,3,2\u2028g,h,-1,3\n",
}


@pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
@pytest.mark.parametrize("text", list(_BOUNDARY_FILES.values()), ids=list(_BOUNDARY_FILES))
def test_pass_boundaries_change_nothing(tmp_path, text, bom):
    """At every pass size, from one character to the whole file, ingest
    gives what the references give: the same bytes and digest, or the same
    located fault.  A byte-order mark is dropped before the parse, so it
    moves no line; its file's own hash then differs from the reference's,
    and the one-pass outcome stands in for it."""
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode("utf-8"))
    spec = _spec(path)
    want = _reference_outcome(spec)
    if bom:
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        if not isinstance(want, str):
            with _pass_chars(len(text) + 1):  # one pass
                want = _outcome(spec, tmp_path)
    for pass_chars in range(1, len(text) + 2):
        with _pass_chars(pass_chars):
            assert _outcome(spec, tmp_path) == want, pass_chars


@pytest.mark.parametrize("text", [
    "a,b,1,0\rc,d,2,1\re,f,3,2\r",
    "a,b,1,0\rc,d,2,1\r\ne,f,3,2\x0bg,h,4,3\u2028i,j,5,4\x85k,l,6,5\n",
    "a,b,1,0\r\rc,d,2,1\x1c\x1de,f,3,2",
], ids=["cr-only", "mixed", "blank-lines"])
def test_every_line_boundary_ends_a_pass(tmp_path, text):
    """At one character a pass, each pass ends after the first line
    boundary of ``str.splitlines`` it reaches, ``"\\r\\n"`` as one, so
    every line with a record is a pass of its own; the parse still gives
    the references' snapshot."""
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode("utf-8"))
    spec = _spec(path)
    passes = mock.patch.object(weightpred.ingest, "_columns", wraps=weightpred.ingest._columns)
    with _pass_chars(1), passes as columns:
        assert _outcome(spec, tmp_path) == _reference_outcome(spec)
    assert columns.call_count == sum(1 for line in text.splitlines() if line.strip())
    assert all(len(call.args[0]) == 1 for call in columns.call_args_list)


def test_a_bad_line_in_the_last_of_several_default_passes_is_named(tmp_path):
    path = tmp_path / "raw.csv"
    write_rating_file(path, 8000)
    with path.open("a", encoding="utf-8") as f:
        f.write("u1,u2,11,1289000000\n")
    assert len(path.read_text()) > 2 * weightpred.ingest._PASS_CHARS
    spec = _spec(path)
    want = f"{path}: line 8001: weight 11.0 outside declared range [-10.0, 10.0]"
    assert _reference_outcome(spec) == want
    assert _outcome(spec, tmp_path) == want


# ---- the snapshot writer against json.dumps -----------------------------------

_PROVENANCE = st.dictionaries(st.text(max_size=4), st.recursive(
    st.none() | st.text(max_size=4) | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
), max_size=4)


def _assert_written_as_json_dumps(snapshot, edges, path):
    """The file is ``json.dumps`` of the id form, and the digest is the
    stdlib's recomputation from that form."""
    form = snapshot_form(edges, list(snapshot.raw_weight_range), snapshot.provenance)
    save_snapshot(snapshot, path)
    assert path.read_bytes() == (
        json.dumps(form, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode()
    assert snapshot.digest() == reference_digest(form)


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
    """``Snapshot(graph, weight, ...)`` checks nothing, so it may hold no edges."""
    snap = Snapshot(graph_of([], []), np.array([], dtype=float), (-1.0, 1.0), {"sampling": None})
    _assert_written_as_json_dumps(snap, [], tmp_path / "s.json")
