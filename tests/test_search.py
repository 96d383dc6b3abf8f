import gc
import itertools
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ladget
from ladget import _kernels, appendix, search
from ladget.coloring import MAX_MATERIALIZED, all_colorings
from ladget.errors import InvalidGraph6
from ladget.filters import _violations
from ladget.gadget import TruthTable, classify
from ladget.graphcore import (
    Graph,
    RoleLabeling,
    decode_graph6,
    encode_graph6,
    generate_connected,
    roles_isomorphic,
)
from ladget.search import (
    Hit,
    SearchOptions,
    enumerate_configs,
    rarity_stats,
    search_stream,
)
from oracles import config_key, permuted, random_connected
from test_graphcore import graphs

NAND_GRAPHS = ["FCZeO", "FCZUO"]


class TestEnumerateConfigs:
    @pytest.mark.parametrize(
        "n,arity,ordered,count",
        [
            (4, 1, False, 24),
            (4, 2, False, 12),
            (7, 2, False, 420),
            (8, 2, False, 840),
            (10, 2, False, 2520),
            (7, 2, True, 840),
        ],
    )
    def test_counts(self, n, arity, ordered, count):
        # n(n-1)(n-2) at arity 1; n(n-1)(n-2)(n-3)/2 for unordered input
        # pairs, twice that when input order matters.
        got = enumerate_configs(n, arity, ordered)
        assert len(got) == count

    def test_layout(self):
        got = enumerate_configs(4, 1)
        assert got.shape == (24, 4)
        assert set(got[:, 3].tolist()) == {-1}
        first = got[0].tolist()
        assert first == [0, 1, 2, -1]

    def test_unordered_pairs_sorted(self):
        got = enumerate_configs(5, 2)
        assert (got[:, 2] < got[:, 3]).all()

    def test_lexicographic(self):
        got = enumerate_configs(4, 2)
        as_tuples = [tuple(r) for r in got.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_table_is_write_protected(self):
        got = enumerate_configs(5, 2)
        with pytest.raises(ValueError):
            got[0, 0] = 9

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            enumerate_configs(5, 3)


class TestOptions:
    def test_defaults(self):
        opt = SearchOptions()
        assert opt.targets == ("NAND",)
        assert opt.arity == 2 and opt.use_filter and opt.jobs == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arity": 3},
            {"sample_rate": 0.0},
            {"sample_rate": 1.5},
            {"jobs": 0},
            {"targets": ("NAND", "XNAND")},
            {"use_filter": False, "minimal_mode": True},
            {"targets": ("NAND", "NOT")},
            {"sample_rate": 0.5, "seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchOptions(**kwargs)

    def test_list_targets_are_a_tuple(self, tmp_path):
        # A list of targets runs the same census as the tuple, and resumes
        # the tuple run's checkpoint: the fingerprint is unchanged.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text(
            "".join(encode_graph6(g) + "\n" for g in generate_connected(4))
        )
        opts = SearchOptions(targets=["NOT"], arity=1)
        assert opts.targets == ("NOT",)
        tupled = replace(opts, targets=("NOT",))
        want = _report(search_stream(str(stream), tupled))
        got = _report(search_stream(str(stream), opts))
        assert got["hits_raw"] == {"NOT": 2}
        assert json.dumps(got) == json.dumps(want)
        search_stream(str(stream), replace(tupled, checkpoint=str(ck)))
        again = search_stream(str(stream), replace(opts, checkpoint=str(ck)))
        assert _report(again) == want


class TestSmallCensus:
    def test_not_census_order_four(self):
        stream = [encode_graph6(g) for g in generate_connected(4)]
        rep = search_stream(stream, SearchOptions(targets=("NOT",), arity=1))
        assert rep.graphs_seen == 6
        assert rep.configs_enumerated == 144
        assert rep.configs_after_filter == 2
        assert rep.hits_raw == {"NOT": 2}
        (hit,) = rep.hits["NOT"]
        assert hit.graph6 == "CN"
        assert hit.roles == RoleLabeling(0, (2,), 1)
        assert hit.truth_table == "10"
        assert hit.n == 4

    def test_nand_on_the_two_known_graphs(self):
        rep = search_stream(NAND_GRAPHS, SearchOptions(targets=("NAND",)))
        assert rep.hits_raw == {"NAND": 3}
        assert [h.graph6 for h in rep.hits["NAND"]] == ["FCZUO", "FCZeO"]
        assert rep.hits["NAND"][0].roles == RoleLabeling(2, (3, 6), 0)
        assert rep.hits["NAND"][1].roles == RoleLabeling(3, (2, 6), 4)

    def test_hits_are_least_representatives(self):
        rep = search_stream(NAND_GRAPHS, SearchOptions(targets=("NAND",)))
        for hs in rep.hits.values():
            for h in hs:
                assert h == min(
                    x for x in rep.hits[h.function] if x.graph6 == h.graph6
                )

    def test_filter_off_same_hits(self):
        on = search_stream(NAND_GRAPHS, SearchOptions(targets=("NAND",)))
        off = search_stream(
            NAND_GRAPHS, SearchOptions(targets=("NAND",), use_filter=False)
        )
        assert on.hits == off.hits
        assert off.configs_after_filter == off.configs_enumerated

    def test_open_targets_report_unnamed_functions(self):
        stream = [encode_graph6(g) for g in generate_connected(7)][:400]
        rep = search_stream(stream, SearchOptions(targets=()))
        for fn in rep.hits:
            assert fn in ("NAND", "AND", "OR", "NOR", "XOR", "XNOR") or fn.startswith(
                "tt_"
            )

    def test_per_order_bookkeeping(self):
        stream = ["CN", *NAND_GRAPHS]
        rep = search_stream(stream, SearchOptions(targets=("NAND",)))
        assert set(rep.per_order) == {4, 7}
        assert rep.per_order[4]["graphs"] == 1
        assert rep.per_order[7]["graphs"] == 2
        assert rep.per_order[7]["configs_enumerated"] == 840

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_for_the_run(self, enabled):
        seen = []

        def records(lines):
            for line in lines:
                seen.append(gc.isenabled())
                yield line

        opts = SearchOptions(targets=("NAND",), strict=True)
        (gc.enable if enabled else gc.disable)()
        try:
            rep = search_stream(records(NAND_GRAPHS), opts)
            assert rep.hits_raw == {"NAND": 3}
            assert gc.isenabled() == enabled
            with pytest.raises(InvalidGraph6):
                search_stream(records(["!!!"]), opts)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [False] * 3


class TestFilterSoundness:
    # The structural filter loses no gadget where the census runs: with it
    # off, the same raw counts and the same least hits.  Without the filter
    # no NOR, XOR or XNOR configuration exists on 4-8 vertices either.
    def test_orders_4_to_7_unfiltered_arity2(self):
        stream = [encode_graph6(g) for n in range(4, 8) for g in generate_connected(n)]
        rep = search_stream(stream, SearchOptions(targets=(), use_filter=False))
        assert rep.hits_raw == {"NAND": 3, "tt_1011": 1, "tt_1101": 2}

    def test_order8_arity2_filtered_equals_unfiltered(self, connected8_path):
        opts = SearchOptions(targets=())
        filtered = search_stream(str(connected8_path), opts)
        unfiltered = search_stream(
            str(connected8_path), replace(opts, use_filter=False)
        )
        assert unfiltered.hits_raw == {
            "AND": 4, "NAND": 115, "OR": 2, "tt_1011": 49, "tt_1101": 62
        }
        assert filtered.hits_raw == unfiltered.hits_raw
        assert filtered.hits == unfiltered.hits

    def test_order8_arity1_unfiltered_equals_filtered_golden(self, connected8_path):
        entry = GOLDEN["arity1_all_filtered"]
        opts = SearchOptions(**entry["report"]["options"])
        assert opts.use_filter
        lines = connected8_path.read_text().splitlines(keepends=True)
        got = search_stream(
            lines[: entry["lines"]], replace(opts, use_filter=False)
        ).to_json_dict()
        assert got["hits_raw"] == entry["report"]["hits_raw"]
        assert got["hits"] == entry["report"]["hits"]


class TestMinimalMode:
    # Minimal mode may drop gadgets above a function's least order (NAND
    # 115 -> 36 raw hits at order 8), but never one at it: every function
    # keeps its least order and its deduplicated hits there.  Pinned as
    # function: (least order, distinct hits at that order).
    @pytest.fixture(scope="class")
    def orders_4_to_7(self):
        return [encode_graph6(g) for n in range(4, 8) for g in generate_connected(n)]

    @pytest.mark.parametrize(
        "arity,ordered,want",
        [
            pytest.param(2, False, {
                "AND": (8, 3), "NAND": (7, 2), "OR": (8, 2),
                "tt_1011": (7, 1), "tt_1101": (7, 1),
            }, id="arity2"),
            pytest.param(2, True, {
                "AND": (8, 5), "NAND": (7, 4), "OR": (8, 4),
                "tt_1011": (7, 2), "tt_1101": (7, 2),
            }, id="arity2-ordered"),
            pytest.param(1, False, {"MOV": (5, 1), "NOT": (4, 1)}, id="arity1"),
        ],
    )
    def test_keeps_every_least_order_hit(
        self, orders_4_to_7, connected8_path, arity, ordered, want
    ):
        # Arity 1 runs over orders 4-7 only: at order 8 it has 76,240 raw
        # hits and takes seconds.
        stream = list(orders_4_to_7)
        if arity == 2:
            stream += connected8_path.read_text().splitlines()
        opts = SearchOptions(targets=(), arity=arity, ordered_inputs=ordered)
        full = search_stream(stream, opts).hits
        minimal = search_stream(stream, replace(opts, minimal_mode=True)).hits
        assert set(minimal) == set(full) == set(want)
        for fn, (least, count) in want.items():
            at_least = [h for h in full[fn] if h.n == least]
            assert min(h.n for h in full[fn]) == least and len(at_least) == count
            assert min(h.n for h in minimal[fn]) == least
            assert [h for h in minimal[fn] if h.n == least] == at_least


class TestAppendixOrder10:
    # The census over the appendix's order-10 graphs, the graphs of the
    # paper's headline claim: every mode finds exactly the table's 20 NOR,
    # 4 XOR and 2 XNOR classes, the same under one and two workers.
    TABLE = {"NOR": 20, "XOR": 4, "XNOR": 2}

    @pytest.fixture(scope="class")
    def rows(self):
        entries, meta = appendix.load_table()
        assert meta["index_base"] == 0
        rows = [e for e in entries if decode_graph6(e.graph6).n == 10]
        assert Counter(e.function for e in rows) == self.TABLE
        return rows

    @pytest.fixture(scope="class")
    def stream(self, rows):
        stream = list(dict.fromkeys(e.graph6 for e in rows))
        assert len(stream) == 24
        return stream

    @pytest.mark.parametrize("kw", [
        pytest.param({}, id="filtered"),
        pytest.param({"use_filter": False}, id="unfiltered"),
        pytest.param({"minimal_mode": True}, id="minimal"),
    ])
    def test_finds_the_table_classes(self, stream, kw):
        opts = SearchOptions(targets=tuple(self.TABLE), **kw)
        rep = search_stream(stream, opts)
        assert {fn: len(hs) for fn, hs in rep.hits.items()} == self.TABLE
        assert _report(search_stream(stream, replace(opts, jobs=2))) == _report(rep)

    def test_each_minimal_hit_is_one_table_row(self, rows, stream):
        opts = SearchOptions(targets=tuple(self.TABLE), minimal_mode=True)
        hits = [h for hs in search_stream(stream, opts).hits.values() for h in hs]
        configs = [e.config() for e in rows]
        matched = []
        for h in hits:
            g = decode_graph6(h.graph6)
            (i,) = [i for i, c in enumerate(configs)
                    if roles_isomorphic(g, h.roles, c.graph, c.roles)]
            assert rows[i].function == h.function
            matched.append(i)
        assert sorted(matched) == list(range(len(rows)))


class TestBadLines:
    def test_lenient_counts_and_continues(self):
        rep = search_stream(
            ["CN", "", "!!!", "FCZeO"], SearchOptions(targets=("NAND",))
        )
        assert rep.graphs_seen == 2
        assert rep.bad_lines == 1
        assert rep.hits_raw.get("NAND") == 1

    def test_strict_raises_with_first_line_number(self):
        with pytest.raises(InvalidGraph6, match="line 2"):
            search_stream(
                ["CN", "!!!", "???also bad"],
                SearchOptions(targets=("NAND",), strict=True),
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_stops_at_first_bad_chunk(self, jobs):
        pulled = 0

        def source():
            nonlocal pulled
            head = ["CN", "!!!"]
            for rec in itertools.chain(head, itertools.repeat("CN", 20000)):
                pulled += 1
                yield rec

        with pytest.raises(InvalidGraph6, match="line 2"):
            search_stream(source(), SearchOptions(strict=True, jobs=jobs))
        assert pulled <= search.CHUNK_RECORDS * (2 * jobs + 2)

    def test_oversize_record_is_a_bad_line(self):
        big = "`" + "?" * 88  # well-formed graph6, 33 vertices
        rep = search_stream([big, "CN"], SearchOptions(targets=("NOT",), arity=1))
        assert rep.bad_lines == 1 and rep.graphs_seen == 1


def _reference_decode(records):
    # Per record with decode_graph6: the good records by order as (lineno,
    # text, rows), the bad count and the first bad (lineno, message).
    groups, bad, first = {}, 0, None
    for lineno, line in records:
        text = line.strip()
        if not text:
            continue
        try:
            g = decode_graph6(text)
        except InvalidGraph6 as exc:
            bad += 1
            first = first or (lineno, str(exc))
            continue
        groups.setdefault(g.n, []).append((lineno, text, g.adj))
    return groups, bad, first


def _assert_block_decodes_like_reference(lines):
    records = list(enumerate(lines, start=1))
    tally = search._Tally()
    got = search._decode_block(records, tally)
    groups, bad, first = _reference_decode(records)
    assert tally.counts["bad",] == bad
    assert tally.first_bad == first
    assert set(got) == set(groups)
    for n, (linenos, texts, adj) in got.items():
        assert adj.dtype == np.int64 and adj.shape == (len(texts), n)
        rows = [tuple(row) for row in adj.tolist()]
        assert list(zip(linenos, texts, rows)) == groups[n]
    return bad, first


# Every malformed kind of TestGraph6.test_rejects, a raw 0xff byte as the
# stream reader delivers it, inner spaces at and off the record length, a
# non-ASCII first character, and an order above 32.
MALFORMED = [
    ">>graph6<<C~", "?", "~??", "C", "C~~", "A@", "C>", "C\x7f",
    b"C\xff".decode("ascii", "replace"), "GCO _{", "GCO j_{",
    "\ufffdCOj_{", "`" + "?" * 88,
]


class TestBlockDecode:
    def test_connected8_with_bad_records_between(self, connected8_path):
        lines = connected8_path.read_text().splitlines()
        mixed = []
        for k, line in enumerate(lines):
            mixed.append(line)
            if k % 997 == 0:
                mixed += [MALFORMED[k // 997 % len(MALFORMED)], "  "]
        bad, first = _assert_block_decodes_like_reference(mixed)
        assert bad == 12 and first[0] == 2

    @given(st.lists(graphs(max_n=12), max_size=40), st.data())
    def test_random_graphs_with_bad_records(self, gs, data):
        gs += [Graph(1, (0,)), Graph(2, (0, 0)), Graph(2, (2, 1))]
        lines = [encode_graph6(g) for g in gs]
        for bad in data.draw(st.lists(st.sampled_from(MALFORMED), max_size=5)):
            lines.insert(data.draw(st.integers(0, len(lines))), bad)
        _assert_block_decodes_like_reference(lines)

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_each_malformed_kind(self, bad):
        lines = ["CN", bad, "FCZeO", bad, "A_"]
        assert _assert_block_decodes_like_reference(lines)[0] == 2

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_census_bad_count_and_strict_error(self, bad):
        lines = ["CN", "FCZeO", " ", bad, "A_", bad]
        _, bad_count, first = _reference_decode(enumerate(lines, start=1))
        rep = search_stream(lines, SearchOptions(targets=("NAND",)))
        assert rep.bad_lines == bad_count == 2
        with pytest.raises(InvalidGraph6) as err:
            search_stream(lines, SearchOptions(targets=("NAND",), strict=True))
        assert str(err.value) == "line {}: {}".format(*first)


GOLDEN = json.loads((Path(__file__).parent / "data" / "census_golden.json").read_text())


class TestGoldenReports:
    # Reports written by tools/make_census_golden.py, pinned bit for bit
    # apart from elapsed_s, also with one record per block, and so one
    # graph per pass, and one (graph, configuration) pair per scan step.
    @pytest.mark.parametrize("tiny_budgets", [False, True])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_is_pinned(self, monkeypatch, connected8_path, name, tiny_budgets):
        entry = GOLDEN[name]
        if tiny_budgets:
            monkeypatch.setattr(_kernels, "SCAN_CELLS", 1)
            monkeypatch.setattr(search, "CHUNK_RECORDS", 1)
        lines = connected8_path.read_text().splitlines(keepends=True)
        options = SearchOptions(**entry["report"]["options"])
        assert options.jobs == 1
        got = search_stream(lines[: entry["lines"]], options).to_json_dict()
        del got["elapsed_s"]
        assert json.loads(json.dumps(got)) == entry["report"]


class TestSampling:
    def test_reproducible(self):
        stream = [encode_graph6(g) for g in generate_connected(6)]
        opt = SearchOptions(targets=(), sample_rate=0.3, seed=11)
        a = search_stream(stream, opt)
        b = search_stream(stream, opt)
        assert a.configs_enumerated == b.configs_enumerated
        assert a.configs_enumerated < 112 * 180  # actually sampled

    def test_different_seed_different_sample(self):
        stream = [encode_graph6(g) for g in generate_connected(6)]
        a = search_stream(stream, SearchOptions(targets=(), sample_rate=0.3, seed=1))
        b = search_stream(stream, SearchOptions(targets=(), sample_rate=0.3, seed=2))
        assert a.configs_enumerated != b.configs_enumerated

    def test_rate_one_is_exhaustive(self):
        rep = search_stream(
            ["CN"], SearchOptions(targets=("NOT",), arity=1, sample_rate=1.0)
        )
        assert rep.configs_enumerated == 24


class TestDedupe:
    # The census keeps the least hit per role-respecting isomorphism class.
    NAND7 = Hit("FCZeO", 3, 4, (2, 6), "NAND", "1110")

    def _nand_hits(self, stream, **kw):
        rep = search_stream(stream, SearchOptions(targets=("NAND",), **kw))
        return rep.hits_raw["NAND"], rep.hits

    def test_collapses_isomorphic_labelings(self):
        g = decode_graph6("FCZeO")
        h = encode_graph6(permuted(g, [6, 5, 4, 3, 2, 1, 0]))
        assert self._nand_hits(["FCZeO", h]) == (2, {"NAND": [self.NAND7]})
        assert self._nand_hits([h, "FCZeO"]) == (2, {"NAND": [self.NAND7]})

    def test_input_order_ignored_by_default(self):
        # Swapping vertices 2 and 6 swaps the hit's inputs: one class with
        # unordered inputs, two with ordered ones.
        swapped = encode_graph6(
            permuted(decode_graph6("FCZeO"), [0, 1, 6, 3, 4, 5, 2])
        )
        stream = ["FCZeO", swapped]
        assert self._nand_hits(stream) == (2, {"NAND": [self.NAND7]})
        reversed_inputs = self.NAND7._replace(inputs=(6, 2))
        assert self._nand_hits(stream, ordered_inputs=True) == (
            4, {"NAND": [self.NAND7, reversed_inputs]}
        )

    def test_order_independence(self):
        stream = ["FCZeO", "FCZUO"]
        raw, hits = self._nand_hits(stream)
        assert raw == 3 and len(hits["NAND"]) == 2
        assert self._nand_hits(stream[::-1]) == (raw, hits)

    def test_sampled_repeats_keep_the_least_hit_in_one_pass(self, monkeypatch):
        # At seed 7 the two copies of CN draw different configurations, so
        # a class's least hit is on line 1 or on line 2.  It is the least by
        # (graph6, configuration index), then line, whether the copies share
        # a pass or each is a block of its own.
        opt = SearchOptions(targets=(), arity=1, sample_rate=0.5, seed=7)
        stream = ["CN", "CN"]
        _, _, hits = _reference_census(stream, opt)
        least = {}
        for h in sorted(hits):
            key = config_key(decode_graph6(h.graph6), h.roles)
            least.setdefault((h.function, key), h)
        want = sorted(least.values(), key=lambda h: (h.function, h))
        rep = search_stream(stream, opt)
        assert [h for fn in sorted(rep.hits) for h in rep.hits[fn]] == want
        monkeypatch.setattr(search, "CHUNK_RECORDS", 1)
        assert search_stream(stream, opt).hits == rep.hits

    def test_roles_built_only_for_reported_hits(self, monkeypatch):
        # A hit is its row from scan to JSON: neither the census nor its
        # report builds a RoleLabeling.  Hit.roles builds one on demand.
        built = []
        check = RoleLabeling.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(RoleLabeling, "__post_init__", counting)
        stream = [encode_graph6(g) for g in generate_connected(6)]
        rep = search_stream(stream, SearchOptions(targets=(), arity=1))
        d = rep.to_json_dict()
        assert len(d["hits"]["NOT"]) == len(rep.hits["NOT"]) > 1
        assert built == []
        roles = rep.hits["NOT"][0].roles
        assert built == [roles]
        assert roles.to_json_dict() == d["hits"]["NOT"][0]["roles"]


class TestParallel:
    def test_two_jobs_same_report(self, tmp_path):
        stream_file = tmp_path / "mix.g6"
        records = ["CN", *NAND_GRAPHS] + [
            encode_graph6(g) for g in generate_connected(6)[:40]
        ]
        stream_file.write_text("\n".join(records) + "\n")
        opt1 = SearchOptions(targets=("NAND",))
        opt2 = SearchOptions(targets=("NAND",), jobs=2)
        a = search_stream(str(stream_file), opt1)
        b = search_stream(str(stream_file), opt2)
        da, db = a.to_json_dict(), b.to_json_dict()
        for d in (da, db):
            d.pop("elapsed_s")
            d["options"].pop("jobs")
        assert da == db

    @pytest.mark.parametrize("chunk", [1, 7, 512])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunking_same_report(self, monkeypatch, chunk, jobs):
        connected6 = [encode_graph6(g) for g in generate_connected(6)]
        # Bad and blank lines between records of two orders, across blocks.
        mixed = []
        records = connected6[:60] + [encode_graph6(g) for g in generate_connected(5)]
        for i, rec in enumerate(records):
            mixed += [rec, "" if i % 5 else "!!!"]
        streams = (connected6, mixed)
        opt = SearchOptions(targets=(), arity=1)
        wants = [_report(search_stream(s, opt)) for s in streams]
        assert wants[1]["bad_lines"] == 17
        assert set(wants[1]["per_order"]) == {"5", "6"}
        monkeypatch.setattr(search, "CHUNK_RECORDS", chunk)
        for stream, want in zip(streams, wants):
            got = search_stream(stream, replace(opt, jobs=jobs))
            assert want["hits_raw"] and _report(got) == want


def _roles_of(row, arity) -> RoleLabeling:
    a0, th, i1, i2 = (int(x) for x in row)
    return RoleLabeling(a0, (i1,) if arity == 1 else (i1, i2), th)


def _reference_census(stream, opt):
    # Per record, as the census did before blocks were batched: sample,
    # then every coloring from all_colorings and the filtered law scan.
    # Returns (bad lines, per-order counts, raw hits).
    bad, per_order, hits = 0, {}, []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            g = decode_graph6(text)
        except InvalidGraph6:
            bad += 1
            continue
        cfgs = enumerate_configs(g.n, opt.arity, opt.ordered_inputs)
        rng = np.random.default_rng((opt.seed, lineno))
        cfgs = cfgs[rng.random(len(cfgs)) < opt.sample_rate]
        res = _kernels.scan_configs(
            all_colorings(g), g.adj_array(), g.deg_array(), cfgs,
            opt.arity, True, opt.minimal_mode,
        )
        slot = per_order.setdefault(g.n, Counter(graphs=0))
        slot.update(graphs=1, configs_enumerated=len(cfgs),
                    configs_after_filter=int((res != -1).sum()))
        for row, code in zip(cfgs, res.tolist()):
            fn = classify(TruthTable.from_code(opt.arity, code)) if code >= 0 else None
            if fn is None or fn.degenerate:
                continue
            bits = fn.truth_table.bitstring()
            name = fn.name if fn.name != "other" else f"tt_{bits}"
            r = _roles_of(row, opt.arity)
            hits.append(Hit(text, r.anchor, r.output, r.inputs, name, bits))
    return bad, per_order, hits


class TestBlockKernel:
    def test_colorings_only_for_graphs_that_keep_a_configuration(
        self, monkeypatch
    ):
        # Filter first: in minimal mode the enumerator sees exactly the
        # graphs with a configuration that passes the readable rules, in
        # stream order, and the configuration counts do not move.
        graphs = generate_connected(6)
        cfgs = enumerate_configs(6, 2)
        survivors = [
            g.adj
            for g in graphs
            if any(not any(_violations(g, _roles_of(c, 2), True)) for c in cfgs)
        ]
        assert 0 < len(survivors) < len(graphs)
        seen = []
        real = search.stacked_colorings

        def counting(adj, *args):
            seen.extend(tuple(row) for row in adj.tolist())
            return real(adj, *args)

        monkeypatch.setattr(search, "stacked_colorings", counting)
        rep = search_stream(
            [encode_graph6(g) for g in graphs],
            SearchOptions(targets=(), minimal_mode=True),
        )
        assert seen == survivors
        assert rep.configs_enumerated == 112 * 180
        assert rep.configs_after_filter == 26

    @pytest.mark.parametrize("use_filter", [False, True])
    def test_one_pass_per_block_order(
        self, monkeypatch, connected8_path, use_filter
    ):
        # A pass is a block's graphs of one order: the first block of the
        # order-8 stream, 512 graphs at 840 configurations each, is one
        # filter call when filtered, one coloring call and one law scan,
        # whose verdicts are int8, one per configuration the filter keeps.
        lines = connected8_path.read_text().splitlines()[: search.CHUNK_RECORDS]
        returned = {"stacked_colorings": [], "_filter_mask_vec": [], "scan_pass": []}
        for module, name in ((search, "stacked_colorings"),
                             (_kernels, "_filter_mask_vec"), (_kernels, "scan_pass")):

            def call(*args, real=getattr(module, name), out=returned[name]):
                out.append(real(*args))
                return out[-1]

            monkeypatch.setattr(module, name, call)
        rep = search_stream(lines, SearchOptions(targets=(), use_filter=use_filter))
        assert rep.per_order[8]["graphs"] == len(lines) == 512
        assert rep.configs_enumerated == 512 * 840
        assert len(returned["stacked_colorings"]) == 1
        assert len(returned["_filter_mask_vec"]) == use_filter
        (res,) = returned["scan_pass"]
        assert res.dtype == np.int8 and len(res) == rep.configs_after_filter

    def test_block_of_large_graphs_stays_within_the_coloring_bound(
        self, monkeypatch
    ):
        # 512 random trees of order 17 have 2**15 coloring rows each.  The
        # graphs that keep a sampled configuration hold more rows than one
        # stacked_colorings call may materialize, so the block's passes
        # split them, each within the bound.
        rng = np.random.default_rng(17)
        stream = [
            encode_graph6(Graph.from_edges(
                17, [(int(rng.integers(v)), v) for v in range(1, 17)]
            ))
            for _ in range(512)
        ]
        rows = []
        real = search.stacked_colorings

        def counting(adj):
            C, starts = real(adj)
            rows.append(len(C))
            return C, starts

        monkeypatch.setattr(search, "stacked_colorings", counting)
        rep = search_stream(stream, SearchOptions(
            targets=(), arity=1, use_filter=False, sample_rate=2 / 4080, seed=1
        ))
        assert rep.graphs_seen == 512
        assert rep.configs_after_filter == rep.configs_enumerated > 0
        assert sum(rows) > MAX_MATERIALIZED >= max(rows)

    def test_split_passes_match_whole_block_passes(
        self, monkeypatch, connected8_path, tmp_path
    ):
        # With the bound lowered to 100 worst-case order-8 colorings, a
        # block's order-8 graphs go in passes of 100: the sampled arity-1
        # census and a resume of its checkpoint, whose hit graphs are judged
        # again in passes of 100, give the whole-block report.
        lines = connected8_path.read_text().splitlines()[:1500]
        stream = tmp_path / "s.g6"
        stream.write_text("\n".join(lines) + "\n")
        opts = SearchOptions(targets=(), arity=1, sample_rate=0.5, seed=3)
        whole = search_stream(str(stream), opts).to_json_dict()
        calls = []
        real = _kernels._filter_mask_vec

        def counting(adj, *args):
            calls.append(len(adj))
            return real(adj, *args)

        monkeypatch.setattr(_kernels, "_filter_mask_vec", counting)
        monkeypatch.setattr(search, "MAX_MATERIALIZED", 100 * (3**7 + 1) // 2)
        ck = replace(opts, checkpoint=str(tmp_path / "ck.json"))
        for _ in range(2):
            split = search_stream(str(stream), ck).to_json_dict()
            assert {**split, "elapsed_s": 0, "options": 0} == {
                **whole, "elapsed_s": 0, "options": 0
            }
        # 17 passes over the three blocks, then more than one on resuming.
        assert max(calls) == 100 and len(calls) > 18

    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("one_graph_passes", [False, True])
    def test_mixed_order_block_matches_per_record_reference(
        self, monkeypatch, arity, one_graph_passes
    ):
        # One block holding orders 1-7 in a shuffled order, between blank
        # and undecodable lines, with sampled ordered inputs; with one
        # record per block, and so one graph per pass, too.
        rng = np.random.default_rng(9)
        graphs = [g for n in range(1, 6) for g in generate_connected(n)[:6]]
        graphs += [random_connected(n, rng) for n in (6, 6, 7, 7, 7)]
        graphs += [decode_graph6(g6) for g6 in NAND_GRAPHS]
        stream = []
        for i in rng.permutation(len(graphs)):
            stream += [encode_graph6(graphs[i]), ["", "!!!", "  "][i % 3]]
        opt = SearchOptions(targets=(), arity=arity, ordered_inputs=True,
                            sample_rate=0.5, seed=7)
        bad, per_order, hits = _reference_census(stream, opt)
        if one_graph_passes:
            monkeypatch.setattr(search, "CHUNK_RECORDS", 1)
        rep = search_stream(stream, opt)
        assert rep.bad_lines == bad > 0
        assert rep.per_order == {n: dict(c) for n, c in per_order.items()}
        assert set(rep.per_order) == set(range(1, 8))
        raw = Counter((h.function, h.n) for h in hits)
        assert raw and {
            (fn, n): c
            for fn, by in rep.hits_raw_per_order.items()
            for n, c in by.items()
        } == raw
        # The least raw hit in each (function, role-respecting isomorphism
        # class), listed by function, then in hit order.
        least = {}
        for h in sorted(hits):
            key = config_key(decode_graph6(h.graph6), h.roles, True)
            least.setdefault((h.function, key), h)
        want = sorted(least.values(), key=lambda h: (h.function, h))
        got = [h for fn in sorted(rep.hits) for h in rep.hits[fn]]
        assert got == want


def _report(rep) -> dict:
    # The report minus timing and the options that must not change it.
    d = rep.to_json_dict()
    d.pop("elapsed_s")
    for key in ("jobs", "checkpoint", "checkpoint_every"):
        d["options"].pop(key)
    return d


class Interrupted(Exception):
    pass


def _interrupt_after_first_save(monkeypatch, stream, opts, lines=1) -> dict:
    # Runs the census until its first checkpoint save that covers at least
    # `lines` lines (0: the save made before any block) and returns the
    # file.
    real_save = search._Checkpoint.save

    def save_once_then_die(self, done=False):
        real_save(self, done)
        if self.end[0] >= lines:
            raise Interrupted

    monkeypatch.setattr(search._Checkpoint, "save", save_once_then_die)
    with pytest.raises(Interrupted):
        search_stream(str(stream), opts)
    monkeypatch.setattr(search._Checkpoint, "save", real_save)
    return json.loads(Path(opts.checkpoint).read_text())


def _scan_only_saved_lines(monkeypatch, ck) -> list:
    # Replaces _scan_chunk with one that lets through one call, a resume's,
    # whose records are exactly the lines the checkpoint ck, if any, names,
    # in stream order, and fails on any other: a block scanned.  Returns the
    # calls' line numbers.
    rows = json.loads(ck.read_text())["hits"] if ck.exists() else []
    saved = sorted({lineno for lineno, _ in rows})
    real, calls = search._scan_chunk, []

    def scan(records, options):
        calls.append([lineno for lineno, _ in records])
        assert calls == [saved], "a block was scanned"
        return real(records, options)

    monkeypatch.setattr(search, "_scan_chunk", scan)
    return calls


class TestCheckpoint:
    def _opts(self, path):
        return SearchOptions(
            targets=("NAND",), checkpoint=str(path), checkpoint_every=1
        )

    def test_format_6_is_pinned_byte_for_byte(
        self, tmp_path, monkeypatch, connected8_path
    ):
        # tests/data/census_checkpoint.json, written by
        # tools/make_census_golden.py: a fresh run writes it byte for byte,
        # and resuming it gives the fresh run's report with only the saved
        # cells judged again.  A hit row reordered in both save and load
        # would pass every round-trip test, but not this one.
        fixture = (connected8_path.parent / "census_checkpoint.json").read_bytes()
        stream, fresh_ck, ck = (
            tmp_path / "head.g6", tmp_path / "fresh.json", tmp_path / "c.json"
        )
        lines = connected8_path.read_text().splitlines(keepends=True)
        stream.write_text("".join(lines[:300]))
        opts = SearchOptions(targets=(), arity=1, checkpoint_every=100)
        fresh = search_stream(str(stream), replace(opts, checkpoint=str(fresh_ck)))
        assert fresh_ck.read_bytes() == fixture
        ck.write_bytes(fixture)
        calls = _scan_only_saved_lines(monkeypatch, ck)
        resumed = search_stream(str(stream), replace(opts, checkpoint=str(ck)))
        assert fresh.hits_raw and _report(resumed) == _report(fresh)
        assert len(calls) == 1

    def test_saved_hit_with_a_configuration_out_of_range_is_refused(
        self, tmp_path, monkeypatch
    ):
        # A checkpoint is input from outside the program: a row's
        # configuration index must be one of its order's table, 24 rows at
        # order 4 and arity 1.  A resume keys exactly the hits its census of
        # the saved line finds, CN's j 0 and 2 as in a fresh run, never a
        # saved row, and raises before any report is built.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\n")
        opts = SearchOptions(targets=("NOT",), arity=1, checkpoint=str(ck))
        real_keys, keyed = search.stacked_config_keys, []

        def keys(*args):
            keyed.append(args[2].tolist())
            return real_keys(*args)

        monkeypatch.setattr(search, "stacked_config_keys", keys)
        search_stream(str(stream), opts)
        data = json.loads(ck.read_text())
        (row,) = data["hits"]
        cfgs = enumerate_configs(4, 1)
        assert row == [1, 0] and len(cfgs) == 24
        hits = [cfgs[[0, 2], :3].tolist()]
        assert keyed == hits
        monkeypatch.setattr(
            search, "_build_report", lambda *a: pytest.fail("a report was built")
        )
        for j in (24, -1):
            keyed.clear()
            row[1] = j
            ck.write_text(json.dumps(data))
            with pytest.raises(ValueError, match=f"checkpoint {ck} holds a hit"):
                search_stream(str(stream), opts)
            assert keyed == hits

    @pytest.mark.parametrize(
        "fault",
        ["past_prefix", "line_zero", "blank_line", "duplicate", "non_hit", "order",
         "moved", "dropped"],
    )
    def test_saved_hit_this_run_cannot_find_is_refused(self, tmp_path, fault):
        # The saved rows must be exactly the least hits, one per class, that
        # this run finds on the lines they name: distinct hit cells of the
        # covered lines, each its class's least, none missing from a line
        # that keeps another, on graphs of orders of which the saved counts
        # hold those hits.  Such a row would otherwise be reported as a hit,
        # change a class's representative or drop a class, or fail the
        # report's rarity statistics.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\n\nDD[\n")
        # A repeated row is judged unfiltered, where no filter mask can
        # drop the repeat.
        opts = SearchOptions(
            targets=(), arity=1, use_filter=fault != "duplicate",
            checkpoint=str(ck),
        )
        search_stream(str(stream), opts)
        data = json.loads(ck.read_text())
        hits = data["hits"]
        assert data["lineno"] == 3 and hits == [[1, 0], [3, 5], [3, 10]]
        if fault == "past_prefix":
            hits[0][0] = 4
        elif fault == "line_zero":
            hits[0][0] = 0
        elif fault == "blank_line":
            hits[0][0] = 2
        elif fault == "duplicate":
            hits.append(list(hits[0]))
        elif fault == "non_hit":
            # Anchor 0, output 3: CN's vertex 3 is adjacent to the anchor,
            # so the output is constant.
            assert enumerate_configs(4, 1)[4].tolist() == [0, 3, 1, -1]
            hits[0][1] = 4
        elif fault == "order":
            data["counts"] = [row for row in data["counts"] if row[-2] != 5]
        elif fault == "moved":
            # CN's NOT hits are j 0 and 2, one class: j 2 is a hit, but not
            # the class's least.
            cn = decode_graph6("CN")
            assert len({
                config_key(cn, RoleLabeling(a0, (i1,), th))
                for a0, th, i1, _ in enumerate_configs(4, 1)[[0, 2]].tolist()
            }) == 1
            hits[0][1] = 2
        else:
            # Line 3 keeps the row of one of DD['s two NOT classes.
            del hits[2]
        ck.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"checkpoint {ck} holds a hit"):
            search_stream(str(stream), opts)

    def test_sampled_hit_the_sample_never_drew_is_refused(self, tmp_path):
        # E?lw's MOV cell (anchor 0, input 3, output 2) is a hit of the
        # full census, but the 30 % sample of seed 3 does not draw it, so a
        # sampled run cannot have found it.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        records = [encode_graph6(g) for g in generate_connected(6)[:40]]
        stream.write_text("\n".join(records) + "\n")
        lineno = records.index("E?lw") + 1
        full = search_stream(str(stream), SearchOptions(targets=(), arity=1))
        assert Hit("E?lw", 0, 2, (3,), "MOV", "01") in full.hits["MOV"]
        opts = SearchOptions(
            targets=(), arity=1, sample_rate=0.3, seed=3, checkpoint=str(ck)
        )
        search_stream(str(stream), opts)
        data = json.loads(ck.read_text())
        j = enumerate_configs(6, 1).tolist().index([0, 2, 3, -1])
        assert [lineno, j] not in data["hits"]
        data["hits"].append([lineno, j])
        ck.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"checkpoint {ck} holds a hit"):
            search_stream(str(stream), opts)

    @pytest.mark.parametrize("fault", ["row_field", "no_hits", "count_row", "lineno"])
    def test_malformed_body_is_refused(self, tmp_path, fault):
        # A body of the right fingerprint but the wrong types is refused by
        # name, before any of it is read as counts, hits or a line count.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\n")
        opts = SearchOptions(targets=("NOT",), arity=1, checkpoint=str(ck))
        search_stream(str(stream), opts)
        data = json.loads(ck.read_text())
        bodies = []
        if fault == "row_field":
            for field, value in itertools.product((0, 1), ("1", True, [1])):
                row = list(data["hits"][0])
                row[field] = value
                bodies.append(dict(data, hits=[row]))
        elif fault == "no_hits":
            del data["hits"]
        elif fault == "count_row":
            data["counts"].append(5)
        else:
            data["lineno"] = "x"
        for body in bodies or [data]:
            ck.write_text(json.dumps(body))
            with pytest.raises(ValueError, match=f"checkpoint {ck} is malformed"):
                search_stream(str(stream), opts)

    @pytest.mark.parametrize(
        "bound", ["lines", "configs_enumerated", "configs_after_filter", "hits"]
    )
    def test_counts_the_covered_lines_cannot_hold_are_refused(
        self, tmp_path, bound
    ):
        # Each count row is bounded by what the covered lines can hold:
        # graphs plus bad lines by the line count, an order's configurations
        # by its graphs times its table (24 at order 4, arity 1), filtered
        # configurations by configurations and raw hits by filtered ones.
        # One count over its bound is refused by name.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\nDQw\n")
        opts = SearchOptions(targets=(), arity=1, checkpoint=str(ck))
        search_stream(str(stream), opts)
        data = json.loads(ck.read_text())
        counts = {tuple(row[:-1]): row for row in data["counts"]}
        assert data["lineno"] == 2 and counts["graphs", 4][-1] == 1
        assert counts["configs_enumerated", 4][-1] == 24
        if bound == "lines":
            counts["graphs", 4][-1] = counts["graphs", 5][-1] = 2000
        elif bound == "configs_enumerated":
            counts[bound, 4][-1] = 25
        elif bound == "configs_after_filter":
            counts[bound, 4][-1] = 25
            assert counts["configs_enumerated", 4][-1] == 24
        else:
            counts["hits", "NOT", 4][-1] = counts["configs_after_filter", 4][-1] + 1
        ck.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"checkpoint {ck} is malformed"):
            search_stream(str(stream), opts)

    def test_requires_path_source(self, tmp_path):
        ck = tmp_path / "c.json"
        with pytest.raises(ValueError, match="path source"):
            search_stream(["CN"], SearchOptions(targets=("NAND",), checkpoint=str(ck)))

    def test_unwritable_path_fails_before_the_scan(self, tmp_path, monkeypatch):
        stream, ck = tmp_path / "s.g6", tmp_path / "missing" / "c.json"
        stream.write_text("CN\n")
        calls = _scan_only_saved_lines(monkeypatch, ck)
        with pytest.raises(OSError):
            search_stream(str(stream), self._opts(ck))
        assert calls == []

    def test_line_zero_checkpoint_resumes_as_a_fresh_run(
        self, tmp_path, monkeypatch
    ):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("\n".join(NAND_GRAPHS + ["CN", "!!!"]) + "\n")
        saved = _interrupt_after_first_save(
            monkeypatch, stream, self._opts(ck), lines=0
        )
        assert saved["lineno"] == 0 and saved["counts"] == saved["hits"] == []
        resumed = search_stream(str(stream), self._opts(ck))
        fresh = search_stream(str(stream), SearchOptions(targets=("NAND",)))
        assert resumed.hits_raw and _report(resumed) == _report(fresh)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_resume_under_other_jobs(self, tmp_path, monkeypatch, jobs):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text(
            "\n".join(encode_graph6(g) for g in generate_connected(6)) + "\n"
        )
        monkeypatch.setattr(search, "CHUNK_RECORDS", 7)
        opts = SearchOptions(
            targets=(), arity=1, checkpoint=str(ck), checkpoint_every=1
        )
        saved = _interrupt_after_first_save(
            monkeypatch, stream, replace(opts, jobs=jobs)
        )
        assert saved["lineno"] == 7 and saved["done"] is False

        resumed = search_stream(str(stream), replace(opts, jobs=3 - jobs))
        fresh = search_stream(str(stream), SearchOptions(targets=(), arity=1))
        assert resumed.hits_raw and _report(resumed) == _report(fresh)

    def test_refuses_rewritten_prefix(self, tmp_path):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\nFCZeO\n")
        search_stream(str(stream), self._opts(ck))
        stream.write_text("FCZUO\nFCZeO\nFCZUO\n")
        with pytest.raises(ValueError, match="changed"):
            search_stream(str(stream), self._opts(ck))

    def test_resume_after_growth(self, tmp_path):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        all_recs = [encode_graph6(g) for g in generate_connected(5)] + NAND_GRAPHS
        stream.write_text("\n".join(all_recs[:4]) + "\n")
        first = search_stream(str(stream), self._opts(ck))
        assert first.graphs_seen == 4
        assert json.loads(ck.read_text())["done"] is True

        stream.write_text("\n".join(all_recs) + "\n")
        resumed = search_stream(str(stream), self._opts(ck))
        fresh = search_stream(
            str(stream), SearchOptions(targets=("NAND",))
        )
        dr, df = resumed.to_json_dict(), fresh.to_json_dict()
        for d in (dr, df):
            d.pop("elapsed_s")
            d["options"].pop("checkpoint")
            d["options"].pop("checkpoint_every")
        assert dr == df

    def test_bad_lines_are_counted_not_listed(self, tmp_path):
        # A checkpoint holds a count of bad lines, so 2000 of them take no
        # more room than 10 apart from the digits of the line number and
        # the count.  Neither path is in the file.
        sizes = []
        for name, bad in (("a", 10), ("b", 2000)):
            stream, ck = tmp_path / f"{name}.g6", tmp_path / f"{name}.json"
            stream.write_text("CN\n" + "!!!\n" * bad + "FCZeO\n")
            rep = search_stream(str(stream), self._opts(ck))
            assert rep.bad_lines == bad
            sizes.append(len(ck.read_text()))
        assert sizes[1] <= sizes[0] + 3 * 2

    def test_refuses_version_2_checkpoint(self, tmp_path):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\n!!!\nFCZeO\n")
        rep = search_stream(str(stream), self._opts(ck))
        data = json.loads(ck.read_text())
        # The same progress in the version-2 layout.
        data["fingerprint"]["version"] = 2
        data.pop("counts", None)
        data.update(
            graphs_seen=rep.graphs_seen,
            bad=[[2, "bad record"]],
            per_order=rep.per_order,
            hits_raw=[
                [fn, n, c]
                for fn, by in rep.hits_raw_per_order.items()
                for n, c in by.items()
            ],
        )
        ck.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="different run"):
            search_stream(str(stream), self._opts(ck))

    def test_refuses_version_3_checkpoint(self, tmp_path):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\nFCZeO\n")
        search_stream(str(stream), self._opts(ck))
        data = json.loads(ck.read_text())
        # The same progress under the version-3 and version-4 fingerprints,
        # which also named the source; version 4 stored a byte offset too.
        # Version 5 named no source but saved each hit as its Hit row.
        v5_hits = [["FCZeO", 3, [2, 6], 4, "NAND", "1110"]]
        for version, source, extra in (
            (3, {"source": str(stream)}, {}),
            (4, {"source": str(stream)}, {"offset": 9}),
            (5, {}, {"hits": v5_hits}),
        ):
            fingerprint = dict(data["fingerprint"], version=version, **source)
            ck.write_text(json.dumps(dict(data, fingerprint=fingerprint, **extra)))
            with pytest.raises(ValueError, match="different run"):
                search_stream(str(stream), self._opts(ck))

    def test_fingerprint_mismatch(self, tmp_path):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\n")
        search_stream(str(stream), self._opts(ck))
        for change in ({"targets": ("OR",)}, {"strict": True}):
            with pytest.raises(ValueError, match="different run"):
                search_stream(str(stream), replace(self._opts(ck), **change))

    @pytest.mark.parametrize(
        "change", ["moved", "checkpoint_every", "dot_path", "abs_path"]
    )
    def test_finished_checkpoint_resumes_without_scanning(
        self, tmp_path, monkeypatch, change
    ):
        # Neither the checkpoint's path, its save interval nor the spelling
        # of the stream's path is part of the run: a finished checkpoint
        # resumes under another one to the identical report without a
        # block scanned.
        monkeypatch.chdir(tmp_path)
        source, ck = "s.g6", tmp_path / "c.json"
        Path(source).write_text("\n".join(NAND_GRAPHS + ["CN", "!!!"]) + "\n")
        first = search_stream(source, self._opts(ck))
        assert first.hits_raw == {"NAND": 3} and first.bad_lines == 1
        opts = self._opts(ck)
        if change == "moved":
            copy = tmp_path / "b.json"
            copy.write_text(ck.read_text())
            opts = replace(opts, checkpoint=str(copy))
        elif change == "checkpoint_every":
            opts = replace(opts, checkpoint_every=50)
        elif change == "dot_path":
            source = "./s.g6"
        else:
            source = str(tmp_path / "s.g6")
        calls = _scan_only_saved_lines(monkeypatch, Path(opts.checkpoint))
        resumed = search_stream(source, opts)
        assert _report(resumed) == _report(first) and len(calls) == 1

    def test_refuses_unterminated_last_line_that_grew(self, tmp_path):
        # Resuming after the unterminated last line gained its newline would
        # count that newline as a blank line and shift every later line
        # number, and with it the sample drawn for each record.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        records = [encode_graph6(g) for g in generate_connected(6)[:30]]
        opts = SearchOptions(
            targets=(), arity=1, sample_rate=0.5, seed=3,
            checkpoint=str(ck), checkpoint_every=1,
        )
        stream.write_text("\n".join(records[:10]))
        search_stream(str(stream), opts)
        assert json.loads(ck.read_text())["lineno"] == 10
        stream.write_text("\n".join(records) + "\n")
        with pytest.raises(ValueError, match="changed"):
            search_stream(str(stream), opts)

    def test_resume_does_not_depend_on_key_codes(self, tmp_path, monkeypatch):
        # A checkpoint holds no canonical keys: its hits are keyed again on
        # load, so a resume under other key codes still folds each class
        # into one hit.  Every record appears twice, so classes met before
        # the save meet their copies after it.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        records = [encode_graph6(g) for g in generate_connected(6)]
        stream.write_text("\n".join(records * 2) + "\n")
        monkeypatch.setattr(search, "CHUNK_RECORDS", 7)
        opts = SearchOptions(
            targets=(), arity=1, checkpoint=str(ck), checkpoint_every=1
        )
        assert _interrupt_after_first_save(monkeypatch, stream, opts)["lineno"] == 7

        real_keys = search.stacked_config_keys

        def keys_v2(*args):
            keys, codes = real_keys(*args)
            return [("v2", key) for key in keys], codes

        monkeypatch.setattr(search, "stacked_config_keys", keys_v2)
        resumed = search_stream(str(stream), opts)
        fresh = search_stream(str(stream), SearchOptions(targets=(), arity=1))
        assert resumed.hits_raw and _report(resumed) == _report(fresh)

    def test_sigkill_resume_under_either_jobs(self, tmp_path):
        # A child process kills itself with SIGKILL right after the save
        # that reaches line 21; its checkpoint resumes under either --jobs
        # to the report of an uninterrupted run.
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text(
            "\n".join(encode_graph6(g) for g in generate_connected(6)) + "\n"
        )
        child = """if True:
            import os, signal, sys
            from ladget import search
            search.CHUNK_RECORDS = 7
            real_save = search._Checkpoint.save

            def save(self, done=False):
                real_save(self, done)
                if self.end[0] >= 21:
                    os.kill(os.getpid(), signal.SIGKILL)

            search._Checkpoint.save = save
            search.search_stream(sys.argv[1], search.SearchOptions(
                targets=(), arity=1, checkpoint=sys.argv[2], checkpoint_every=1
            ))
        """
        src = os.path.dirname(os.path.dirname(ladget.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", child, str(stream), str(ck)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        killed = ck.read_text()
        saved = json.loads(killed)
        assert saved["lineno"] == 21 and saved["done"] is False
        # Format 6: no byte offset, source path or canonical keys, and a
        # hit is its (line, configuration index) cell.
        assert set(saved) == {
            "fingerprint", "lineno", "prefix_sha256", "counts", "hits", "done"
        }
        assert set(saved["fingerprint"]) == {"options", "version"}
        assert saved["hits"] and all(len(row) == 2 for row in saved["hits"])

        fresh = search_stream(str(stream), SearchOptions(targets=(), arity=1))
        for jobs in (1, 2):
            copy = tmp_path / f"c{jobs}.json"
            copy.write_text(killed)
            opts = SearchOptions(
                targets=(), arity=1, jobs=jobs, checkpoint=str(copy)
            )
            resumed = search_stream(str(stream), opts)
            assert resumed.hits_raw and _report(resumed) == _report(fresh)

    def test_census_and_resume_do_not_import_numpy_ma(
        self, tmp_path, connected8_path
    ):
        # numpy 2.4 imports numpy.ma on the first bare np.unique, about
        # 13 ms and 1.4 MB of resident memory that neither a census nor a
        # resume of its finished checkpoint, which judges thousands of
        # saved cells again, has any use for.
        stream, ck = tmp_path / "head.g6", tmp_path / "c.json"
        lines = connected8_path.read_text().splitlines(keepends=True)
        stream.write_text("".join(lines[:300]))
        child = """if True:
            import sys
            from ladget.search import SearchOptions, search_stream
            opts = SearchOptions(
                targets=(), arity=1, checkpoint=sys.argv[2], checkpoint_every=100
            )
            fresh = search_stream(sys.argv[1], opts)
            resumed = search_stream(sys.argv[1], opts)
            assert fresh.hits and resumed.hits == fresh.hits
            print("numpy.ma" in sys.modules)
        """
        src = os.path.dirname(os.path.dirname(ladget.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", child, str(stream), str(ck)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestReport:
    def test_json_roundtrip(self):
        rep = search_stream(NAND_GRAPHS, SearchOptions(targets=("NAND",)))
        d = json.loads(json.dumps(rep.to_json_dict()))
        assert d["graphs_seen"] == 2
        assert d["hits"]["NAND"][0]["graph6"] == "FCZUO"
        assert d["backend"] == _kernels.BACKEND

    def test_empty_stream(self):
        rep = search_stream([], SearchOptions(targets=("NAND",)))
        assert rep.graphs_seen == 0
        assert rep.filter_pass_ratio is None
        assert rep.to_json_dict()["filter_pass_ratio"] is None

    def test_rarity_no_hits_row(self):
        rep = search_stream(["CN"], SearchOptions(targets=("NAND",)))
        rows = rarity_stats(rep)
        assert rows == []  # nothing was ever raw-hit

    def test_rarity_rows_carry_both_numerators(self):
        rep = search_stream(NAND_GRAPHS, SearchOptions(targets=("NAND",)))
        (row,) = rarity_stats(rep)
        assert row["function"] == "NAND" and row["n"] == 7
        assert row["hits_raw"] == 3 and row["hits_deduped"] == 2
        assert row["graphs_per_hit_raw"] == pytest.approx(2 / 3)
        assert row["graphs_per_hit_deduped"] == pytest.approx(1.0)
        assert row["configs_per_hit_raw"] == pytest.approx(280.0)
        assert row["configs_per_hit_deduped"] == pytest.approx(420.0)
