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

import ladget
from ladget import _kernels, search
from ladget.coloring import all_colorings
from ladget.errors import InvalidGraph6
from ladget.filters import _violations
from ladget.gadget import TruthTable, classify
from ladget.graphcore import (
    RoleLabeling,
    decode_graph6,
    encode_graph6,
    generate_connected,
    random_connected,
)
from ladget.search import (
    Hit,
    SearchOptions,
    dedupe_hits,
    enumerate_configs,
    rarity_stats,
    search_stream,
)

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
                assert h.sort_key() == min(
                    x.sort_key()
                    for x in rep.hits[h.function]
                    if x.graph6 == h.graph6
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
    def test_collapses_isomorphic_labelings(self):
        g = decode_graph6("FCZeO")
        base = RoleLabeling(3, (2, 6), 4)
        hits = [Hit("FCZeO", base, "NAND", "1110")]
        perm = [6, 5, 4, 3, 2, 1, 0]
        h = g.permuted(perm)
        hits.append(
            Hit(
                encode_graph6(h),
                RoleLabeling(perm[3], (perm[2], perm[6]), perm[4]),
                "NAND",
                "1110",
            )
        )
        assert len(dedupe_hits(hits)) == 1

    def test_input_order_ignored_by_default(self):
        hits = [
            Hit("FCZeO", RoleLabeling(3, (2, 6), 4), "NAND", "1110"),
            Hit("FCZeO", RoleLabeling(3, (6, 2), 4), "NAND", "1110"),
        ]
        assert len(dedupe_hits(hits)) == 1

    def test_order_independence(self):
        hits = [
            Hit("FCZeO", RoleLabeling(3, (2, 6), 4), "NAND", "1110"),
            Hit("FCZUO", RoleLabeling(2, (3, 6), 0), "NAND", "1110"),
        ]
        assert dedupe_hits(hits) == dedupe_hits(hits[::-1])


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
            hits.append(Hit(text, _roles_of(row, opt.arity), name, bits))
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

    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("one_graph_passes", [False, True])
    def test_mixed_order_block_matches_per_record_reference(
        self, monkeypatch, arity, one_graph_passes
    ):
        # One block holding orders 1-7 in a shuffled order, between blank
        # and undecodable lines, with sampled ordered inputs; with one
        # graph per pass too.
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
            monkeypatch.setattr(search, "PASS_CELLS", 1)
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
        got = [h for fn in sorted(rep.hits) for h in rep.hits[fn]]
        assert got == dedupe_hits(hits, ordered_inputs=True)


def _report(rep) -> dict:
    # The report minus timing and the options that must not change it.
    d = rep.to_json_dict()
    d.pop("elapsed_s")
    for key in ("jobs", "checkpoint", "checkpoint_every"):
        d["options"].pop(key)
    return d


class Interrupted(Exception):
    pass


def _interrupt_after_first_save(monkeypatch, stream, opts) -> dict:
    # Runs the census until its first checkpoint save and returns the file.
    real_save = search._Checkpoint.save

    def save_once_then_die(self, done=False):
        real_save(self, done)
        raise Interrupted

    monkeypatch.setattr(search._Checkpoint, "save", save_once_then_die)
    with pytest.raises(Interrupted):
        search_stream(str(stream), opts)
    monkeypatch.setattr(search._Checkpoint, "save", real_save)
    return json.loads(Path(opts.checkpoint).read_text())


class TestCheckpoint:
    def _opts(self, path):
        return SearchOptions(
            targets=("NAND",), checkpoint=str(path), checkpoint_every=1
        )

    def test_requires_path_source(self, tmp_path):
        ck = tmp_path / "c.json"
        with pytest.raises(ValueError, match="path source"):
            search_stream(["CN"], SearchOptions(targets=("NAND",), checkpoint=str(ck)))

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
        for version, extra in ((3, {}), (4, {"offset": 9})):
            fingerprint = dict(
                data["fingerprint"], source=str(stream), version=version
            )
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

        def no_scan(records, options):
            raise AssertionError("a block was scanned")

        monkeypatch.setattr(search, "_scan_chunk", no_scan)
        resumed = search_stream(source, opts)
        assert _report(resumed) == _report(first)

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

        real_key = search.config_canonical_key
        monkeypatch.setattr(
            search, "config_canonical_key", lambda *a: ("v2", real_key(*a))
        )
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
        # Format 5: no byte offset, source path or canonical keys.
        assert set(saved) == {
            "fingerprint", "lineno", "prefix_sha256", "counts", "hits", "done"
        }
        assert set(saved["fingerprint"]) == {"options", "version"}
        assert all(len(row) == 6 for row in saved["hits"])

        fresh = search_stream(str(stream), SearchOptions(targets=(), arity=1))
        for jobs in (1, 2):
            copy = tmp_path / f"c{jobs}.json"
            copy.write_text(killed)
            opts = SearchOptions(
                targets=(), arity=1, jobs=jobs, checkpoint=str(copy)
            )
            resumed = search_stream(str(stream), opts)
            assert resumed.hits_raw and _report(resumed) == _report(fresh)


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
