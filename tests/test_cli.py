import io
import json
import shutil
import subprocess
import sys

import pytest

from ladget import appendix
from ladget.graphcore import encode_graph6, generate_connected
from ladget.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_known_gate_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "FCZeO", "--anchor", "3", "--out", "4", "--in", "2,6",
            "--target", "NAND", "--minimal",
        )
        assert code == 0
        assert "verdict: ladget" in out
        assert "target NAND: match" in out

    def test_one_based_roles(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "FCZeO", "--anchor", "4", "--out", "5", "--in", "3,7",
            "--one-based", "--target", "NAND",
        )
        assert code == 0

    def test_wrong_target_fails_semantically(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "FCZeO", "--anchor", "3", "--out", "4", "--in", "2,6",
            "--target", "AND",
        )
        assert code == 1
        assert "NO MATCH" in out

    def test_non_ladget(self, capsys):
        # Path with the input adjacent to the anchor: universality fails.
        code, out, _ = run(
            capsys, "verify", "Bw", "--anchor", "0", "--out", "2", "--in", "1"
        )
        assert code == 1
        assert "universality: FAIL" in out

    def test_bad_graph6_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "!!!", "--anchor", "0", "--out", "1", "--in", "2"
        )
        assert code == 2
        assert "error:" in err

    def test_out_of_range_role_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "FCZeO", "--anchor", "0", "--out", "99", "--in", "2,6"
        )
        assert code == 2

    def test_missing_roles_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "FCZeO")
        assert code == 2
        assert "required" in err

    def test_unparsable_inputs(self, capsys):
        code, _, err = run(
            capsys, "verify", "FCZeO", "--anchor", "3", "--out", "4", "--in", "a,b"
        )
        assert code == 2

    def test_too_few_colors_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "FCZeO", "--anchor", "3", "--out", "4", "--in", "2,6",
            "--k", "2",
        )
        assert code == 2
        assert err.startswith("error:") and "k must be at least 3" in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "FCZeO", "--anchor", "3", "--out", "4", "--in", "2,6",
            "--json",
        )
        assert code == 0
        d = json.loads(out)
        assert d["is_ladget"] is True
        assert d["classification"]["name"] == "NAND"
        assert d["roles"] == {"anchor": 3, "inputs": [2, 6], "output": 4}


class TestSearch:
    def test_generated_order_four(self, capsys):
        code, out, _ = run(
            capsys, "search", "--gen", "4", "--target", "NOT", "--arity", "1"
        )
        assert code == 0
        assert "NOT: 2 raw, 1 distinct" in out
        assert "CN" in out

    def test_gen_and_stream_conflict(self, capsys):
        code, _, err = run(capsys, "search", "somefile", "--gen", "4")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "search", "/nonexistent/stream.g6")
        assert code == 2

    def test_stdin_stream(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("FCZeO\nFCZUO\n"))
        code, out, _ = run(capsys, "search", "--target", "NAND")
        assert code == 0
        assert "NAND: 3 raw, 2 distinct" in out

    def test_strict_bad_stream_is_a_runtime_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_text("CN\n!!!\n")
        code, _, err = run(capsys, "search", str(bad), "--strict")
        assert code == 1
        assert "line 2" in err

    def test_lenient_bad_stream_passes(self, capsys, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_text("CN\n!!!\n")
        code, out, _ = run(capsys, "search", str(bad))
        assert code == 0
        assert "bad lines 1" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--gen", "4", "--target", "NOT", "--arity", "1", "--json",
        )
        assert code == 0
        d = json.loads(out)
        assert d["graphs_seen"] == 6
        assert d["hits"]["NOT"][0]["graph6"] == "CN"
        assert d["options"]["arity"] == 1

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LADGET_SEED", "5")
        code, out, _ = run(
            capsys,
            "search", "--gen", "6", "--target", "NAND", "--sample", "0.25",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["options"]["seed"] == 5

    def test_all_targets(self, capsys):
        code, out, _ = run(
            capsys, "search", "--gen", "4", "--target", "all", "--arity", "1"
        )
        assert code == 0
        assert "NOT:" in out

    def test_bad_sample_rate(self, capsys):
        code, _, err = run(
            capsys, "search", "--gen", "4", "--sample", "2.0"
        )
        assert code == 2

    def test_bad_seed_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LADGET_SEED", "abc")
        code, _, err = run(capsys, "search", "--gen", "4")
        assert code == 2
        assert err.startswith("error:") and "LADGET_SEED" in err

    def test_checkpoint_needs_a_file_source(self, capsys, tmp_path):
        ck = tmp_path / "c.json"
        code, _, err = run(capsys, "search", "--gen", "4", "--checkpoint", str(ck))
        assert code == 2
        assert err.startswith("error:") and "path source" in err

    def test_unreadable_stream_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "search", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(tmp_path) in err

    def test_checkpoint_in_missing_directory_is_usage_error(
        self, capsys, tmp_path
    ):
        stream, ck = tmp_path / "s.g6", tmp_path / "missing" / "c.json"
        stream.write_text("CN\n")
        code, out, err = run(capsys, "search", str(stream), "--checkpoint", str(ck))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(ck) in err

    def test_minimal_needs_the_filter(self, capsys):
        code, out, err = run(
            capsys, "search", "--gen", "4", "--minimal", "--no-filter"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "structural filter" in err

    def test_moved_checkpoint_resumes(self, capsys, tmp_path):
        stream, ck, moved = (tmp_path / f for f in ("s.g6", "c.json", "m.json"))
        stream.write_text("FCZeO\nFCZUO\n")
        code, first, _ = run(capsys, "search", str(stream), "--checkpoint", str(ck))
        assert code == 0
        ck.rename(moved)
        code, again, _ = run(
            capsys, "search", str(stream), "--checkpoint", str(moved)
        )
        assert code == 0
        # The same report, all but the elapsed line.
        assert again.splitlines()[:-1] == first.splitlines()[:-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--target", "NAND", "--arity", "1"],
            ["--target", "NOT", "--arity", "2"],
            ["--arity", "1"],  # the default target is NAND
        ],
        ids=["NAND-1", "NOT-2", "default-1"],
    )
    def test_target_of_another_arity_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "search", "--gen", "5", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "never hit" in err

    def test_unterminated_line_that_grew_is_usage_error(self, capsys, tmp_path):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        records = [encode_graph6(g) for g in generate_connected(6)[:30]]
        argv = ["search", str(stream), "--target", "all", "--arity", "1",
                "--sample", "0.5", "--seed", "3", "--checkpoint", str(ck)]
        stream.write_text("\n".join(records[:10]))
        assert run(capsys, *argv)[0] == 0
        stream.write_text("\n".join(records) + "\n")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "changed" in err

    def test_checkpoint_of_another_run_is_usage_error(self, capsys, tmp_path):
        stream, ck = tmp_path / "s.g6", tmp_path / "c.json"
        stream.write_text("CN\n")
        assert run(capsys, "search", str(stream), "--checkpoint", str(ck))[0] == 0
        code, _, err = run(
            capsys, "search", str(stream), "--checkpoint", str(ck), "--target", "OR"
        )
        assert code == 2
        assert err.startswith("error:") and "different run" in err


class TestMap:
    def test_fixture_mapping(self, capsys):
        code, out, _ = run(capsys, "map", "--fixture", "ROT")
        assert code == 0
        assert out.splitlines() == [
            "(0) -> {1, 2}",
            "(1) -> {2}",
            "(2) -> {1}",
        ]

    def test_explicit_roles(self, capsys):
        code, out, _ = run(
            capsys, "map", "Bw", "--anchor", "2", "--out", "1", "--in", "0"
        )
        assert code == 0
        assert "(0) ->" in out

    def test_roles_required_without_fixture(self, capsys):
        code, _, err = run(capsys, "map")
        assert code == 2

    def test_fixture_too_few_colors_is_usage_error(self, capsys):
        code, _, err = run(capsys, "map", "--fixture", "NOT", "--k", "2")
        assert code == 2
        assert err.startswith("error:") and "k must be at least 3" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "map", "--fixture", "NOT", "--json")
        d = json.loads(out)
        assert d["mapping"] == {"0": [1, 2], "1": [0], "2": [0]}
        assert d["k"] == 3


class TestEmbed:
    def test_fixture_embed(self, capsys):
        code, out, _ = run(capsys, "embed", "--fixture", "NOT", "--k", "4")
        assert code == 0
        assert "function preserved: yes" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "embed", "--fixture", "NAND7", "--k", "4", "--json"
        )
        d = json.loads(out)
        assert d["preserved"] is True
        assert d["package"] == [7]
        assert d["k"] == 4
        assert d["package_profile"]["package_avoids_zero"] is True

    def test_small_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "embed", "--fixture", "NOT", "--k", "2")
        assert code == 2

    def test_non_ladget_base(self, capsys):
        # A path whose input touches the anchor is not a ladget; embedding
        # it is a semantic failure, not a usage error.
        code, _, err = run(
            capsys,
            "embed", "Bw", "--anchor", "0", "--out", "2", "--in", "1",
            "--k", "4",
        )
        assert code == 1
        assert "not a ladget" in err


class TestAppendixCheck:
    def test_default_table_passes(self, capsys):
        code, out, _ = run(capsys, "appendix-check")
        assert code == 0
        assert "33/33 rows verified" in out

    def test_function_filter(self, capsys):
        code, out, _ = run(capsys, "appendix-check", "--function", "NAND")
        assert code == 0
        assert "2/2 rows verified" in out

    def test_unknown_function_filter(self, capsys):
        code, _, err = run(capsys, "appendix-check", "--function", "XNAND")
        assert code == 2

    def test_one_based_reading_fails(self, capsys):
        code, out, _ = run(capsys, "appendix-check", "--one-based")
        assert code == 1

    def test_tampered_table(self, capsys, tmp_path):
        import importlib.resources as res

        table = tmp_path / "tampered.tsv"
        lines = []
        default = appendix.DEFAULT_TABLE

        text = (
            res.files("ladget").joinpath("data", default).read_text()
        )
        for line in text.splitlines():
            if line.startswith("NAND\t") and "FCZeO" in line:
                parts = line.split("\t")
                parts[2] = "5"  # wrong anchor
                line = "\t".join(parts)
            lines.append(line)
        table.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "appendix-check", "--table", str(table))
        assert code == 1
        assert "FAIL" in out

    def test_missing_table_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.tsv"
        code, _, err = run(capsys, "appendix-check", "--table", str(missing))
        assert code == 2
        assert err.startswith("error:") and "missing.tsv" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("NAND\tFCZeO\t3\t4\t2", "expected 6 tab-separated fields"),
            ("NAND\tFCZeO\t3\tfour\t2\t6", "vertex ids must be integers"),
        ],
        ids=["too-few-fields", "non-integer-id"],
    )
    def test_malformed_table_is_usage_error(self, capsys, tmp_path, line, message):
        table = tmp_path / "bad.tsv"
        table.write_text("# index-base: 0\n" + line + "\n")
        code, _, err = run(capsys, "appendix-check", "--table", str(table))
        assert code == 2
        assert err.startswith("error:") and f"line 2: {message}" in err

    def test_header_index_base_is_used(self, capsys, tmp_path):
        # The bundled table shifted to 1-based ids, declared in its header.
        lines = ["# index-base: 1"]
        for e in appendix.load_table()[0]:
            ids = [str(v + 1) for v in (e.anchor, e.output, *e.inputs)]
            lines.append("\t".join([e.function, e.graph6, *ids]))
        table = tmp_path / "one_based.tsv"
        table.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "appendix-check", "--table", str(table), "--json")
        d = json.loads(out)
        assert code == 0 and d["passed"] == d["total"] == 33
        assert d["index_base"] == 1

    @pytest.mark.parametrize("value", ["2", "one"])
    def test_bad_header_index_base_is_usage_error(self, capsys, tmp_path, value):
        table = tmp_path / "bad_base.tsv"
        table.write_text(f"# ids\n# index-base: {value}\nNAND\tFCZeO\t3\t4\t2\t6\n")
        code, _, err = run(capsys, "appendix-check", "--table", str(table))
        assert code == 2
        assert err.startswith("error:") and "line 2: index-base must be 0 or 1" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "appendix-check", "--json")
        d = json.loads(out)
        assert d["passed"] == 33 and d["total"] == 33
        assert d["index_base"] == 0


class TestDiff:
    def test_edge_diff(self, capsys):
        code, out, _ = run(capsys, "diff", "FCZeO", "FCZUO")
        assert code == 0
        assert "-(2, 5)" in out and "+(3, 5)" in out
        assert "8 shared edges" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "diff", "C~", "Ch", "--json")
        d = json.loads(out)
        assert d["common"] == 3
        assert d["only_a"] == [[0, 2], [0, 3], [1, 3]]

    def test_bad_operand(self, capsys):
        code, _, err = run(capsys, "diff", "C~", "!!!")
        assert code == 2


class TestHarness:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_script_installed(self):
        exe = shutil.which("ladget")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ladget 0.1.0"
