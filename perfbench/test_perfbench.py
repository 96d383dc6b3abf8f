"""Self-tests for the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Every named metric is emitted with its unit, every check can fail, and a
wrong expected hit count turns into a non-zero fail_ratio and exit code.
"""

import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import run
import workloads

BENCH = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "census8-minimal": {
        "window": "head", "records": 30,
        "verify_graphs": 3, "verify_per_graph": 4,
    },
    "census8-hits-ckpt": {
        "window": "stride", "records": 30, "checkpoint_saves": 3,
        "reverify": 4, "verify_graphs": 3, "verify_per_graph": 4,
    },
    "census8-nofilter-j2": {
        "window": "stride", "records": 20,
        "reverify": 4, "verify_graphs": 3, "verify_per_graph": 4,
    },
    "verify-table": {"sample": 40, "embed_all_k": [4], "embed_first_k": []},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)
    # The first 30 records of the order-8 stream hold no AND or OR gadget.
    monkeypatch.setattr(workloads, "MINIMAL_HITS", {})


@pytest.fixture(scope="module")
def lad():
    return workloads.load_ladget()


def run_bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(
        workloads.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_unit(tiny, capsys, workload, trace):
    code, lines, res = run_bench(capsys, workload, trace)
    assert code == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"]
            for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-2]}
    for name, unit in want.items():
        assert printed[name] == unit
    assert printed["fail_ratio"] == "failed)"
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_mutated_hit_count_fails(tiny, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "MINIMAL_HITS", {"AND": 1})
    code, lines, res = run_bench(capsys, "census8-minimal", 0)
    assert code == 1
    assert not res["correct"] and res["failed"] >= 1
    ratio = next(line for line in lines if line.split()[0] == "fail_ratio")
    assert float(ratio.split()[1]) > 0


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ------------------------------------------------ each check can fail


def failed(checks):
    return {name for name, ok in checks if not ok}


def test_census_checks_fail_on_wrong_counts():
    good = {"graphs_seen": 5, "bad_lines": 0,
            "configs_enumerated": 5 * 840, "hits": {"AND": [{}]}}
    expect = {"AND": 1}
    assert failed(workloads.census_checks(good, 5, 8, 2, expect)) == set()
    cases = {
        "graphs_seen": dict(good, graphs_seen=4),
        "bad_lines": dict(good, bad_lines=1),
        "configs_enumerated": dict(good, configs_enumerated=5 * 840 - 1),
        "hits.per_function": dict(good, hits={"AND": [{}], "OR": [{}]}),
    }
    for name, summary in cases.items():
        assert failed(workloads.census_checks(summary, 5, 8, 2, expect)) == {name}
    assert workloads.configs_per_graph(8, 1) == 336
    assert workloads.configs_per_graph(8, 2) == 840


def _row_hit(entry, **roles):
    r = {"anchor": entry.anchor, "inputs": list(entry.inputs),
         "output": entry.output}
    r.update(roles)
    return {"graph6": entry.graph6, "roles": r, "function": entry.function,
            "truth_table": {"AND": "0001", "OR": "0111"}[entry.function]}


def test_published_and_reverify_checks_fail_on_wrong_hits(lad):
    from ladget import appendix

    row = next(e for e in appendix.load_table()[0] if e.function == "AND")
    hit = _row_hit(row)
    assert failed(workloads.published_checks({"AND": [hit]})) == set()
    assert failed(workloads.reverify_checks([hit], True)) == set()
    # Same graph, roles moved: not a published configuration.
    moved = _row_hit(row, anchor=row.output, output=row.anchor)
    assert failed(workloads.published_checks({"AND": [moved]}))
    # Two hits cannot claim the same published row.
    assert failed(workloads.published_checks({"AND": [hit, hit]}))
    for bad in (dict(hit, truth_table="0111"), dict(hit, function="OR"), moved):
        assert failed(workloads.reverify_checks([bad], True))


def test_scan_agreement_and_embed_checks_fail_on_wrong_verdicts(lad):
    import numpy as np
    from ladget.gadget import verify_ladget

    g = lad.builtin("AND8").graph
    rows = np.ascontiguousarray(lad.enumerate_configs(8, 2)[:6])
    verdicts = [workloads.verdict(verify_ladget(workloads._config_of(g, r, 2)))
                for r in rows]
    groups = [(g, rows)]
    assert failed(workloads.scan_agreement_checks(groups, verdicts, 2, False)) == set()
    for field in range(3):
        bad = [list(v) for v in verdicts]
        bad[2][field] = not bad[2][field] if field < 2 else 99
        assert failed(workloads.scan_agreement_checks(groups, bad, 2, False)) == {
            "scan_agrees.2"}
    assert "scan_agrees.count" in failed(
        workloads.scan_agreement_checks(groups, verdicts + [verdicts[0]], 2, False))
    profile = {"colorings": 4, "package_distinct_ok": True}
    assert failed(workloads.embed_checks([["x", True, profile]])) == set()
    assert failed(workloads.embed_checks([["x", False, profile]])) == {
        "embed.x.truth_table"}
    assert failed(workloads.embed_checks(
        [["x", True, dict(profile, package_distinct_ok=False)]])) == {"embed.x.package"}


class Drifting:
    """A workload whose result changes on every run."""

    jobs = 1

    def __init__(self):
        self.n = 0

    def run_once(self, jobs=None):
        time.sleep(0.01)
        self.n += 1
        return self.n

    def configs(self, out):
        return 1

    def summarize(self, out):
        return out

    def latencies(self, out):
        return [0.001, 0.002]

    def checks(self, out, full):
        return []


def test_repeat_and_trace_checks_fail_when_results_differ(lad):
    res = workloads.measure(Drifting(), seconds=0.015)
    assert failed(res["checks"]) == {"repeat.2.same_result"}
    res = workloads.trace(Drifting())
    assert failed(res["checks"]) == {"trace.same_result"}


def test_resume_check_fails_when_resume_differs(tiny, lad, tmp_path):
    from ladget.search import SearchOptions, search_stream

    spec = workloads.make_spec("census8-hits-ckpt", 3, 0, "measure")
    wl = workloads.make_workload(spec, tmp_path)
    rep = wl.run_once()
    assert failed(wl.checks(rep, full=True)) == set()
    other = search_stream(wl.records[:3], SearchOptions(targets=(), arity=1))
    wl.search = SimpleNamespace(search_stream=lambda source, opts: other)
    assert failed(wl.checks(rep, full=True)) == {
        "checkpoint.resume_same_result"}
