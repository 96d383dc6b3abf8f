"""Census-pipeline workloads: set-up, timed repetitions, traced runs, checks.

run.py starts this file once per workload in a fresh interpreter:

    python3 perfbench/workloads.py '<spec json>' <scratch dir>

The child sets up (imports ladget from the checkout's src/, loads its input
or writes its window, makes one untimed warm-up call), prints "ready", then
runs its mode and prints one JSON line with measurements and check results.
The spec (see make_spec) carries every size and expected value, so run.py
and the self-tests decide them; the child derives its inputs from the seed.

Modes:
  setup    set up and exit (run.py times several set-ups per run);
  measure  untraced repetitions until `seconds` of timed work have passed;
  trace    one untraced repetition, verify_ladget latencies (untraced) and
           one traced repetition, reduced to layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STREAM8 = ROOT / "tests" / "data" / "connected8.g6"

# Published facts the outputs are checked against (acceptance C01, C05).
STREAM8_RECORDS = 11117
TABLE_ROWS = 33
MINIMAL_HITS = {"AND": 3, "OR": 2}
VERIFY_SAMPLE_SEED = 8

CENSUS_OPTIONS = {
    "census8-minimal": {"targets": ["AND", "OR"], "minimal_mode": True},
    "census8-hits-ckpt": {"targets": [], "arity": 1},
    "census8-nofilter-j2": {"targets": [], "use_filter": False, "jobs": 2},
}

# Window kinds: "head" takes the first `records` records (None = all);
# "stride" every (total // records)-th record from a seed-chosen start.
# The window workloads use stride samples because cost and hit density per
# record drift along the stream: contiguous windows of 2000 records
# differed by 4-14% in cost (quartile spread over offsets), stride samples
# by about 2%.
SIZES = {
    "census8-minimal": {
        "window": "head", "records": None,
        "verify_graphs": 500, "verify_per_graph": 4,
    },
    "census8-hits-ckpt": {
        "window": "stride", "records": 2000, "checkpoint_saves": 5,
        "reverify": 200, "verify_graphs": 500, "verify_per_graph": 4,
    },
    "census8-nofilter-j2": {
        "window": "stride", "records": 2048,
        "reverify": 200, "verify_graphs": 500, "verify_per_graph": 4,
    },
    "verify-table": {"sample": 1500, "embed_all_k": [4], "embed_first_k": [5, 6]},
}

WORKLOADS = tuple(SIZES)

# (metric, unit) reported by a traced run, in output order.
PER_LAYER = (
    ("coloring.all_colorings.calls", "count"),
    ("coloring.all_colorings.self_s", "s"),
    ("coloring.all_colorings.rows", "count"),
    ("kernels.scan_configs.calls", "count"),
    ("kernels.scan_configs.self_s", "s"),
    ("kernels.scan_configs.configs", "count"),
    ("kernels.scan_configs.kept", "count"),
    ("kernels.scan_configs.ladgets", "count"),
    ("kernels.scan_configs.filter_pass_ratio", "ratio"),
    ("graphcore.decode_graph6.calls", "count"),
    ("graphcore.decode_graph6.self_s", "s"),
    ("graphcore.encode_graph6.calls", "count"),
    ("graphcore.encode_graph6.self_s", "s"),
    ("graphcore.config_canonical_key.calls", "count"),
    ("graphcore.config_canonical_key.self_s", "s"),
    ("search.dedupe_hits.self_s", "s"),
    ("search.dedupe_hits.hits_in", "count"),
    ("search.dedupe_hits.hits_out", "count"),
    ("search.search_stream.self_s", "s"),
    ("search.io.wchar_bytes", "B"),
    ("search.pool.worker_cpu_s", "s"),
    ("search.pool.parent_cpu_s", "s"),
    ("search.pool.worker_idle_s", "s"),
    ("search.pool.chunks", "count"),
    ("gadget.verify_ladget.calls", "count"),
    ("gadget.verify_ladget.self_s", "s"),
    ("gadget.verify_ladget.p50_ms", "ms"),
    ("gadget.verify_ladget.p99_ms", "ms"),
    ("gadget.compute_mapping.self_s", "s"),
    ("gadget.check_consistency.self_s", "s"),
    ("gadget.colorings_per_verify", "ratio"),
    ("filters.structural_filter.calls", "count"),
    ("filters.structural_filter.self_s", "s"),
    ("embed.verify_embedding.self_s", "s"),
    ("embed.package_color_profile.self_s", "s"),
    ("appendix.check_table.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)


def make_spec(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Everything a child needs, decided by the parent process."""
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "mode": mode,
        "sizes": json.loads(json.dumps(SIZES[workload])),
    }
    if workload in CENSUS_OPTIONS:
        spec["options"] = dict(CENSUS_OPTIONS[workload])
    if workload == "census8-minimal":
        spec["expect_hits"] = dict(MINIMAL_HITS)
    return spec


def load_ladget():
    """Import ladget from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ladget

    if Path(ladget.__file__).resolve().parent != SRC / "ladget":
        raise ImportError(f"ladget imported from {ladget.__file__}, not {SRC}")
    return ladget


def configs_per_graph(n: int, arity: int) -> int:
    """Role assignments per graph, counted independently of the program:
    anchor, output, then one input or an unordered input pair."""
    rest = n - 2
    return n * (n - 1) * (rest if arity == 1 else rest * (rest - 1) // 2)


def quantile_ms(latencies_s: list, q: int) -> float:
    """q-th percentile in milliseconds (inclusive method)."""
    return statistics.quantiles(latencies_s, n=100, method="inclusive")[q - 1] * 1e3


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def timed(fn):
    """Run fn once; return (result, wall_s, self_cpu_s, children_cpu_s)."""
    s0, c0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return (
        out,
        wall,
        _cpu(resource.RUSAGE_SELF) - s0,
        _cpu(resource.RUSAGE_CHILDREN) - c0,
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def read_wchar() -> int:
    """Bytes this process has written, from /proc/self/io (0 if absent)."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@contextmanager
def count_pool_submits(search_module):
    """Count chunks submitted to the census worker pool by rebinding the
    pool class at its call site in ladget.search."""
    counter = [0]
    base = getattr(search_module, "ProcessPoolExecutor", None)
    if base is None:
        yield counter
        return

    class CountingPool(base):
        def submit(self, *args, **kwargs):
            counter[0] += 1
            return super().submit(*args, **kwargs)

    search_module.ProcessPoolExecutor = CountingPool
    try:
        yield counter
    finally:
        search_module.ProcessPoolExecutor = base


# --------------------------------------------------------------- checks
# Each check is a (name, ok) pair; fail_ratio = failed / attempted.


def hit_config(hit: dict):
    from ladget.gadget import GadgetConfig
    from ladget.graphcore import RoleLabeling, decode_graph6

    r = hit["roles"]
    roles = RoleLabeling(r["anchor"], tuple(r["inputs"]), r["output"])
    return GadgetConfig(decode_graph6(hit["graph6"]), roles)


def function_label(report) -> str | None:
    """The census label a verified configuration would get."""
    fn = report.classification
    if fn is None or fn.degenerate:
        return None
    return fn.name if fn.name != "other" else f"tt_{fn.truth_table.bitstring()}"


def census_checks(summary: dict, n_records: int, n: int, arity: int,
                  expect_hits: dict | None) -> list:
    checks = [
        ("graphs_seen", summary["graphs_seen"] == n_records),
        ("bad_lines", summary["bad_lines"] == 0),
        (
            "configs_enumerated",
            summary["configs_enumerated"] == n_records * configs_per_graph(n, arity),
        ),
    ]
    if expect_hits is not None:
        got = {fn: len(hs) for fn, hs in summary["hits"].items() if hs}
        checks.append(("hits.per_function", got == expect_hits))
    return checks


def published_checks(hits: dict) -> list:
    """Every hit matches a distinct published table row of its function."""
    from ladget import appendix
    from ladget.graphcore import roles_isomorphic

    table = appendix.load_table()[0]
    checks = []
    for fn, fn_hits in sorted(hits.items()):
        rows = [e.config() for e in table if e.function == fn]
        used: set = set()
        for h in fn_hits:
            cfg = hit_config(h)
            match = next(
                (
                    i
                    for i, row in enumerate(rows)
                    if i not in used
                    and roles_isomorphic(cfg.graph, cfg.roles, row.graph, row.roles)
                ),
                None,
            )
            if match is not None:
                used.add(match)
            checks.append((f"published.{fn}.{h['graph6']}", match is not None))
    return checks


def reverify_checks(hits: list, minimal: bool) -> list:
    """Each deduplicated hit re-verifies as its reported function."""
    from ladget import gadget

    checks = []
    for h in hits:
        rep = gadget.verify_ladget(hit_config(h), minimal_mode=minimal)
        ok = (
            rep.is_ladget
            and (rep.structural.passed or not minimal)
            and rep.truth_table.bitstring() == h["truth_table"]
            and function_label(rep) == h["function"]
        )
        checks.append((f"reverify.{h['function']}.{h['graph6']}", ok))
    return checks


def verdict(report) -> list:
    """(structural pass, is ladget, truth-table code or None)."""
    tt = report.truth_table.code() if report.is_ladget else None
    return [bool(report.structural.passed), bool(report.is_ladget), tt]


def scan_agreement_checks(groups: list, verdicts: list, arity: int,
                          minimal: bool) -> list:
    """Each verify_ladget verdict equals the census kernel's verdict on the
    same configuration.  groups: (graph, config rows) in verdict order."""
    from ladget import _kernels
    from ladget.coloring import all_colorings

    checks = []
    k = 0
    for g, rows in groups:
        C = all_colorings(g, None, 3)
        adj, deg = g.adj_array(), g.deg_array()
        plain = _kernels.scan_configs(C, adj, deg, rows, arity, False, False)
        filt = _kernels.scan_configs(C, adj, deg, rows, arity, True, minimal)
        for j in range(len(rows)):
            want = [
                bool(filt[j] != -1),
                bool(plain[j] >= 0),
                int(plain[j]) if plain[j] >= 0 else None,
            ]
            checks.append((f"scan_agrees.{k}", list(verdicts[k]) == want))
            k += 1
    if k != len(verdicts):
        checks.append(("scan_agrees.count", False))
    return checks


def embed_checks(results: list) -> list:
    """Embedded truth tables preserved and package invariants held."""
    checks = []
    for label, ok, profile in results:
        checks.append((f"embed.{label}.truth_table", ok))
        invariants = [v for key, v in profile.items() if key != "colorings"]
        checks.append((f"embed.{label}.package", all(invariants)))
    return checks


# ------------------------------------------------------------ workloads


def _config_of(g, row, arity):
    from ladget.gadget import GadgetConfig
    from ladget.graphcore import RoleLabeling

    a0, th, i1, i2 = (int(x) for x in row)
    inputs = (i1,) if arity == 1 else (i1, i2)
    return GadgetConfig(g, RoleLabeling(a0, inputs, th))


def sample_configs(records: list, arity: int, n_graphs: int, per_graph: int,
                   rng) -> list:
    """Seeded sample: n_graphs records, per_graph configurations of each.
    Returns (graph, config rows) groups in record order.  Many graphs with
    few configurations each make the sample's latency quantiles stand for
    the stream, since cost varies more between graphs than within one."""
    from ladget.graphcore import decode_graph6
    from ladget.search import enumerate_configs

    picks = sorted(rng.choice(len(records), min(n_graphs, len(records)), replace=False))
    groups = []
    for i in picks:
        g = decode_graph6(records[int(i)])
        table = enumerate_configs(g.n, arity)
        take = np.sort(rng.choice(len(table), min(per_graph, len(table)), replace=False))
        groups.append((g, np.ascontiguousarray(table[take])))
    return groups


def timed_verifies(configs: list, minimal: bool):
    from ladget import gadget

    latencies, verdicts = [], []
    for cfg in configs:
        t0 = time.perf_counter()
        rep = gadget.verify_ladget(cfg, minimal_mode=minimal)
        latencies.append(time.perf_counter() - t0)
        verdicts.append(verdict(rep))
    return latencies, verdicts


def summarize_report(rep) -> dict:
    """The result fields of a census report (no timings, no options)."""
    d = rep.to_json_dict()
    keys = ("graphs_seen", "bad_lines", "configs_enumerated",
            "configs_after_filter", "per_order", "hits_raw", "hits")
    return {k: d[k] for k in keys}


def pick_window(total: int, sizes: dict, rng) -> tuple[list, dict]:
    kind, size = sizes["window"], sizes["records"]
    if kind == "head":
        size = total if size is None else size
        return list(range(size)), {"kind": kind, "start": 0, "records": size}
    if kind == "stride":
        stride = total // size
        start = int(rng.integers(0, total))
        idx = sorted((start + stride * i) % total for i in range(size))
        return idx, {"kind": kind, "start": start, "stride": stride,
                     "records": size}
    raise ValueError(f"unknown window kind {kind!r}")


class Census:
    """A search_stream run over (a window of) the order-8 stream."""

    def __init__(self, spec: dict, tmp: Path, rng):
        from ladget import search
        from ladget.search import SearchOptions

        self.search = search
        self.spec = spec
        sizes = spec["sizes"]
        opts = dict(spec["options"])
        opts["targets"] = tuple(opts["targets"])
        records = STREAM8.read_text(encoding="ascii").split()
        idx, self.inputs = pick_window(len(records), sizes, rng)
        self.stream = records
        self.records = [records[i] for i in idx]
        if len(self.records) == len(records):
            self.source = str(STREAM8)
        else:
            self.source = str(tmp / "window.g6")
            Path(self.source).write_text("\n".join(self.records) + "\n",
                                         encoding="ascii")
        self.ckpt = None
        saves = sizes.get("checkpoint_saves")
        if saves:
            self.ckpt = tmp / "census.ckpt"
            opts["checkpoint_every"] = max(1, len(self.records) // saves)
        self.options = SearchOptions(**opts)
        self.rng = rng
        self.groups = None
        warm = replace(self.options, jobs=1, checkpoint=None)
        search.search_stream(self.records[:8], warm)

    def run_once(self, jobs: int | None = None):
        opts = self.options if jobs is None else replace(self.options, jobs=jobs)
        if self.ckpt is not None:
            self.ckpt.unlink(missing_ok=True)
            opts = replace(opts, checkpoint=str(self.ckpt))
        return self.search.search_stream(self.source, opts)

    @property
    def jobs(self) -> int:
        return self.options.jobs

    def configs(self, rep) -> int:
        return rep.configs_enumerated

    summarize = staticmethod(summarize_report)

    def checks(self, rep, full: bool) -> list:
        """Output checks; full adds the checks that cost a census
        (resume) and the verify sample's agreement with the kernel."""
        opts, sizes = self.options, self.spec["sizes"]
        summary = summarize_report(rep)
        # Expected sizes come from the spec, not from the file that was read.
        expect_graphs = sizes["records"] or STREAM8_RECORDS
        checks = census_checks(summary, expect_graphs, 8, opts.arity,
                               self.spec.get("expect_hits"))
        hits = [h for hs in summary["hits"].values() for h in hs]
        if self.spec.get("expect_hits") is not None:
            checks += published_checks(summary["hits"])
        take = sizes.get("reverify")
        if take is not None and len(hits) > take:
            pick = sorted(self.rng.choice(len(hits), take, replace=False))
            hits = [hits[int(i)] for i in pick]
        checks += reverify_checks(hits, opts.minimal_mode)
        if self.ckpt is not None and full:
            # The final checkpoint must resume to the identical report.
            resumed = self.search.search_stream(
                self.source, replace(opts, checkpoint=str(self.ckpt)))
            checks.append(("checkpoint.resume_same_result",
                           summarize_report(resumed) == summary))
        if full:
            _, verdicts = self.verify_sample()
            checks += scan_agreement_checks(self.groups, verdicts,
                                            opts.arity, opts.minimal_mode)
        return checks

    def verify_sample(self):
        """verify_ladget over a fixed sample of the whole stream (not of the
        seed's window, so its latency quantiles move only with the
        program): (latencies, verdicts)."""
        if self.groups is None:
            sizes, arity = self.spec["sizes"], self.options.arity
            self.groups = sample_configs(
                self.stream, arity, sizes["verify_graphs"],
                sizes["verify_per_graph"], np.random.default_rng(VERIFY_SAMPLE_SEED))
            self.sample = [_config_of(g, row, arity) for g, rows in self.groups
                           for row in rows]
        return timed_verifies(self.sample, self.options.minimal_mode)

    def latencies(self, out):
        return self.verify_sample()[0]


class VerifyTable:
    """The single-configuration path: table check, verify sample, embeds."""

    jobs = 1

    def __init__(self, spec: dict, tmp: Path, rng):
        from ladget import appendix, embed, gadget
        from ladget.gadget import TARGET_CODES, TruthTable
        from ladget.graphcore import decode_graph6
        from ladget.search import enumerate_configs

        self.appendix, self.embed = appendix, embed
        sizes = spec["sizes"]
        self.entries = appendix.load_table()[0]
        graphs = {e.graph6: decode_graph6(e.graph6) for e in self.entries}
        # Seeded sample over every role configuration of the table's graphs.
        tables = [(g, enumerate_configs(g.n, 2)) for g in graphs.values()]
        offsets = np.cumsum([0] + [len(t) for _, t in tables])
        pick = np.sort(rng.choice(offsets[-1], sizes["sample"], replace=False))
        self.groups = []
        for gi, (g, table) in enumerate(tables):
            sel = pick[(pick >= offsets[gi]) & (pick < offsets[gi + 1])]
            if len(sel):
                self.groups.append((g, np.ascontiguousarray(table[sel - offsets[gi]])))
        self.sample = [_config_of(g, row, 2) for g, rows in self.groups
                       for row in rows]
        # Every row at each k in embed_all_k; the first row of each function
        # at each k in embed_first_k.  A fixed choice: colorings at k = 5, 6
        # dominate embedding time and their cost differs by row.
        plan = [(e, k) for e in self.entries for k in sizes["embed_all_k"]]
        for fn in sorted({e.function for e in self.entries}):
            first = next(e for e in self.entries if e.function == fn)
            plan += [(first, k) for k in sizes["embed_first_k"]]
        self.embeds = [
            (f"{e.function}.{e.graph6}.k{k}", e.config(), k,
             TruthTable.from_code(2, TARGET_CODES[e.function]))
            for e, k in plan
        ]
        self.inputs = {
            "table_rows": len(self.entries),
            "sample": len(self.sample),
            "embeds": len(self.embeds),
            "embed_first_k": [label for label, _, k, _ in self.embeds
                              if k in sizes["embed_first_k"]],
        }
        gadget.verify_ladget(self.sample[0])
        _, cfg, _, tt = self.embeds[0]
        embed.verify_embedding(embed.embed_to_k(cfg, 4), tt)

    def run_once(self, jobs: int | None = None):
        rows = self.appendix.check_table(self.entries)
        latencies, verdicts = timed_verifies(self.sample, False)
        embeds = []
        for label, cfg, k, tt in self.embeds:
            em = self.embed.embed_to_k(cfg, k)
            ok = self.embed.verify_embedding(em, tt).ok
            embeds.append([label, ok, self.embed.package_color_profile(em)])
        return {
            "rows": [[r.entry.function, r.entry.graph6, r.ok] for r in rows],
            "verdicts": verdicts,
            "embeds": embeds,
            "latencies": latencies,
        }

    def configs(self, out) -> int:
        return len(out["rows"]) + len(out["verdicts"]) + len(out["embeds"])

    @staticmethod
    def summarize(out) -> dict:
        return {k: v for k, v in out.items() if k != "latencies"}

    def checks(self, out, full: bool) -> list:
        checks = [("table.rows", len(out["rows"]) == TABLE_ROWS)]
        checks += [(f"table.{fn}.{g6}", ok) for fn, g6, ok in out["rows"]]
        checks += scan_agreement_checks(self.groups, out["verdicts"], 2, False)
        checks += embed_checks(out["embeds"])
        return checks

    def latencies(self, out):
        return out["latencies"]


def make_workload(spec: dict, tmp: Path):
    rng = np.random.default_rng([spec["seed"], WORKLOADS.index(spec["workload"])])
    cls = VerifyTable if spec["workload"] == "verify-table" else Census
    return cls(spec, tmp, rng)


# ---------------------------------------------------------------- modes


def measure(wl, seconds: float) -> dict:
    """Untraced repetitions until `seconds` of timed work (at least one)."""
    reps, checks = [], []
    first = rss = None
    while True:
        out, wall, cpu_self, cpu_children = timed(wl.run_once)
        reps.append({"wall_s": wall, "cpu_s": cpu_self + cpu_children,
                     "configs": wl.configs(out)})
        summary = wl.summarize(out)
        if first is None:
            # Over set-up and one repetition, so the repetition count
            # (which depends on speed) does not move it.
            rss = peak_rss_mb()
            first = summary
        else:
            checks.append((f"repeat.{len(reps)}.same_result", summary == first))
        if sum(r["wall_s"] for r in reps) >= seconds:
            break
    checks += wl.checks(out, full=True)
    return {"reps": reps, "peak_rss_mb": rss, "checks": checks}


def trace(wl) -> dict:
    """Untraced run (pool counters on), then a traced jobs=1 run of the same
    input.  Spans recorded in forked workers are lost, so the layer split
    always comes from jobs=1; the -j2 pool figures come from rusage."""
    from tracer import Tracer
    from ladget import search

    with count_pool_submits(search) as chunks:
        out_u, wall_u, cpu_self, cpu_children = timed(wl.run_once)
    checks = wl.checks(out_u, full=False)
    latencies = wl.latencies(out_u)
    base_wall = wall_u
    if wl.jobs > 1:
        out_1, base_wall, _, _ = timed(lambda: wl.run_once(jobs=1))
        checks.append(("trace.jobs1_same_result",
                       wl.summarize(out_1) == wl.summarize(out_u)))
    tracer = Tracer()
    w0 = read_wchar()
    with tracer:
        out_t, wall_t, _, _ = timed(lambda: wl.run_once(jobs=1))
    wchar = read_wchar() - w0
    checks.append(("trace.same_result", wl.summarize(out_t) == wl.summarize(out_u)))
    pool = {"worker_cpu_s": 0.0, "parent_cpu_s": 0.0, "worker_idle_s": 0.0,
            "chunks": 0}
    if wl.jobs > 1:
        pool = {
            "worker_cpu_s": cpu_children,
            "parent_cpu_s": cpu_self,
            "worker_idle_s": wl.jobs * wall_u - cpu_children,
            "chunks": chunks[0],
        }
    metrics = layer_metrics(tracer.layer_stats(), wall_t, base_wall, wchar, pool)
    metrics["gadget.verify_ladget.p50_ms"] = quantile_ms(latencies, 50)
    metrics["gadget.verify_ladget.p99_ms"] = quantile_ms(latencies, 99)
    return {"metrics": metrics, "checks": checks, "verify_samples": len(latencies)}


def layer_metrics(stats: dict, wall_t: float, base_wall: float, wchar: int,
                  pool: dict) -> dict:
    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    out = {}
    for name, _ in PER_LAYER:
        # Metric names start with a letter, so "_kernels" reads "kernels".
        layer, _, key = ("_" + name if name.startswith("kernels.") else name).rpartition(".")
        out[name] = get(layer, key)
    scan = "_kernels.scan_configs"
    configs = get(scan, "configs")
    out["kernels.scan_configs.filter_pass_ratio"] = (
        get(scan, "kept") / configs if configs else 0.0)
    verifies = get("gadget.verify_ladget", "calls")
    out["gadget.colorings_per_verify"] = (
        get("coloring.all_colorings", "calls_under_verify") / verifies
        if verifies else 0.0)
    out["search.io.wchar_bytes"] = wchar
    for key, val in pool.items():
        out[f"search.pool.{key}"] = val
    out["trace.coverage"] = sum(s["self_s"] for s in stats.values()) / wall_t
    out["trace.overhead_s"] = wall_t - base_wall
    return out


def environment(ladget) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "backend": ladget.BACKEND,
    }


def main(argv: list[str]) -> int:
    """argv[1]: the spec; argv[2]: a scratch directory the parent owns."""
    spec = json.loads(argv[1])
    ladget = load_ladget()
    wl = make_workload(spec, Path(argv[2]))
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0
    if spec["mode"] == "measure":
        result = measure(wl, spec["seconds"])
    else:
        result = trace(wl)
    result["inputs"] = wl.inputs
    result["env"] = environment(ladget)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
