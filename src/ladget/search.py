"""Census machinery over graph6 streams.

For each graph the proper 3-colorings are enumerated once, then every role
assignment (configuration) is scanned against them by the census kernel:
filter verdict, universality, consistency, truth table.  Graphs up to 7
vertices can come from the built-in generator; anything larger arrives as
an external one-record-per-line graph6 stream.

Hits are collected in the input labeling, then normalized: sorted, grouped
by role-respecting isomorphism, and reduced to a least representative, so
reports do not depend on worker scheduling.  Rarity statistics report both
the raw and the deduplicated numerator since either reading of "one hit in
N" is defensible.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from . import _kernels
from .coloring import all_colorings
from .errors import InvalidGraph6
from .gadget import TARGET_CODES, TruthTable, classify
from .graphcore import Graph, RoleLabeling, config_canonical_key, decode_graph6

CHUNK_RECORDS = 512


@lru_cache(maxsize=128)
def _config_table(n: int, arity: int, ordered: bool) -> np.ndarray:
    rows = []
    for a0 in range(n):
        for th in range(n):
            if th == a0:
                continue
            rest = [v for v in range(n) if v != a0 and v != th]
            if arity == 1:
                rows.extend((a0, th, i1, -1) for i1 in rest)
            elif ordered:
                rows.extend(
                    (a0, th, i1, i2)
                    for i1, i2 in itertools.permutations(rest, 2)
                )
            else:
                rows.extend(
                    (a0, th, i1, i2)
                    for i1, i2 in itertools.combinations(rest, 2)
                )
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    arr.setflags(write=False)
    return arr


def enumerate_configs(
    n: int, arity: int = 2, ordered_inputs: bool = False
) -> np.ndarray:
    """All (anchor, output, input...) role assignments for an n-vertex graph,
    in lexicographic order.  Column layout: anchor, output, i1, i2 (i2 is -1
    at arity 1).  Inputs are an unordered pair (i1 < i2) unless ordered."""
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    return _config_table(n, arity, bool(ordered_inputs))


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for a census run; defaults mirror the common case."""

    targets: tuple[str, ...] = ("NAND",)
    arity: int = 2
    ordered_inputs: bool = False
    use_filter: bool = True
    minimal_mode: bool = False
    sample_rate: float | None = None
    seed: int | None = None
    jobs: int = 1
    strict: bool = False
    checkpoint: str | None = None
    checkpoint_every: int = 2000

    def __post_init__(self):
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity}")
        if self.sample_rate is not None and not 0 < self.sample_rate <= 1:
            raise ValueError("sample_rate must be in (0, 1]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        bad = [t for t in self.targets if t not in TARGET_CODES]
        if bad:
            raise ValueError(
                f"unknown target(s) {bad}; known: {sorted(TARGET_CODES)} "
                f"(empty targets = every non-degenerate function)"
            )


@dataclass(frozen=True)
class Hit:
    """One verified configuration, in the labeling of the input record."""

    graph6: str
    roles: RoleLabeling
    function: str
    truth_table: str

    @property
    def n(self) -> int:
        return ord(self.graph6[0]) - 63

    def sort_key(self):
        return (
            self.graph6,
            self.roles.anchor,
            self.roles.output,
            self.roles.inputs,
        )

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "roles": {
                "anchor": self.roles.anchor,
                "inputs": list(self.roles.inputs),
                "output": self.roles.output,
            },
            "function": self.function,
            "truth_table": self.truth_table,
        }


@lru_cache(maxsize=32)
def _allowed_codes(targets: tuple[str, ...], arity: int) -> dict:
    # Map truth-table code -> function label for codes worth reporting.
    # Degenerate tables are never reported: a configuration only implements
    # a function that depends on every input.
    out = {}
    for code in range(1 << (1 << arity)):
        fn = classify(TruthTable.from_code(arity, code))
        if fn.degenerate:
            continue
        label = (
            fn.name if fn.name != "other" else f"tt_{fn.truth_table.bitstring()}"
        )
        if not targets or fn.name in targets:
            out[code] = label
    return out


def _scan_graph(g: Graph, g6: str, options: SearchOptions, lineno: int):
    cfgs = enumerate_configs(g.n, options.arity, options.ordered_inputs)
    if options.sample_rate is not None and options.sample_rate < 1.0:
        rng = np.random.default_rng((options.seed or 0, lineno))
        cfgs = cfgs[rng.random(len(cfgs)) < options.sample_rate]
    if len(cfgs) == 0:
        return 0, 0, []
    C = all_colorings(g, None, 3)
    res = _kernels.scan_configs(
        C,
        g.adj_array(),
        g.deg_array(),
        cfgs,
        options.arity,
        options.use_filter,
        options.minimal_mode,
    )
    after = int((res != -1).sum())
    allowed = _allowed_codes(options.targets, options.arity)
    hits = []
    for j in np.nonzero(res >= 0)[0]:
        label = allowed.get(int(res[j]))
        if label is None:
            continue
        a0, th, i1, i2 = (int(x) for x in cfgs[j])
        inputs = (i1,) if options.arity == 1 else (i1, i2)
        hits.append(
            (
                g6,
                a0,
                th,
                inputs,
                label,
                TruthTable.from_code(options.arity, int(res[j])).bitstring(),
            )
        )
    return len(cfgs), after, hits


@dataclass
class _Tally:
    graphs_seen: int = 0
    bad: list = field(default_factory=list)
    per_order: dict = field(default_factory=dict)
    raw_hits: list = field(default_factory=list)

    def order_slot(self, n: int) -> dict:
        return self.per_order.setdefault(
            n, {"graphs": 0, "configs_enumerated": 0, "configs_after_filter": 0}
        )

    def merge(self, other: "_Tally") -> None:
        self.graphs_seen += other.graphs_seen
        self.bad.extend(other.bad)
        for n, slot in other.per_order.items():
            mine = self.order_slot(n)
            for key, val in slot.items():
                mine[key] += val
        self.raw_hits.extend(other.raw_hits)


def _scan_chunk(records: list, options: SearchOptions) -> _Tally:
    tally = _Tally()
    for lineno, line in records:
        text = line.strip()
        if not text:
            continue
        try:
            g = decode_graph6(text)
        except InvalidGraph6 as exc:
            tally.bad.append((lineno, str(exc)))
            continue
        tally.graphs_seen += 1
        # A record that decodes is the only graph6 of its graph, so the
        # stripped text doubles as the hits' graph6.
        enum, after, hits = _scan_graph(g, text, options, lineno)
        slot = tally.order_slot(g.n)
        slot["graphs"] += 1
        slot["configs_enumerated"] += enum
        slot["configs_after_filter"] += after
        tally.raw_hits.extend(hits)
    return tally


def _hit_from_raw(raw) -> Hit:
    g6, a0, th, inputs, label, bits = raw
    return Hit(g6, RoleLabeling(a0, tuple(inputs), th), label, bits)


def dedupe_hits(hits: list[Hit], ordered_inputs: bool = False) -> list[Hit]:
    """One representative per role-respecting isomorphism class, the
    lexicographically least (graph6, roles) member.  Output order is
    normalized, independent of input order."""
    chosen: dict = {}
    for hit in sorted(hits, key=lambda h: (h.function, h.sort_key())):
        g = decode_graph6(hit.graph6)
        key = (
            hit.function,
            config_canonical_key(g, hit.roles, ordered_inputs),
        )
        chosen.setdefault(key, hit)
    return sorted(chosen.values(), key=lambda h: (h.function, h.sort_key()))


@dataclass
class SearchReport:
    options: SearchOptions
    graphs_seen: int
    bad_lines: int
    per_order: dict
    hits_raw: dict
    hits: dict
    elapsed_s: float
    hits_raw_per_order: dict = field(default_factory=dict)
    backend: str = _kernels.BACKEND

    @property
    def configs_enumerated(self) -> int:
        return sum(s["configs_enumerated"] for s in self.per_order.values())

    @property
    def configs_after_filter(self) -> int:
        return sum(s["configs_after_filter"] for s in self.per_order.values())

    @property
    def filter_pass_ratio(self) -> float | None:
        if self.configs_enumerated == 0:
            return None
        return self.configs_after_filter / self.configs_enumerated

    def all_hits(self) -> list[Hit]:
        return [h for hs in self.hits.values() for h in hs]

    def rarity_rows(self) -> list[dict]:
        return rarity_stats(self)

    def to_json_dict(self) -> dict:
        ratio = self.filter_pass_ratio
        return {
            "options": asdict(self.options),
            "backend": self.backend,
            "graphs_seen": self.graphs_seen,
            "bad_lines": self.bad_lines,
            "configs_enumerated": self.configs_enumerated,
            "configs_after_filter": self.configs_after_filter,
            "filter_pass_ratio": (
                float(f"{ratio:.3g}") if ratio is not None else None
            ),
            "per_order": {
                str(n): dict(slot) for n, slot in sorted(self.per_order.items())
            },
            "hits_raw": dict(sorted(self.hits_raw.items())),
            "hits": {
                fn: [h.to_json_dict() for h in hs]
                for fn, hs in sorted(self.hits.items())
            },
            "rarity": self.rarity_rows(),
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _ratio(denom: int, numer: int) -> float | None:
    if numer == 0:
        return None
    return denom / numer


def rarity_stats(report: SearchReport) -> list[dict]:
    """Per function and order: how many graphs / configurations / filtered
    configurations one hit corresponds to.  Raw and deduplicated numerators
    are both reported; zero hits yields an explicit "no hits" row."""
    raw_by = report.hits_raw_per_order
    rows = []
    labels = sorted(set(report.hits_raw) | set(report.hits))
    for fn in labels:
        orders = sorted(
            {h.n for h in report.hits.get(fn, ())}
            | set(raw_by.get(fn, {}))
        )
        if not orders:
            rows.append(
                {
                    "function": fn,
                    "n": None,
                    "hits_raw": 0,
                    "hits_deduped": 0,
                    "note": "no hits",
                }
            )
            continue
        for n in orders:
            slot = report.per_order.get(
                n, {"graphs": 0, "configs_enumerated": 0, "configs_after_filter": 0}
            )
            raw = raw_by.get(fn, {}).get(n, 0)
            dedup = sum(1 for h in report.hits.get(fn, ()) if h.n == n)
            rows.append(
                {
                    "function": fn,
                    "n": n,
                    "hits_raw": raw,
                    "hits_deduped": dedup,
                    "graphs": slot["graphs"],
                    "configs": slot["configs_enumerated"],
                    "configs_after_filter": slot["configs_after_filter"],
                    "graphs_per_hit_raw": _ratio(slot["graphs"], raw),
                    "configs_per_hit_raw": _ratio(
                        slot["configs_enumerated"], raw
                    ),
                    "filtered_per_hit_raw": _ratio(
                        slot["configs_after_filter"], raw
                    ),
                    "graphs_per_hit_deduped": _ratio(slot["graphs"], dedup),
                    "configs_per_hit_deduped": _ratio(
                        slot["configs_enumerated"], dedup
                    ),
                    "filtered_per_hit_deduped": _ratio(
                        slot["configs_after_filter"], dedup
                    ),
                    "note": None,
                }
            )
    return rows


def _record_iter(
    source, start_offset: int = 0, start_lineno: int = 0
) -> Iterator[tuple[int, str, int | None]]:
    # Yields (lineno, line, offset_after_line or None).  Offsets are only
    # available for path sources, where they make resuming possible.
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            fh.seek(start_offset)
            offset = start_offset
            lineno = start_lineno
            for raw in fh:
                offset += len(raw)
                lineno += 1
                yield lineno, raw.decode("ascii", "replace"), offset
    else:
        if start_offset or start_lineno:
            raise ValueError("resume is only possible for path sources")
        for lineno, line in enumerate(source, start=1):
            yield lineno, line, None


class _Checkpoint:
    """Resumable progress for single-process path-based runs."""

    def __init__(self, path: str, options: SearchOptions, source):
        self.path = path
        # Round-tripped through JSON so the comparison with a loaded file
        # is type-stable (tuples arrive back as lists).
        self.fingerprint = json.loads(
            json.dumps(
                {
                    "source": str(source),
                    "options": asdict(options),
                    "version": 1,
                }
            )
        )
        self.offset = 0
        self.lineno = 0
        self.tally = _Tally()

    def load(self) -> bool:
        if not os.path.exists(self.path):
            return False
        with open(self.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("fingerprint") != self.fingerprint:
            raise ValueError(
                "checkpoint was written by a different run "
                "(source or options differ); refusing to resume"
            )
        self.offset = data["offset"]
        self.lineno = data["lineno"]
        t = self.tally
        t.graphs_seen = data["graphs_seen"]
        t.bad = [tuple(b) for b in data["bad"]]
        t.per_order = {int(n): dict(s) for n, s in data["per_order"].items()}
        t.raw_hits = [
            (g6, a0, th, tuple(ins), label, bits)
            for g6, a0, th, ins, label, bits in data["raw_hits"]
        ]
        return True

    def save(self, done: bool = False) -> None:
        data = {
            "fingerprint": self.fingerprint,
            "offset": self.offset,
            "lineno": self.lineno,
            "graphs_seen": self.tally.graphs_seen,
            "bad": [list(b) for b in self.tally.bad],
            "per_order": {
                str(n): dict(s) for n, s in self.tally.per_order.items()
            },
            "raw_hits": [
                [g6, a0, th, list(ins), label, bits]
                for g6, a0, th, ins, label, bits in self.tally.raw_hits
            ],
            "done": done,
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, self.path)


def search_stream(source, options: SearchOptions) -> SearchReport:
    """Run a census over a graph6 source (path, or iterable of records).

    The report is normalized: identical for any worker count and chunking.
    Strict mode turns undecodable records into an InvalidGraph6 naming the
    first offending line; otherwise they are counted and skipped.
    """
    start = time.perf_counter()
    ckpt = None
    if options.checkpoint:
        if options.jobs != 1:
            raise ValueError("checkpointing requires jobs=1")
        if not isinstance(source, (str, Path)):
            raise ValueError("checkpointing requires a path source")
        ckpt = _Checkpoint(options.checkpoint, options, source)
        ckpt.load()

    tally = ckpt.tally if ckpt else _Tally()
    if ckpt and ckpt.offset:
        records = _record_iter(source, ckpt.offset, ckpt.lineno)
    else:
        records = _record_iter(source)

    if options.jobs == 1:
        since_ckpt = 0
        for lineno, line, offset in records:
            part = _scan_chunk([(lineno, line)], options)
            tally.merge(part)
            if ckpt is not None:
                ckpt.lineno = lineno
                if offset is not None:
                    ckpt.offset = offset
                since_ckpt += 1
                if since_ckpt >= options.checkpoint_every:
                    ckpt.save()
                    since_ckpt = 0
        if ckpt is not None:
            ckpt.save(done=True)
    else:
        _parallel_scan(records, options, tally)

    if options.strict and tally.bad:
        lineno, msg = min(tally.bad)
        raise InvalidGraph6(f"line {lineno}: {msg}")

    return _build_report(tally, options, time.perf_counter() - start)


def _parallel_scan(records, options: SearchOptions, tally: _Tally) -> None:
    def chunks() -> Iterator[list]:
        block = []
        for lineno, line, _ in records:
            block.append((lineno, line))
            if len(block) >= CHUNK_RECORDS:
                yield block
                block = []
        if block:
            yield block

    max_inflight = options.jobs * 2
    with ProcessPoolExecutor(max_workers=options.jobs) as pool:
        inflight = set()
        for block in chunks():
            inflight.add(pool.submit(_scan_chunk, block, options))
            if len(inflight) >= max_inflight:
                done, inflight = wait(inflight, return_when=FIRST_COMPLETED)
                for fut in done:
                    tally.merge(fut.result())
        for fut in inflight:
            tally.merge(fut.result())


def _build_report(
    tally: _Tally, options: SearchOptions, elapsed: float
) -> SearchReport:
    hits_all = [_hit_from_raw(raw) for raw in tally.raw_hits]
    by_fn: dict[str, list[Hit]] = {}
    for h in hits_all:
        by_fn.setdefault(h.function, []).append(h)
    hits_raw = {fn: len(hs) for fn, hs in by_fn.items()}
    deduped = {
        fn: dedupe_hits(hs, options.ordered_inputs)
        for fn, hs in sorted(by_fn.items())
    }
    raw_by_order: dict[str, dict[int, int]] = {}
    for h in hits_all:
        fn_orders = raw_by_order.setdefault(h.function, {})
        fn_orders[h.n] = fn_orders.get(h.n, 0) + 1
    return SearchReport(
        options=options,
        graphs_seen=tally.graphs_seen,
        bad_lines=len(tally.bad),
        per_order={n: dict(s) for n, s in sorted(tally.per_order.items())},
        hits_raw=hits_raw,
        hits=deduped,
        elapsed_s=elapsed,
        hits_raw_per_order=raw_by_order,
    )
