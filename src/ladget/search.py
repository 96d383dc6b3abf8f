"""Census machinery over graph6 streams.

For each graph the proper 3-colorings are enumerated once, then every role
assignment (configuration) is scanned against them by the census kernel:
filter verdict, universality, consistency, truth table.  Graphs up to 7
vertices can come from the built-in generator; anything larger arrives as
an external one-record-per-line graph6 stream.

The stream is scanned in blocks of CHUNK_RECORDS records, inline or on a
process pool, and the blocks' tallies are merged in stream order.  A tally
keeps raw hit counts and, per role-respecting isomorphism class, the least
hit in the input labeling, so memory grows with distinct hits and reports
do not depend on worker scheduling or chunking.  Checkpoints are written
after a merged block and so always cover a contiguous prefix of the stream.
Rarity statistics report both the raw and the deduplicated numerator since
either reading of "one hit in N" is defensible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
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
            Hit(
                g6,
                RoleLabeling(a0, inputs, th),
                label,
                TruthTable.from_code(options.arity, int(res[j])).bitstring(),
            )
        )
    return len(cfgs), after, hits


def _keep_least(least: dict, key, hit: Hit) -> None:
    old = least.get(key)
    if old is None or hit.sort_key() < old.sort_key():
        least[key] = hit


@dataclass
class _Tally:
    graphs_seen: int = 0
    bad: list = field(default_factory=list)
    per_order: dict = field(default_factory=dict)
    # Raw hit count per (function, order), and the least Hit per
    # (function, config_canonical_key): the state grows with distinct hits.
    raw: Counter = field(default_factory=Counter)
    least: dict = field(default_factory=dict)

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
        self.raw.update(other.raw)
        for key, hit in other.least.items():
            _keep_least(self.least, key, hit)


def _scan_chunk(records: list, options: SearchOptions) -> _Tally:
    tally = _Tally()
    for lineno, line, _ in records:
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
        for hit in hits:
            tally.raw[hit.function, g.n] += 1
            key = config_canonical_key(g, hit.roles, options.ordered_inputs)
            _keep_least(tally.least, (hit.function, key), hit)
    return tally


def dedupe_hits(hits: list[Hit], ordered_inputs: bool = False) -> list[Hit]:
    """One representative per role-respecting isomorphism class, the
    lexicographically least (graph6, roles) member.  Output order is
    normalized, independent of input order."""
    least: dict = {}
    for hit in hits:
        g = decode_graph6(hit.graph6)
        key = config_canonical_key(g, hit.roles, ordered_inputs)
        _keep_least(least, (hit.function, key), hit)
    return sorted(least.values(), key=lambda h: (h.function, h.sort_key()))


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
    are both reported; a function without hits gets no row."""
    raw_by = report.hits_raw_per_order
    rows = []
    labels = sorted(set(report.hits_raw) | set(report.hits))
    for fn in labels:
        orders = sorted(
            {h.n for h in report.hits.get(fn, ())}
            | set(raw_by.get(fn, {}))
        )
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
    source, start_offset: int = 0, start_lineno: int = 0, prefix=None
) -> Iterator[tuple[int, str, int | None]]:
    # Yields (lineno, line, offset_after_line or None).  Offsets are only
    # available for path sources, where they make resuming possible; a
    # prefix hasher is fed every byte read.
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            fh.seek(start_offset)
            offset = start_offset
            lineno = start_lineno
            for raw in fh:
                if prefix is not None:
                    prefix.update(raw)
                offset += len(raw)
                lineno += 1
                yield lineno, raw.decode("ascii", "replace"), offset
    else:
        if start_offset or start_lineno:
            raise ValueError("resume is only possible for path sources")
        for lineno, line in enumerate(source, start=1):
            yield lineno, line, None


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


class _Checkpoint:
    """Resumable progress of a path-source run: the tally of a contiguous
    prefix of the stream, and the (lineno, offset, sha256) that prefix
    ends at."""

    def __init__(self, path: str, options: SearchOptions, source):
        self.path = path
        self.source = source
        # Reports never depend on the worker count, so a run may resume
        # under another one.  Round-tripped through JSON so the comparison
        # with a loaded file is type-stable (tuples arrive back as lists).
        opts = asdict(options)
        del opts["jobs"]
        self.fingerprint = json.loads(
            json.dumps({"source": str(source), "options": opts, "version": 2})
        )
        self.prefix = hashlib.sha256()
        self.end = (0, 0, self.prefix.hexdigest())
        self.saved_at = 0
        self.tally = _Tally()

    def load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("fingerprint") != self.fingerprint:
            raise ValueError(
                "checkpoint was written by a different run "
                "(source or options differ); refusing to resume"
            )
        self.end = (data["lineno"], data["offset"], data["prefix_sha256"])
        self.saved_at = data["lineno"]
        left = data["offset"]
        with open(self.source, "rb") as fh:
            while left > 0 and (piece := fh.read(min(left, 1 << 20))):
                self.prefix.update(piece)
                left -= len(piece)
        if self.prefix.hexdigest() != data["prefix_sha256"]:
            raise ValueError(
                f"the first {data['offset']} bytes of {self.source} changed "
                "since the checkpoint was written; refusing to resume"
            )
        t = self.tally
        t.graphs_seen = data["graphs_seen"]
        t.bad = [tuple(b) for b in data["bad"]]
        t.per_order = {int(n): s for n, s in data["per_order"].items()}
        t.raw = Counter({(fn, n): c for fn, n, c in data["hits_raw"]})
        for key, g6, a0, ins, out, bits in data["hits"]:
            key = _tuples(key)
            hit = Hit(g6, RoleLabeling(a0, tuple(ins), out), key[0], bits)
            t.least[key] = hit

    def save(self, done: bool = False) -> None:
        t = self.tally
        lineno, offset, digest = self.end
        data = {
            "fingerprint": self.fingerprint,
            "lineno": lineno,
            "offset": offset,
            "prefix_sha256": digest,
            "graphs_seen": t.graphs_seen,
            "bad": t.bad,
            "per_order": t.per_order,
            "hits_raw": [[fn, n, c] for (fn, n), c in t.raw.items()],
            "hits": [
                [key, h.graph6, h.roles.anchor, h.roles.inputs, h.roles.output,
                 h.truth_table]
                for key, h in t.least.items()
            ],
            "done": done,
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))  # json.dump encodes in pure Python
        os.replace(tmp, self.path)
        self.saved_at = lineno


def search_stream(source, options: SearchOptions) -> SearchReport:
    """Run a census over a graph6 source (path, or iterable of records).

    The report is normalized: identical for any worker count and chunking.
    Strict mode turns undecodable records into an InvalidGraph6 naming the
    first offending line, raised once the block holding it is merged;
    otherwise they are counted and skipped.
    """
    start = time.perf_counter()
    ckpt = None
    if options.checkpoint:
        if not isinstance(source, (str, Path)):
            raise ValueError("checkpointing requires a path source")
        ckpt = _Checkpoint(options.checkpoint, options, source)
        ckpt.load()
    tally = ckpt.tally if ckpt else _Tally()
    prefix = ckpt.prefix if ckpt else None
    lineno, offset, _ = ckpt.end if ckpt else (0, 0, None)
    records = _record_iter(source, offset, lineno, prefix)
    blocks = iter(lambda: list(itertools.islice(records, CHUNK_RECORDS)), [])

    def merge(scan, end) -> None:
        part = scan()
        tally.merge(part)
        if options.strict and part.bad:
            raise InvalidGraph6("line {}: {}".format(*min(part.bad)))
        if ckpt is not None:
            ckpt.end = end
            if end[0] - ckpt.saved_at >= options.checkpoint_every:
                ckpt.save()

    # Blocks are scanned inline or by the pool with at most 2*jobs + 1 in
    # flight, and merged in stream order.
    pool = ProcessPoolExecutor(options.jobs) if options.jobs > 1 else None
    depth = 2 * options.jobs + 1 if pool else 1
    pending: deque = deque()
    try:
        for block in blocks:
            lineno, _, offset = block[-1]
            end = (lineno, offset, prefix.hexdigest() if prefix else None)
            scan = (pool.submit(_scan_chunk, block, options).result if pool
                    else partial(_scan_chunk, block, options))
            pending.append((scan, end))
            if len(pending) == depth:
                merge(*pending.popleft())
        while pending:
            merge(*pending.popleft())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if ckpt is not None:
        ckpt.save(done=True)
    return _build_report(tally, options, time.perf_counter() - start)


def _build_report(
    tally: _Tally, options: SearchOptions, elapsed: float
) -> SearchReport:
    hits: dict[str, list[Hit]] = {}
    for h in sorted(tally.least.values(), key=lambda h: (h.function, h.sort_key())):
        hits.setdefault(h.function, []).append(h)
    raw_by_order: dict[str, dict[int, int]] = {}
    for (fn, n), count in sorted(tally.raw.items()):
        raw_by_order.setdefault(fn, {})[n] = count
    return SearchReport(
        options=options,
        graphs_seen=tally.graphs_seen,
        bad_lines=len(tally.bad),
        per_order={n: dict(s) for n, s in sorted(tally.per_order.items())},
        hits_raw={fn: sum(c.values()) for fn, c in raw_by_order.items()},
        hits=hits,
        elapsed_s=elapsed,
        hits_raw_per_order=raw_by_order,
    )
