"""Census machinery over graph6 streams.

The stream is scanned in blocks of CHUNK_RECORDS records, inline or on a
process pool, and the blocks' tallies are merged in stream order.  A block
is filtered first: its graphs, grouped by order in stream order, go in
passes of at most PASS_CELLS (graph, role assignment) cells through one
structural filter over the stacked adjacency rows.  Proper 3-colorings are
then enumerated, for the whole pass at once, only for the graphs that keep
some role assignment (configuration), and the census kernel checks
universality and consistency and reads the truth table of the kept ones.
Graphs up to 7 vertices can come from the built-in generator; anything
larger arrives as an external one-record-per-line graph6 stream.

A tally is one additive Counter (graphs, configurations, raw hits and bad
lines) plus, per role-respecting isomorphism class, the least hit in the
input labeling, so memory grows with distinct hits and reports do not
depend on worker scheduling or chunking.  Checkpoints save that same
state after a merged block and so always cover a contiguous prefix of the
stream; a resume replays that prefix to check its sha256.
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
from .coloring import stacked_colorings
from .errors import InvalidGraph6
from .gadget import NAMED_FUNCTIONS, TruthTable, classify
from .graphcore import Graph, RoleLabeling, config_canonical_key, decode_graph6

CHUNK_RECORDS = 512
# Graphs x configurations per filter and coloring pass of a block, and so
# its memory.  At 1 << 16 (78 order-8 graphs at arity 2) the order-8
# minimal census peaked at 42.8 MB resident against 40.5 MB scanning one
# graph at a time; 1 << 17 peaked at 44.6 MB and was not measurably faster.
PASS_CELLS = 1 << 16


@lru_cache(maxsize=128)
def enumerate_configs(
    n: int, arity: int = 2, ordered_inputs: bool = False
) -> np.ndarray:
    """All (anchor, output, input...) role assignments for an n-vertex graph,
    in lexicographic order.  Column layout: anchor, output, i1, i2 (i2 is -1
    at arity 1).  Inputs are an unordered pair (i1 < i2) unless ordered.
    The table is cached and write-protected."""
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    pairs = itertools.permutations if ordered_inputs else itertools.combinations
    rows = []
    for a0, th in itertools.permutations(range(n), 2):
        rest = [v for v in range(n) if v != a0 and v != th]
        if arity == 1:
            rows.extend((a0, th, i1, -1) for i1 in rest)
        else:
            rows.extend((a0, th, i1, i2) for i1, i2 in pairs(rest, 2))
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity}")
        if self.sample_rate is not None and not 0 < self.sample_rate <= 1:
            raise ValueError("sample_rate must be in (0, 1]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.minimal_mode and not self.use_filter:
            raise ValueError("minimal mode needs the structural filter")
        arities = {name: ar for (ar, _), name in NAMED_FUNCTIONS.items()}
        bad = [t for t in self.targets if t not in arities]
        if bad:
            raise ValueError(
                f"unknown target(s) {bad}; known: {sorted(arities)} "
                f"(empty targets = every non-degenerate function)"
            )
        wrong = [t for t in self.targets if arities[t] != self.arity]
        if wrong:
            raise ValueError(
                f"target(s) {wrong} do not have arity {self.arity}, "
                "so they can never hit"
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
            "roles": self.roles.to_json_dict(),
            "function": self.function,
            "truth_table": self.truth_table,
        }


@lru_cache(maxsize=32)
def _allowed_codes(targets: tuple[str, ...], arity: int) -> dict:
    # Map truth-table code -> (function label, bitstring) for codes worth
    # reporting.  Degenerate tables are never reported: a configuration only
    # implements a function that depends on every input.
    out = {}
    for code in range(1 << (1 << arity)):
        fn = classify(TruthTable.from_code(arity, code))
        if fn.degenerate or (targets and fn.name not in targets):
            continue
        bits = fn.truth_table.bitstring()
        out[code] = (fn.name if fn.name != "other" else f"tt_{bits}", bits)
    return out


_ORDER_KEYS = ("graphs", "configs_enumerated", "configs_after_filter")


@dataclass
class _Tally:
    # Additive counts keyed (name, order) for the _ORDER_KEYS, ("hits",
    # function, order) and ("bad",); the least Hit per (function,
    # config_canonical_key); and the block's first undecodable (lineno,
    # message), which only strict mode reads.  The state grows with orders
    # and distinct hits, not with lines read.
    counts: Counter = field(default_factory=Counter)
    least: dict = field(default_factory=dict)
    first_bad: tuple | None = None

    def merge(self, other: "_Tally") -> None:
        self.counts.update(other.counts)
        for key, hit in other.least.items():
            self.least[key] = min(hit, self.least.get(key, hit), key=Hit.sort_key)

    def fold(self, hit: Hit, ordered_inputs: bool, g: Graph | None = None) -> None:
        # Keys the hit by its role-respecting isomorphism class; g is the
        # decoded hit.graph6 when the caller has it.
        if g is None:
            g = decode_graph6(hit.graph6)
        key = (hit.function, config_canonical_key(g, hit.roles, ordered_inputs))
        self.least[key] = min(hit, self.least.get(key, hit), key=Hit.sort_key)


def _scan_chunk(records: list, options: SearchOptions) -> _Tally:
    tally = _Tally()
    by_order: dict[int, list] = {}
    for lineno, line in records:
        text = line.strip()
        if not text:
            continue
        try:
            g = decode_graph6(text)
        except InvalidGraph6 as exc:
            tally.counts["bad",] += 1
            tally.first_bad = tally.first_bad or (lineno, str(exc))
            continue
        # A record that decodes is the only graph6 of its graph, so the
        # stripped text doubles as the hits' graph6.
        by_order.setdefault(g.n, []).append((lineno, text, g))
    for n, group in by_order.items():
        cfgs = enumerate_configs(n, options.arity, options.ordered_inputs)
        step = max(1, PASS_CELLS // max(1, len(cfgs)))
        for lo in range(0, len(group), step):
            _scan_pass(group[lo : lo + step], cfgs, options, tally)
    return tally


def _scan_pass(
    group: list, cfgs: np.ndarray, options: SearchOptions, tally: _Tally
) -> None:
    # One pass over (lineno, graph6, graph) records of one order: the
    # sampled, filtered keep-mask of every (graph, configuration), then
    # colorings and the law scan for the graphs that keep any.
    n = group[0][2].n
    adj = np.array([g.adj for _, _, g in group], dtype=np.int64)
    deg = ((adj[:, :, None] >> np.arange(n)) & 1).sum(axis=2)
    keep = np.ones((len(group), len(cfgs)), dtype=bool)
    if options.sample_rate is not None and options.sample_rate < 1.0:
        for i, (lineno, _, _) in enumerate(group):
            rng = np.random.default_rng((options.seed or 0, lineno))
            keep[i] = rng.random(len(cfgs)) < options.sample_rate
    tally.counts["graphs", n] += len(group)
    tally.counts["configs_enumerated", n] += int(keep.sum())
    if options.use_filter:
        keep &= _kernels._filter_mask_vec(
            adj, deg, cfgs, options.arity, options.minimal_mode
        )
    after = keep.sum(axis=1)
    tally.counts["configs_after_filter", n] += int(after.sum())
    live = np.nonzero(after)[0]
    allowed = _allowed_codes(options.targets, options.arity)
    for i, C in zip(live, stacked_colorings(adj[live])):
        kept = cfgs[keep[i]]
        res = _kernels.scan_configs(
            C, adj[i], deg[i], kept, options.arity, False, False
        )
        _, text, g = group[i]
        for j in np.nonzero(res >= 0)[0]:
            found = allowed.get(int(res[j]))
            if found is None:
                continue
            a0, th, i1, i2 = (int(x) for x in kept[j])
            inputs = (i1,) if options.arity == 1 else (i1, i2)
            hit = Hit(text, RoleLabeling(a0, inputs, th), *found)
            tally.counts["hits", hit.function, n] += 1
            tally.fold(hit, options.ordered_inputs, g)


def dedupe_hits(hits: list[Hit], ordered_inputs: bool = False) -> list[Hit]:
    """One representative per role-respecting isomorphism class, the
    lexicographically least (graph6, roles) member.  Output order is
    normalized, independent of input order."""
    tally = _Tally()
    for hit in hits:
        tally.fold(hit, ordered_inputs)
    return sorted(tally.least.values(), key=lambda h: (h.function, h.sort_key()))


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
    backend = _kernels.BACKEND  # not a field: there is one backend

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
            "rarity": rarity_stats(self),
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
    raw = Counter(
        {(fn, n): c for fn, by in report.hits_raw_per_order.items()
         for n, c in by.items()}
    )
    deduped = Counter(
        (h.function, h.n) for hs in report.hits.values() for h in hs
    )
    rows = []
    for fn, n in sorted(raw.keys() | deduped.keys()):
        slot = report.per_order[n]
        row = {
            "function": fn,
            "n": n,
            "hits_raw": raw[fn, n],
            "hits_deduped": deduped[fn, n],
            "graphs": slot["graphs"],
            "configs": slot["configs_enumerated"],
            "configs_after_filter": slot["configs_after_filter"],
        }
        for kind in ("raw", "deduped"):
            for name, key in zip(("graphs", "configs", "filtered"), _ORDER_KEYS):
                row[f"{name}_per_hit_{kind}"] = _ratio(
                    slot[key], row[f"hits_{kind}"]
                )
        row["note"] = None
        rows.append(row)
    return rows


def _record_iter(source, prefix=None) -> Iterator[tuple[int, str]]:
    # Yields (lineno, line).  For a path source, a prefix hasher is fed
    # every byte read.
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if prefix is not None:
                    prefix.update(raw)
                yield lineno, raw.decode("ascii", "replace")
    else:
        yield from enumerate(source, start=1)


class _Checkpoint:
    """Resumable progress of a path-source run: the tally of the first
    lineno lines of the stream, and the sha256 of those lines."""

    def __init__(self, path: str, options: SearchOptions):
        self.path = path
        self.ordered_inputs = options.ordered_inputs
        # A run is the options that shape its report; the stream is pinned
        # by the prefix sha256, so any spelling of its path resumes.  The
        # worker count, the checkpoint's own path and its save interval do
        # not shape the report either.  strict stays in: a prefix scanned
        # leniently may hold bad lines a strict run stops at.  Round-tripped
        # through JSON so the comparison with a loaded file is type-stable
        # (tuples arrive back as lists).
        opts = asdict(options)
        for key in ("jobs", "checkpoint", "checkpoint_every"):
            del opts[key]
        self.fingerprint = json.loads(json.dumps({"options": opts, "version": 5}))
        self.prefix = hashlib.sha256()
        self.end = (0, self.prefix.hexdigest())
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
                "(options or format differ); refusing to resume"
            )
        self.end = (data["lineno"], data["prefix_sha256"])
        self.saved_at = data["lineno"]
        t = self.tally
        t.counts = Counter({tuple(row[:-1]): row[-1] for row in data["counts"]})
        for g6, a0, ins, out, fn, bits in data["hits"]:
            t.fold(Hit(g6, RoleLabeling(a0, tuple(ins), out), fn, bits),
                   self.ordered_inputs)

    def save(self, done: bool = False) -> None:
        t = self.tally
        lineno, digest = self.end
        data = {
            "fingerprint": self.fingerprint,
            "lineno": lineno,
            "prefix_sha256": digest,
            "counts": [[*key, c] for key, c in t.counts.items()],
            "hits": [
                [h.graph6, h.roles.anchor, h.roles.inputs, h.roles.output,
                 h.function, h.truth_table]
                for h in t.least.values()
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
        ckpt = _Checkpoint(options.checkpoint, options)
        ckpt.load()
    tally = ckpt.tally if ckpt else _Tally()
    prefix = ckpt.prefix if ckpt else None
    records = _record_iter(source, prefix)
    if ckpt is not None:
        # Reading the covered lines again feeds them to the prefix hasher.
        lineno, digest = ckpt.end
        deque(itertools.islice(records, lineno), maxlen=0)
        if prefix.hexdigest() != digest:
            raise ValueError(
                f"the first {lineno} lines of {source} changed since the "
                "checkpoint was written; refusing to resume"
            )
    blocks = iter(lambda: list(itertools.islice(records, CHUNK_RECORDS)), [])

    def merge(scan, end) -> None:
        part = scan()
        tally.merge(part)
        if options.strict and part.first_bad:
            raise InvalidGraph6("line {}: {}".format(*part.first_bad))
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
            end = (block[-1][0], prefix.hexdigest() if prefix else None)
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
    per_order: dict[int, dict] = {}
    raw_by_order: dict[str, dict[int, int]] = {}
    for (name, *key), count in sorted(tally.counts.items()):
        if name == "hits":
            fn, n = key
            raw_by_order.setdefault(fn, {})[n] = count
        elif name in _ORDER_KEYS:
            per_order.setdefault(key[0], dict.fromkeys(_ORDER_KEYS, 0))[name] = count
    return SearchReport(
        options=options,
        graphs_seen=sum(s["graphs"] for s in per_order.values()),
        bad_lines=tally.counts["bad",],
        per_order=per_order,
        hits_raw={fn: sum(c.values()) for fn, c in raw_by_order.items()},
        hits=hits,
        elapsed_s=elapsed,
        hits_raw_per_order=raw_by_order,
    )
