"""Census machinery over graph6 streams.

The stream is scanned in blocks of CHUNK_RECORDS records, inline or on a
process pool, and the blocks' tallies are merged in stream order.  A block
is decoded with numpy, one order at a time, into stacked adjacency rows; a
record failing any check is counted bad by decode_graph6.  A pass is a
block's graphs of one order, in stream order, split where they could hold
more than MAX_MATERIALIZED coloring rows: the whole block through order
10, one graph from order 16 on.  A pass goes through one structural
filter over the stacked rows, which judges each graph's (anchor, output)
pairs and (anchor, inputs) tuples once and gathers every assignment's
verdict from those two tables.  From then on a pass is its kept (graph,
configuration) pairs, one sorted int64 array of g * configurations + j:
those the filter keeps among the sampled ones, or all of them.  Proper
3-colorings are enumerated, for the whole pass at once, only for the
graphs with a kept pair, and only one per orbit of the six color
permutations: a role reads false where it has the anchor's color, which
no permutation changes.  One law scan of the pass turns those rows into
one bitset per graph and vertex pair, of the rows that give the two
vertices one color, and judges universality and consistency with a few
mask operations per kept pair, one int8 verdict each; the counts are
array lengths, and hits are the pairs with a reported truth table.  A pass
folds its hits as arrays: its hit graphs are refined and searched as one
stack, every hit's role code comes from one stepped minimum,
and one lexsort picks the least hit of each role-respecting isomorphism
class, which alone reaches the tally.  Graphs up to 7 vertices can come
from the built-in generator; anything larger arrives as an external
one-record-per-line graph6 stream.

A tally is one additive Counter (graphs, configurations, raw hits and bad
lines) plus, per role-respecting isomorphism class, the least (graph6,
configuration index, line, truth-table code) of its hits, so memory grows
with distinct hits and reports do not depend on worker scheduling or
chunking; the report builds one Hit per class.  Checkpoints save that state
before the first block and after merged blocks, a hit as its (line,
configuration index) cell, and so always cover a contiguous prefix of the
stream.  A resume checks that the counts fit the covered lines, reads that
prefix again to check its sha256, keeping the lines the saved cells name,
and censuses those lines with the census's own block scan, which derives
each hit's graph6, roles and function from the stream; it refuses the
checkpoint unless that scan's least hits are exactly the saved cells and
its raw hits fit the saved counts.  Deleting a line's only saved cell
still passes, and drops that class.
Rarity statistics report both the raw and the deduplicated numerator since
either reading of "one hit in N" is defensible.
"""

from __future__ import annotations

import gc
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
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels
from .coloring import MAX_MATERIALIZED, stacked_colorings
from .errors import InvalidGraph6
from .gadget import NAMED_FUNCTIONS, TruthTable, classify
from .graphcore import (
    MAX_VERTICES,
    RoleLabeling,
    decode_graph6,
    stacked_config_keys,
)

CHUNK_RECORDS = 512


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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


class Hit(NamedTuple):
    """One verified configuration in the input record's labeling, as a row
    in the report's order within a function, which is the (graph6,
    configuration index) order a class's least hit is the min of."""

    graph6: str
    anchor: int
    output: int
    inputs: tuple[int, ...]
    function: str
    truth_table: str

    @property
    def n(self) -> int:
        return ord(self.graph6[0]) - 63

    @property
    def roles(self) -> RoleLabeling:
        return RoleLabeling(self.anchor, self.inputs, self.output)

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "roles": {"anchor": self.anchor, "inputs": list(self.inputs),
                      "output": self.output},
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
    # function, order) and ("bad",); per (truth-table code, canonical_key,
    # role code) class the least (graph6, j, lineno, code) of its hits, so
    # hits fold with a plain min in the report's order, the line breaking
    # ties between repeated records; and the block's first undecodable
    # (lineno, message), which only strict mode reads.  The state grows
    # with orders and distinct hits, not with lines read.
    counts: Counter = field(default_factory=Counter)
    least: dict = field(default_factory=dict)
    first_bad: tuple | None = None

    def merge(self, other: "_Tally") -> None:
        self.counts.update(other.counts)
        for key, entry in other.least.items():
            self.least[key] = min(entry, self.least.get(key, entry))


def _scan_chunk(records: list, options: SearchOptions) -> _Tally:
    # The tally of a block of (lineno, line) records.
    tally = _Tally()
    for n, (linenos, texts, adj) in _decode_block(records, tally).items():
        cfgs = enumerate_configs(n, options.arity, options.ordered_inputs)
        step = _pass_size(n, cfgs)
        for lo in range(0, len(texts), step):
            part = slice(lo, lo + step)
            _scan_pass(linenos[part], texts[part], adj[part], cfgs, options, tally)
    return tally


def _pass_size(n: int, cfgs: np.ndarray) -> int:
    # Graphs of order n per pass: at most a block, and at most
    # MAX_MATERIALIZED (graph, configuration) cells and coloring rows.  A
    # graph has at most (3**(n - 1) + 1) // 2 rows, the restricted-growth
    # strings of length n over three colors, and no more partial ones, so a
    # pass never outgrows the bound stacked_colorings enforces unless one
    # graph does.  Through order 10 a block's graphs of one order are one
    # pass; from order 16 on a pass is one graph.
    worst = max(len(cfgs), (3 ** (n - 1) + 1) // 2)
    return max(1, min(CHUNK_RECORDS, MAX_MATERIALIZED // worst))


def _decode_block(records: list, tally: _Tally) -> dict:
    # The block's records by order, in stream order: line numbers, stripped
    # texts and (graphs, n) adjacency rows.  Each order is decoded at once;
    # a record failing any check is counted bad by decode_graph6, so the
    # messages have one source and first_bad is the block's least line.
    by_order: dict[int, list] = {}
    rejects = []
    for lineno, line in records:
        text = line.strip()
        if not text:
            continue
        n = ord(text[0]) - 63
        size = 1 + (n * (n - 1) // 2 + 5) // 6
        if 0 < n <= MAX_VERTICES and len(text) == size and text.isascii():
            by_order.setdefault(n, []).append((lineno, text))
        else:
            rejects.append((lineno, text))
    out = {}
    for n, group in by_order.items():
        raw = np.frombuffer("".join(t for _, t in group).encode(), np.uint8)
        body = raw.reshape(len(group), -1)[:, 1:] - np.uint8(63)
        bits = np.unpackbits(body[:, :, None], axis=2)[:, :, 2:]
        bits = bits.reshape(len(group), -1)
        # The vertex pairs i < j in graph6 bit order: (0, 1), (0, 2), (1, 2), ...
        j, i = np.tril_indices(n, -1)
        ok = (body < 64).all(axis=1) & ~bits[:, len(i) :].any(axis=1)
        rejects += [group[k] for k in np.flatnonzero(~ok)]
        good = [group[k] for k in np.flatnonzero(ok)]
        if good:
            adj = np.zeros((len(good), n, n), np.uint8)
            adj[:, i, j] = adj[:, j, i] = bits[ok, : len(i)]
            # A record that decodes is the only graph6 of its graph, so the
            # stripped text doubles as the hits' graph6.
            out[n] = (
                [lineno for lineno, _ in good],
                [text for _, text in good],
                adj @ (np.int64(1) << np.arange(n)),
            )
    for lineno, text in sorted(rejects):
        try:
            decode_graph6(text)
        except InvalidGraph6 as exc:
            tally.counts["bad",] += 1
            tally.first_bad = tally.first_bad or (lineno, str(exc))
        else:
            raise AssertionError(f"line {lineno} decodes, but the block refused it")
    return out


def _scan_pass(
    linenos: list, texts: list, adj: np.ndarray, cfgs: np.ndarray,
    options: SearchOptions, tally: _Tally,
) -> None:
    # One pass over records of one order: the sampled pairs, if sampled,
    # the kept ones and their verdicts, and the reported hits folded into
    # the tally.
    count, n = adj.shape
    q = len(cfgs)
    sampled = None
    if options.sample_rate is not None and options.sample_rate < 1.0:
        sample = np.empty((count, q), dtype=bool)
        for i, lineno in enumerate(linenos):
            rng = np.random.default_rng((options.seed or 0, lineno))
            sample[i] = rng.random(q) < options.sample_rate
        sampled = sample.ravel()
    tally.counts["graphs", n] += count
    tally.counts["configs_enumerated", n] += (
        count * q if sampled is None else int(sampled.sum())
    )
    # The pairs g * q + j that the run's structural filter keeps, ascending,
    # among the sampled ones or all of them.  The graphs with a kept pair
    # are colored in one stack, and one law scan gives each kept pair its
    # int8 verdict.
    if options.use_filter:
        mask = _kernels._filter_mask_vec(
            adj, cfgs, options.arity, options.minimal_mode
        )
        j, g = np.divmod(np.flatnonzero(mask.T), count)
        pairs = np.sort(g * q + j)
        if sampled is not None:
            pairs = pairs[sampled[pairs]]
    else:
        pairs = np.arange(count * q) if sampled is None else np.flatnonzero(sampled)
    tally.counts["configs_after_filter", n] += len(pairs)
    live = np.flatnonzero(np.diff(pairs.searchsorted(np.arange(count + 1) * q)))
    C, starts = stacked_colorings(adj[live])
    # Every graph of the pass gets its range of rows, empty if not colored.
    starts = starts[live.searchsorted(np.arange(count + 1))]
    res = _kernels.scan_pass(C, starts, pairs, cfgs, options.arity)
    allowed = _allowed_codes(options.targets, options.arity)
    # np.isin makes int64 copies of what it looks up, so it gets only the
    # ladgets, the pairs with a truth table, not every verdict of the pass.
    hit = np.flatnonzero(res >= 0)
    hit = hit[np.isin(res[hit], list(allowed))]
    if len(hit):
        _fold_hits(linenos, texts, adj, cfgs, options, tally, pairs[hit], res[hit])


def _fold_hits(
    linenos: list, texts: list, adj: np.ndarray, cfgs: np.ndarray,
    options: SearchOptions, tally: _Tally, pairs: np.ndarray, codes: np.ndarray,
) -> None:
    # Folds a pass's hits, its ascending pairs with their truth-table codes,
    # into the tally: the hit graphs are keyed as one stack, and one lexsort
    # picks the least hit of each (code, canonical_key, role code) class by
    # (graph6, j, lineno).  Counts and classes enter the tally in the order
    # of their first hit, as the checkpoint writes them.  Only int64 keys are
    # sorted, all with lexsort's stable kernel: int8 codes or a default
    # argsort would load more of numpy's sort code, which counts in peak RSS.
    n = adj.shape[1]
    codes = codes.astype(np.int64)
    g, j = np.divmod(pairs, len(cfgs))
    new = np.ones(len(g), bool)
    new[1:] = g[1:] != g[:-1]
    owner = new.cumsum() - 1
    graphs = g[new].tolist()
    keys, roles = stacked_config_keys(
        adj[graphs], owner, cfgs[j, : 2 + options.arity], options.ordered_inputs
    )
    ids: dict = {}
    key_id = np.array([ids.setdefault(key, len(ids)) for key in keys])[owner]
    # Each hit graph's rank in graph6 order, one rank per text so that
    # repeated records fall through to j; within a pass, g ascends with lineno.
    hit_texts = [texts[i] for i in graphs]
    at = {text: r for r, text in enumerate(sorted(set(hit_texts)))}
    rank = np.array([at[text] for text in hit_texts])
    order = np.lexsort((g, j, rank[owner], roles, key_id, codes))
    cls = np.stack((codes, key_id, roles))[:, order]
    edge = np.ones(len(order), bool)
    edge[1:] = (cls[:, 1:] != cls[:, :-1]).any(axis=0)
    bounds = np.flatnonzero(edge)
    first = np.minimum.reduceat(order, bounds)
    best = order[bounds[np.argsort(first, kind="stable")]]
    raw = np.bincount(codes).tolist()
    allowed = _allowed_codes(options.targets, options.arity)
    counted = set()
    for gi, ji, code, oi, role in zip(
        g[best].tolist(), j[best].tolist(), codes[best].tolist(),
        owner[best].tolist(), roles[best].tolist(),
    ):
        if code not in counted:
            counted.add(code)
            tally.counts["hits", allowed[code][0], n] += raw[code]
        slot = code, keys[oi], role
        entry = texts[gi], ji, linenos[gi], code
        held = tally.least.get(slot)
        if held is None or entry < held:
            tally.least[slot] = entry


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


def _well_formed(data: dict) -> bool:
    # The types a resume reads, exactly, so a JSON true is no line or
    # count: a count row is [name, key..., count], typed by its name, and a
    # hit row is [lineno, j], a cell of the covered lines.
    def types(row) -> list | None:
        return [type(x) for x in row] if isinstance(row, list) else None

    count_rows = {
        "bad": [str, int],
        "hits": [str, str, int, int],
        **dict.fromkeys(_ORDER_KEYS, [str, int, int]),
    }
    counts, hits = data.get("counts"), data.get("hits")
    return (
        types([data.get("lineno"), data.get("prefix_sha256")]) == [int, str]
        and data["lineno"] >= 0
        and isinstance(counts, list)
        and isinstance(hits, list)
        and all(
            (t := types(row)) and t[0] is str and t == count_rows.get(row[0])
            for row in counts
        )
        and all(types(row) == [int, int] for row in hits)
    )


def _counts_fit(counts: Counter, lineno: int, options: SearchOptions) -> bool:
    # Counts that the covered lines can hold: none negative, no more graphs
    # and bad lines than lines and, per order, no more configurations than
    # its graphs' tables, filtered configurations than configurations, or
    # raw hits of a function than filtered configurations.
    below = {"configs_after_filter": "configs_enumerated",
             "hits": "configs_after_filter"}
    for (name, *key), c in counts.items():
        n = key[-1] if key else None
        if name == "configs_enumerated":
            cap = 0
            if 0 < n <= MAX_VERTICES:
                cfgs = enumerate_configs(n, options.arity, options.ordered_inputs)
                cap = counts["graphs", n] * len(cfgs)
        else:
            cap = counts[below[name], n] if name in below else c
        if not 0 <= c <= cap:
            return False
    graphs = sum(c for key, c in counts.items() if key[0] == "graphs")
    return graphs + counts["bad",] <= lineno


class _Checkpoint:
    """Resumable progress of a path-source run: the tally of the first
    lineno lines of the stream, its hits as cells of those lines, and the
    sha256 of those lines."""

    def __init__(self, path: str, options: SearchOptions):
        self.path = path
        self.options = options
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
        self.fingerprint = json.loads(json.dumps({"options": opts, "version": 6}))
        self.prefix = hashlib.sha256()
        self.end = (0, self.prefix.hexdigest())
        self.saved_at = 0
        self.tally = _Tally()
        self.rows: list = []

    def load(self) -> None:
        if not os.path.exists(self.path):
            return
        malformed = ValueError(
            f"checkpoint {self.path} is malformed; refusing to resume"
        )
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError:  # not UTF-8, or not JSON
            raise malformed from None
        if not isinstance(data, dict) or data.get("fingerprint") != self.fingerprint:
            raise ValueError(
                "checkpoint was written by a different run "
                "(options or format differ); refusing to resume"
            )
        if not _well_formed(data):
            raise malformed
        counts = Counter({tuple(row[:-1]): row[-1] for row in data["counts"]})
        if not _counts_fit(counts, data["lineno"], self.options):
            raise malformed
        self.end = (data["lineno"], data["prefix_sha256"])
        self.saved_at = data["lineno"]
        self.tally.counts = counts
        self.rows = data["hits"]

    def resume(self, records: Iterator, source) -> None:
        # Reads the covered lines again, which feeds them to the prefix
        # hasher, keeping the lines the saved rows name.  Once the prefix is
        # the saved one, the census's own block scan of those lines must
        # find the saved rows as its least hits, since every class with a
        # hit on a saved line has its least hit saved there, and no more raw
        # hits than the saved counts hold.  A row off the covered lines, on
        # a blank or bad line, out of its order's table, repeated,
        # unsampled, filtered out, not reported or not its class's least
        # fails this, as does a row missing from a line that keeps another.
        # A line's only row deleted still passes, and drops that class.
        lineno, digest = self.end
        saved = {at for at, _ in self.rows}
        lines = [rec for rec in itertools.islice(records, lineno) if rec[0] in saved]
        if self.prefix.hexdigest() != digest:
            raise ValueError(
                f"the first {lineno} lines of {source} changed since the "
                "checkpoint was written; refusing to resume"
            )
        if not self.rows:
            return
        found = _scan_chunk(lines, self.options)
        hits = Counter({key: c for key, c in found.counts.items() if key[0] == "hits"})
        cells = sorted([at, j] for _, j, at, _ in found.least.values())
        if cells != sorted(self.rows) or hits - self.tally.counts:
            raise ValueError(
                f"checkpoint {self.path} holds a hit this run cannot find; "
                "refusing to resume"
            )
        self.tally.least = found.least

    def save(self, done: bool = False) -> None:
        t = self.tally
        lineno, digest = self.end
        data = {
            "fingerprint": self.fingerprint,
            "lineno": lineno,
            "prefix_sha256": digest,
            "counts": [[*key, c] for key, c in t.counts.items()],
            "hits": [[at, j] for _, j, at, _ in t.least.values()],
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
    # Blocks are scanned inline or by the pool with at most 2*jobs + 1 in
    # flight, and merged in stream order.  A census makes no reference
    # cycles, and a full collection walks every object the caller holds, at
    # points set by the census's allocations: the cyclic collector is paused
    # for the run, and so in the pool's forked workers.
    pool = ProcessPoolExecutor(options.jobs) if options.jobs > 1 else None
    collecting = gc.isenabled()
    gc.disable()
    try:
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
            ckpt.resume(records, source)
            # An unwritable checkpoint path fails here, not blocks into the scan.
            ckpt.save()
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

        depth = 2 * options.jobs + 1 if pool else 1
        pending: deque = deque()
        for block in blocks:
            end = (block[-1][0], prefix.hexdigest() if prefix else None)
            scan = (pool.submit(_scan_chunk, block, options).result if pool
                    else partial(_scan_chunk, block, options))
            pending.append((scan, end))
            if len(pending) == depth:
                merge(*pending.popleft())
        while pending:
            merge(*pending.popleft())
        if ckpt is not None:
            ckpt.save(done=True)
        return _build_report(tally, options, time.perf_counter() - start)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if collecting:
            gc.enable()


def _build_report(
    tally: _Tally, options: SearchOptions, elapsed: float
) -> SearchReport:
    # One Hit per reported class, from its row of its order's table, listed
    # by function and then in Hit order, which is (graph6, j) order.
    allowed = _allowed_codes(options.targets, options.arity)
    tables: dict[int, list] = {}
    hits: dict[str, list[Hit]] = {}
    least = sorted(
        (allowed[code], graph6, j) for graph6, j, _, code in tally.least.values()
    )
    for (fn, bits), graph6, j in least:
        n = ord(graph6[0]) - 63
        if n not in tables:
            cfgs = enumerate_configs(n, options.arity, options.ordered_inputs)
            tables[n] = [(a0, th, tuple(ins)) for a0, th, *ins in
                         cfgs[:, : 2 + options.arity].tolist()]
        hits.setdefault(fn, []).append(Hit(graph6, *tables[n][j], fn, bits))
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
