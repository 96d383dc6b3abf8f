"""Census kernel: the structural filter and the law scan, vectorized with numpy.

``scan_pass`` judges a pass of graphs of one order against their stacked
colorings: the pass's kept (graph, configuration) pairs, given as one
ascending array of g * configurations + j, a step of pairs per numpy pass.
The colorings may hold one row per orbit of the six color permutations,
as ``stacked_colorings`` gives them: a row's permutations that color a
pair's anchor 0 are the row shifted by the anchor's color and that with
colors 1 and 2 swapped, and only universality tells them apart.  Each
(pair, row) cell looks up one word by the row's role colors, and a pair's
verdict is read from the OR of its words.  Verdicts are int8, one per
pair: -2, -1 or a truth-table code below 16.  ``SCAN_CELLS`` bounds the
cells of one step, and so its memory.  The census masks a pass with
``_filter_mask_vec`` first and scans only the pairs it keeps;
``scan_configs`` is the one-graph call, filter included, on a one-row
stack, with one verdict per configuration; its ``deg`` argument is unused.

``_filter_mask_vec`` is the census's structural filter.  Each rule reads
the anchor and one other role, or the anchor and the inputs, so it judges
the rules once per graph on a small (anchor, output) table and a small
(anchor, input tuple) table, and each configuration gathers one int8 entry
of each; the mask is their equality.  ``filters._violations`` is its
readable reference.  It takes one shape, a (graphs, n) stack of bitmask
rows of one order, reads the degrees off its adjacency table and returns
the (graphs, configurations) mask as the transposed view of a
configuration-major comparison, which the census reads without a copy.
"""

from functools import lru_cache

import numpy as np

BACKEND = "numpy"

# Cells per step of a scan: one per (pair, coloring row) and one per pair.
# With the earlier one-graph scan, 1 << 16 made a 2-worker unfiltered
# order-8 census peak at about 16% more resident memory for no speed.
SCAN_CELLS = 1 << 14


def _filter_mask_vec(adj, cfgs, arity, minimal_mode):
    # The structural filter, True meaning keep: a (graphs, configurations)
    # mask for a stack of (graphs, n) bitmask rows of one order, returned
    # as the transpose of a configuration-major comparison, not copied.
    #
    # out[anchor * n + output] holds OUT_ANCHOR_ADJ and OUT_DEGREE, and
    # tup[anchor * n + i1], or tup[(anchor * n + i1) * n + i2] at arity 2,
    # holds ANCHOR_IN_ADJ, INPUT_DEGREE, IN_ADJ and TRIPLE_NEIGHBOR.  A
    # rejected entry is -1 in out and -2 in tup, so a configuration is kept
    # where its two entries are equal.
    #
    # TRIPLE_NEIGHBOR: a common neighbour of the anchor and both inputs is
    # neither the anchor nor an input, so of the roles it can only be the
    # output, and OUT_ANCHOR_ADJ rejects that case; in the conjunction the
    # rule is an empty common neighbourhood.  A mask per rule must keep the
    # output's exclusion.
    #
    # INTERNAL_DEGREE (minimal mode): tup counts the low-degree (< 3)
    # vertices other than the anchor and inputs, and out is 1 if the output
    # is one of them, else 0; both are 0 outside minimal mode.
    #
    # The tables keep graphs on the last axis, where numpy broadcasts fast,
    # and are built with arithmetic because np.where is several times
    # slower on int8.  Rows fit in 32 bits (n <= 32), which halves the
    # traffic of the common-neighbourhood test.
    rows = np.ascontiguousarray(adj.T, np.uint32)
    n, count = rows.shape
    a0, th, i1, i2 = cfgs.T
    # adjacent[u, v]: u and v are adjacent; apart[u, v]: they are not, and
    # v has degree at least 2.
    adjacent = ((rows[:, None] >> np.arange(n)[:, None]) & 1).astype(bool)
    deg = adjacent.sum(axis=1)
    apart = ~adjacent & (deg >= 2)
    low = ((deg < 3) & minimal_mode).astype(np.int8)
    out = ((low + 1) * apart - 1).reshape(n * n, count)
    # left[u]: the low-degree vertices other than u.
    left = low.sum(axis=0, dtype=np.int8) - low
    if arity == 1:
        ok = apart
        rest = left[:, None] - low
        at = a0 * n + i1
    else:
        ok = apart[:, :, None] & apart[:, None] & ~adjacent
        ok &= (rows[:, None, None] & rows[:, None] & rows) == 0
        rest = left[:, None, None] - low[:, None] - low
        at = (a0 * n + i1) * n + i2
    tup = ((rest + 2) * ok - 2).reshape(-1, count)
    return (out[a0 * n + th] == tup[at]).T


def scan_configs(C, adj, deg, cfgs, arity, use_filter, minimal_mode):
    """Verdict per configuration row of `cfgs` against the colorings `C`:
    any rows whose closure under the six color permutations is the graph's
    proper 3-colorings, as all_colorings' every row or stacked_colorings'
    one row per orbit.

    -1: rejected by the structural filter; -2: not a ladget (universality
    or consistency fails); otherwise the truth table code, with input
    pattern p = b1 * 2 + b2 indexing bit p.  `deg` is not read: the filter
    takes the degrees from `adj`.
    """
    keep = np.ones(len(cfgs), bool)
    if use_filter:
        keep = _filter_mask_vec(adj[None], cfgs, arity, minimal_mode)[0]
    res = np.full(len(cfgs), np.int8(-1))
    res[keep] = scan_pass(C, np.array([0, len(C)]), np.flatnonzero(keep), cfgs, arity)
    return res


@lru_cache(maxsize=2)
def _scan_tables(arity):
    # The words of (pair, coloring row) cells, and the verdicts of a pair's
    # OR of them; cached and write-protected.  words is indexed by the
    # row's colors of the anchor, the output and the inputs, read as one
    # base-3 number.  With the colors shifted so that the anchor is 0, bit t
    # marks input color tuple t and the tuple with colors 1 and 2 swapped,
    # and bit 3**arity + 2 * p + b marks Boolean input pattern p with output
    # value b.  verdict is indexed by the pattern bits: -2 where a pattern
    # has both output values, else the truth table code.
    a, o, *x = np.indices((3,) * (arity + 2)).reshape(arity + 2, -1)
    y = (np.array(x) - a) % 3
    digits = 3 ** np.arange(arity)[::-1]
    pattern = 2 ** np.arange(arity)[::-1] @ (y != 0)
    words = 1 << digits @ y | 1 << digits @ (-y % 3)
    words |= 1 << 3**arity + 2 * pattern + (o != a)
    seen = np.arange(1 << 2 ** (arity + 1))[:, None] >> 2 * np.arange(2**arity) & 3
    code = (seen >> 1) @ (1 << np.arange(2**arity))
    verdict = np.where((seen == 3).any(axis=1), -2, code).astype(np.int8)
    tables = words.astype(np.uint32), verdict
    for table in tables:
        table.setflags(write=False)
    return tables


def scan_pass(C, starts, pairs, cfgs, arity):
    """scan_configs' verdicts for a pass of graphs of one order: one int8
    per kept (graph, configuration) pair.

    Graph g's rows are C[starts[g]:starts[g + 1]], as scan_configs takes
    them, and cfgs is the (configurations, 4) role table.  pairs holds the
    kept pairs g * len(cfgs) + j, ascending.  They are judged in that
    order, a step at a time of at most SCAN_CELLS cells or one pair; a pair
    costs one cell per row of its graph plus one.  A graph without rows is
    not universal: its pairs are -2 and are not scanned.
    """
    height = np.diff(starts)
    q = len(cfgs)
    n = C.shape[1]
    flat = C.reshape(-1)
    full = (1 << 3**arity) - 1
    words, verdict = _scan_tables(arity)
    # Graph g's pairs are pairs[bounds[g]:bounds[g + 1]]; kept[g] of them
    # are scanned, none if it has no rows, cost[g] cells each.  Counted over
    # the scanned pairs only, graph g's are pair pstart[g] on and cell
    # cstart[g] on; scanned holds their positions in pairs, and done and
    # spent count the scanned pairs and cells of the steps so far.
    bounds = pairs.searchsorted(np.arange(len(height) + 1) * q)
    kept = np.diff(bounds) * (height > 0)
    cost = height + 1
    pstart = kept.cumsum() - kept
    cend = (kept * cost).cumsum()
    cstart = cend - kept * cost
    res = np.full(len(pairs), np.int8(-2))
    scanned = np.flatnonzero(np.repeat(height > 0, np.diff(bounds)))
    done = spent = 0
    while done < len(scanned):
        limit = spent + SCAN_CELLS
        g = cend.searchsorted(limit, "right")
        end = len(scanned)
        if g < len(kept):
            end = max(done + 1, pstart[g] + (limit - cstart[g]) // cost[g])
            spent = cstart[g] + (end - pstart[g]) * cost[g]
        at = scanned[done:end]
        owner, j = np.divmod(pairs[at], q)
        # Per cell: the flat offset of its coloring row, then the row's
        # colors of the pair's anchor, output and inputs, gathered in uint8
        # and read as one base-3 number, the index of its word.
        rows = height[owner]
        ends = rows.cumsum()
        first = ends - rows
        row = (np.arange(ends[-1]) + (starts[owner] - first).repeat(rows)) * n
        cell = 0
        for role in cfgs[j, : 2 + arity].T:
            cell = cell * 3 + flat[row + role.repeat(rows)]
        seen = np.bitwise_or.reduceat(words[cell], first)
        res[at] = np.where(seen & full == full, verdict[seen >> 3**arity], -2)
        done = end
    return res
