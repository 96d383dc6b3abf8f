"""Census kernel: the structural filter and the law scan, vectorized with numpy.

``scan_pass`` judges a pass of graphs of one order against their stacked
colorings: every kept (graph, configuration) pair, a step of pairs per
numpy pass.  A step gathers the role colors of each pair's coloring rows
that color its anchor 0, then runs one ``bincount`` over (pair, input color
tuple) for universality and one over (pair, Boolean input pattern, output
!= 0) for consistency and the truth table.  ``SCAN_CELLS`` bounds the
(pair, coloring row) cells of one step, and so its memory.  The census
masks a pass with ``_filter_mask_vec`` first and scans only the pairs it
keeps; ``scan_configs`` is the one-graph call, filter included.

``_filter_mask_vec`` is the census's structural filter.  Each rule reads
the anchor and one other role, or the anchor and the inputs, so it judges
the rules once per graph on a small (anchor, output) table and a small
(anchor, input tuple) table, and each configuration gathers one int8 entry
of each; the mask is their equality.  ``filters._violations`` is its
readable reference.
"""

import numpy as np

BACKEND = "numpy"

# (pair, coloring row) cells per step of a scan.  With the earlier
# one-graph scan, 1 << 16 made a 2-worker unfiltered order-8 census peak at
# about 16% more resident memory for no speed.
SCAN_CELLS = 1 << 14


def _filter_mask_vec(adj, deg, cfgs, arity, minimal_mode):
    # The structural filter, True meaning keep: a (configurations,) mask for
    # one graph's (n,) bitmask rows and degrees, or a (graphs,
    # configurations) mask for a stack of (graphs, n) rows of one order.
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
    rows = np.ascontiguousarray(adj.reshape(-1, adj.shape[-1]).T, np.uint32)
    n, count = rows.shape
    deg = np.ascontiguousarray(deg.reshape(count, n).T)
    a0, th, i1, i2 = cfgs.T
    # adjacent[u, v]: u and v are adjacent; apart[u, v]: they are not, and
    # v has degree at least 2.
    adjacent = ((rows[:, None] >> np.arange(n)[:, None]) & 1).astype(bool)
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
    keep = out[a0 * n + th] == tup[at]
    return keep[:, 0] if adj.ndim == 1 else np.ascontiguousarray(keep.T)


def scan_configs(C, adj, deg, cfgs, arity, use_filter, minimal_mode):
    """Verdict per configuration row of `cfgs` against the colorings `C`.

    -1: rejected by the structural filter; -2: not a ladget (universality
    or consistency fails); otherwise the truth table code, with input
    pattern p = b1 * 2 + b2 indexing bit p.
    """
    if use_filter:
        keep = _filter_mask_vec(adj, deg, cfgs, arity, minimal_mode)
    else:
        keep = np.ones(len(cfgs), bool)
    return scan_pass(C, np.array([0, len(C)]), keep[None], cfgs, arity)[0]


def scan_pass(C, starts, keep, cfgs, arity):
    """scan_configs' verdicts for a pass of graphs of one order: a
    (graphs, configurations) matrix, -1 where the mask `keep` is False.

    C holds every graph's colorings, graph g's being C[starts[g]:starts[g +
    1]], and cfgs is the (configurations, 4) role table.  The kept (graph,
    configuration) pairs are judged in row-major order, a step at a time of
    at most SCAN_CELLS (pair, coloring row) cells or one pair.
    """
    # A graph without colorings is not universal: its kept pairs are -2.
    height = np.diff(starts)
    res = np.where(keep, -2, -1)
    keep = keep & (height > 0)[:, None]
    pairs = np.flatnonzero(keep)
    q = keep.shape[1]
    total, n = C.shape
    flat = C.reshape(-1)
    ntup = 3**arity
    ngrp = 2**arity
    # A pair reads only its graph's rows that color the anchor 0.  zero
    # lists the flat offsets in C of the rows coloring v 0, by vertex v and
    # then in stack order; graph g's for v are the span[v, g] entries from
    # zero[at[v, g]] on.
    hot = np.flatnonzero(C.T == 0)
    zero = hot % total * n
    at = np.searchsorted(hot, np.arange(n)[:, None] * total + starts)
    span = np.diff(at)
    # Graph g holds pairs pstart[g] .. pend[g] - 1 of height[g] cells each,
    # cells cstart[g] onwards.
    kept = keep.sum(axis=1)
    cells = kept * height
    pend = kept.cumsum()
    pstart = pend - kept
    cend = cells.cumsum()
    cstart = cend - cells
    lo = 0
    while lo < len(pairs):
        g = pend.searchsorted(lo, "right")
        limit = cstart[g] + (lo - pstart[g]) * height[g] + SCAN_CELLS
        g = cend.searchsorted(limit, "right")
        hi = len(pairs)
        if g < len(kept):
            hi = max(lo + 1, pstart[g] + (limit - cstart[g]) // height[g])
        step = pairs[lo:hi]
        owner, j = np.divmod(step, q)
        a0, th, i1, i2 = cfgs[j].T
        # Per live cell: its pair, and the flat offset of its coloring row;
        # then the role colors, gathered in uint8.
        first = at[a0, owner]
        rows = span[a0, owner]
        ends = rows.cumsum()
        row = zero[np.arange(ends[-1]) + (first - ends + rows).repeat(rows)]
        pair = np.arange(len(step)).repeat(rows)
        x1 = flat[row + i1.repeat(rows)]
        tup, grp = x1, x1 != 0
        if arity == 2:
            x2 = flat[row + i2.repeat(rows)]
            tup, grp = x1 * 3 + x2, grp * 2 + (x2 != 0)
        covered = np.bincount(pair * ntup + tup, minlength=len(step) * ntup)
        universal = covered.reshape(-1, ntup).all(axis=1)
        out = flat[row + th.repeat(rows)] != 0
        seen = np.bincount(
            (pair * ngrp + grp) * 2 + out, minlength=len(step) * ngrp * 2
        ).reshape(-1, ngrp, 2) > 0
        consistent = ~(seen[:, :, 0] & seen[:, :, 1]).any(axis=1)
        code = seen[:, :, 1] @ (1 << np.arange(ngrp))
        res.reshape(-1)[step] = np.where(universal & consistent, code, -2)
        lo = hi
    return res
