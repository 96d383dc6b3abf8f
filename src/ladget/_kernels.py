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
"""

import numpy as np

BACKEND = "numpy"

# (pair, coloring row) cells per step of a scan.  With the earlier
# one-graph scan, 1 << 16 made a 2-worker unfiltered order-8 census peak at
# about 16% more resident memory for no speed.
SCAN_CELLS = 1 << 14


def _filter_mask_vec(adj, deg, cfgs, arity, minimal_mode):
    # Vectorized structural filter: True means keep.  adj and deg are one
    # graph's (n,) arrays, giving a (configurations,) mask, or a stack of
    # (graphs, n) arrays of one order, giving a (graphs, configurations)
    # mask.
    a0 = cfgs[:, 0]
    th = cfgs[:, 1]
    i1 = cfgs[:, 2]
    i2 = cfgs[:, 3]
    nb = adj[..., a0]
    keep = ((nb >> i1) & 1) == 0
    keep &= ((nb >> th) & 1) == 0
    keep &= deg[..., th] >= 2
    keep &= deg[..., i1] >= 2
    if arity == 2:
        keep &= ((adj[..., i1] >> i2) & 1) == 0
        keep &= ((nb >> i2) & 1) == 0
        common = nb & adj[..., i1] & adj[..., i2]
        keep &= (common & ~(np.int64(1) << th)) == 0
        keep &= deg[..., i2] >= 2
    if minimal_mode:
        lowdeg = np.bitwise_or.reduce(
            (deg < 3).astype(np.int64) << np.arange(deg.shape[-1]),
            axis=-1,
            keepdims=True,
        )
        rolemask = (
            (np.int64(1) << a0) | (np.int64(1) << th) | (np.int64(1) << i1)
        )
        if arity == 2:
            rolemask |= np.int64(1) << i2
        keep &= (lowdeg & ~rolemask) == 0
    return keep


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
