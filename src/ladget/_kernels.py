"""Census kernel: the per-graph configuration scan, vectorized with numpy.

``scan_configs`` applies the structural filter and the two ladget laws to
every role assignment of one graph against its materialized colorings.  It
decides a block of configurations per numpy pass: the role colors of every
(coloring row, configuration) cell, then one ``bincount`` over
(configuration, input color tuple) for universality and one over
(configuration, Boolean input pattern, output != 0) for consistency and the
truth table.  ``SCAN_CELLS`` bounds the cells of one pass, and so its memory.
"""

import numpy as np

BACKEND = "numpy"

# Coloring rows x configurations per pass.  At 1 << 16 a 2-worker unfiltered
# order-8 census peaked at about 16% more resident memory for no speed.
SCAN_CELLS = 1 << 14


def _filter_mask_vec(adj, deg, cfgs, arity, minimal_mode):
    # Vectorized structural filter: True means keep.
    a0 = cfgs[:, 0]
    th = cfgs[:, 1]
    i1 = cfgs[:, 2]
    i2 = cfgs[:, 3]
    keep = ((adj[a0] >> i1) & 1) == 0
    keep &= ((adj[a0] >> th) & 1) == 0
    keep &= deg[th] >= 2
    keep &= deg[i1] >= 2
    if arity == 2:
        keep &= ((adj[i1] >> i2) & 1) == 0
        keep &= ((adj[a0] >> i2) & 1) == 0
        common = adj[a0] & adj[i1] & adj[i2]
        keep &= (common & ~(np.int64(1) << th)) == 0
        keep &= deg[i2] >= 2
    if minimal_mode:
        lowdeg = np.int64(0)
        for v in range(adj.shape[0]):
            if deg[v] < 3:
                lowdeg |= np.int64(1) << v
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
    q = cfgs.shape[0]
    res = np.full(q, -2, np.int64)
    if use_filter:
        keep = _filter_mask_vec(adj, deg, cfgs, arity, minimal_mode)
        res[~keep] = -1
        todo = np.nonzero(keep)[0]
    else:
        todo = np.arange(q)
    ntup = 3**arity
    ngrp = 2**arity
    step = max(1, SCAN_CELLS // max(1, C.shape[0]))
    for lo in range(0, len(todo), step):
        j = todo[lo : lo + step]
        a0, th, i1, i2 = cfgs[j].T
        # rows x configurations: role colors, and the column of each cell
        live = C[:, a0] == 0
        col = live.nonzero()[1]
        x1 = C[:, i1][live]
        tup, grp = x1, x1 != 0
        if arity == 2:
            x2 = C[:, i2][live]
            tup, grp = x1 * 3 + x2, grp * 2 + (x2 != 0)
        covered = np.bincount(col * ntup + tup, minlength=len(j) * ntup)
        universal = covered.reshape(-1, ntup).all(axis=1)
        out = C[:, th][live] != 0
        seen = np.bincount(
            (col * ngrp + grp) * 2 + out, minlength=len(j) * ngrp * 2
        ).reshape(-1, ngrp, 2) > 0
        consistent = ~(seen[:, :, 0] & seen[:, :, 1]).any(axis=1)
        code = seen[:, :, 1] @ (1 << np.arange(ngrp))
        res[j] = np.where(universal & consistent, code, -2)
    return res
