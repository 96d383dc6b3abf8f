"""Census kernel: the per-graph configuration scan, vectorized with numpy.

``scan_configs`` applies the structural filter and the two ladget laws to
every role assignment of one graph against its materialized colorings.
"""

import numpy as np

BACKEND = "numpy"


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
    if C.shape[0] == 0:
        return res
    Ci = C.astype(np.int64)
    ntup = 3 if arity == 1 else 9
    ngrp = 2 if arity == 1 else 4
    for j in todo:
        a0, th, i1, i2 = cfgs[j]
        rows = Ci[Ci[:, a0] == 0]
        if rows.shape[0] == 0:
            continue
        if arity == 2:
            tup = rows[:, i1] * 3 + rows[:, i2]
            grp = (rows[:, i1] != 0) * 2 + (rows[:, i2] != 0)
        else:
            tup = rows[:, i1]
            grp = (rows[:, i1] != 0).astype(np.int64)
        if np.bincount(tup, minlength=ntup).min() == 0:
            continue
        outb = (rows[:, th] != 0).astype(np.int64)
        seen = np.zeros(ngrp, np.int64)
        np.bitwise_or.at(seen, grp, np.int64(1) << outb)
        if (seen == 3).any():
            continue
        res[j] = int(((seen == 2).astype(np.int64) << np.arange(ngrp)).sum())
    return res
