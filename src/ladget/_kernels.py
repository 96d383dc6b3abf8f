"""Census kernel: the structural filter and the law scan, vectorized with numpy.

A pass is a stack of graphs of one order, and its unit is the role tuple:
an (anchor, inputs) row of ``tuple_table``, with its outputs as one
bitmask.  ``filter_tuples`` gives each (tuple, graph) the bitmask of the
outputs the structural filter keeps, ``output_masks`` packs any
per-configuration flags the same way (every role-free output of an
unfiltered pass, or a sample's draws), and ``scan_pass`` judges the kept
outputs against the graphs' stacked colorings and returns their ladgets.

Both laws put the anchor at color 0, where a role reads false exactly when
it has the anchor's color, so a verdict depends only on which "same color
as the anchor" patterns of its roles occur among the colorings.  The scan
builds, once per pass, one bitset over each graph's coloring rows per
vertex pair: E[g, u, v] has bit r set where row r gives u and v one color,
and E[g, v, v], call it full, marks all of the graph's rows.  A tuple
gathers A = E[a, i1], F = E[a, a], B = E[a, i2] and S = E[i1, i2], and
complements are taken within F.  Its input patterns p = b1 * 2 + b2 hold
the rows P0 = A & B, P1 = A & ~B, P2 = ~A & B and P3 = ~A & ~B, or P0 = A
and P1 = ~A at arity 1.  Universality depends on the tuple alone: it holds
when P0, P1, P2, P3 & S and P3 & ~S are all non-empty (P0 and P1 at arity
1), since the anchor-0 colorings are closed under swapping colors 1 and 2,
and these are exactly the swap classes of their input color tuples.  So
each (tuple, graph) with a kept output is judged once, and only the kept
outputs of universal ones gather O = E[a, o] and are judged against their
tuple's patterns: a configuration is consistent when no P_p meets both O
and ~O, and bit p of its truth-table code is "P_p meets ~O".  At order 8
an arity-2 tuple has 5 outputs and an arity-1 tuple 6, and few tuples are
universal.  A coloring's permutations all give the same patterns, so the
rows may be any whose closure under the six color permutations is the
graph's colorings, as ``stacked_colorings`` gives one per orbit.
``SCAN_CELLS`` bounds the mask words a step of either phase holds, and so
its memory.

Each structural rule reads the anchor and one other role, or the anchor
and the inputs, so ``filter_tuples`` judges the (anchor, output) rules as
one bitmask per anchor and graph, of the outputs apart from the anchor,
and the (anchor, inputs) rules once per (tuple, graph).
``filters._violations`` is its readable reference, which the tests
compare through ``_filter_mask_vec``, its per-configuration expansion.
Set bits are counted with ``np.bitwise_count``, numpy 2.0's popcount: the
filter's degrees from the rows, and the census's kept configurations from
the output bitmasks.
``scan_configs`` is the one-graph view of both phases, with one verdict
per configuration; its ``deg`` argument is unused.
"""

import numpy as np

# Cells per step of a scan: one per word of each mask a step holds for a
# tuple or an output.  With the earlier one-graph scan, 1 << 16 made a
# 2-worker unfiltered order-8 census peak at about 16% more resident memory
# for no speed.
SCAN_CELLS = 1 << 14

def _mask_type(n):
    # The smallest unsigned type of n bits, one per vertex.
    return np.min_scalar_type((1 << n) - 1)


def tuple_table(cfgs, n):
    """The role tuples of a (configurations, 4) table of n-vertex
    configurations, as (tuples, index).

    tuples holds each distinct (anchor, i1, i2) of cfgs once, ascending,
    with i2 = -1 at arity 1; index[t, o] is the row j of cfgs that gives
    tuple t the output o, or -1 where there is none.
    """
    a, o, i1, i2 = cfgs.T
    keys, inv = np.unique((a * n + i1) * (n + 1) + i2 + 1, return_inverse=True)
    ai, i2 = np.divmod(keys, n + 1)
    tuples = np.stack((ai // n, ai % n, i2 - 1), axis=1)
    index = np.full((len(keys), n), -1)
    index[inv.reshape(-1), o] = np.arange(len(cfgs))
    return tuples, index


def output_masks(index, flags=None):
    """(tuples, rows) output bitmasks: bit o of [t, r] is flags[r, j] for
    j = index[t, o], and clear where index[t, o] is -1.  flags is a
    (rows, configurations) bool table, by default one row of every output."""
    n = index.shape[1]
    if flags is None:
        flags = np.ones((1, index.max(initial=-1) + 1), bool)
    padded = np.zeros((len(flags), flags.shape[1] + 1), bool)
    padded[:, :-1] = flags
    bit = (1 << np.arange(n)).astype(_mask_type(n))
    return (padded[:, index] * bit).sum(axis=2, dtype=bit.dtype).T.copy()


def filter_tuples(adj, tuples, index, arity, minimal_mode):
    """The structural filter of a (graphs, n) stack of bitmask rows of one
    order: a (tuples, graphs) table of the bitmasks of the outputs it keeps
    among each tuple's outputs in index.

    OUT_ANCHOR_ADJ and OUT_DEGREE keep the outputs apart from the anchor,
    not adjacent to it and of degree at least 2; ANCHOR_IN_ADJ,
    INPUT_DEGREE, IN_ADJ and TRIPLE_NEIGHBOR keep or drop the whole tuple.
    TRIPLE_NEIGHBOR: a common neighbour of the anchor and both inputs is
    neither the anchor nor an input, so of the roles it can only be the
    output, and OUT_ANCHOR_ADJ rejects that case; in the conjunction the
    rule is an empty common neighbourhood.  A mask per rule must keep the
    output's exclusion.  INTERNAL_DEGREE (minimal mode): a tuple with no
    low-degree (< 3) vertex outside its anchor and inputs keeps its outputs,
    one with exactly one keeps only that vertex, and any other none.
    """
    count, n = adj.shape
    rows = np.ascontiguousarray(adj.T, _mask_type(n))
    bit = (1 << np.arange(n)).astype(rows.dtype)
    deg = np.bitwise_count(rows)
    a, i1, i2 = tuples.T
    # apart[u]: the vertices not adjacent to u, of degree at least 2.
    apart = ~rows & ((deg >= 2) * bit[:, None]).sum(axis=0, dtype=rows.dtype)
    keep = apart[a]
    ins = bit[i1] | bit[i2] if arity == 2 else bit[i1]
    # drop: nonzero where an input is outside apart[a] and, at arity 2,
    # where i1 is adjacent to i2 or to a common neighbour of a and i2.  The
    # (tuples, graphs) tables are folded in place and freed once read, so a
    # pass holds few of them at once.
    drop = ~keep
    drop &= ins[:, None]
    if arity == 2:
        near = rows[a]
        near &= rows[i2]
        near |= bit[i2][:, None]
        near &= rows[i1]
        drop |= near
        del near
    keep *= drop == 0
    del drop
    if minimal_mode:
        low = deg < 3
        lows = (low * bit[:, None]).sum(axis=0, dtype=rows.dtype)
        low = low.view(np.int8)
        left = low.sum(axis=0, dtype=np.int8) - low[a] - low[i1]
        if arity == 2:
            left -= low[i2]
        keep &= lows | (left == 0) * ~rows.dtype.type(0)
        keep *= left <= 1
    keep &= output_masks(index)
    return keep


def _expand(keep, index):
    # A (tuples, graphs) output table as a (graphs, configurations) bool
    # mask, one column per row of the table index came from.
    t, o = np.nonzero(index >= 0)
    mask = np.zeros((keep.shape[1], index.max(initial=-1) + 1), bool)
    mask[:, index[t, o]] = (keep[t] >> o[:, None].astype(keep.dtype) & 1).T
    return mask


def _filter_mask_vec(adj, cfgs, arity, minimal_mode):
    # filter_tuples' verdicts per configuration: a (graphs, configurations)
    # mask for a stack of (graphs, n) bitmask rows of one order.
    tuples, index = tuple_table(cfgs, adj.shape[1])
    return _expand(filter_tuples(adj, tuples, index, arity, minimal_mode), index)


def scan_configs(C, adj, deg, cfgs, arity, use_filter, minimal_mode):
    """Verdict per configuration row of `cfgs` against the colorings `C`:
    any rows whose closure under the six color permutations is the graph's
    proper 3-colorings, as all_colorings' every row or stacked_colorings'
    one row per orbit.

    -1: rejected by the structural filter; -2: not a ladget, because a
    swap class of input color tuples has no row (universality) or the rows
    of an input pattern give the output both values (consistency);
    otherwise the truth table code, whose bit p = b1 * 2 + b2 is set where
    the rows of pattern p give the output a color other than the anchor's.
    A role reads false where it has the anchor's color.  `deg` is not read:
    the filter takes the degrees from `adj`.
    """
    tuples, index = tuple_table(cfgs, len(adj))
    if use_filter:
        keep = filter_tuples(adj[None], tuples, index, arity, minimal_mode)
    else:
        keep = output_masks(index)
    res = np.where(_expand(keep, index)[0], np.int8(-2), np.int8(-1))
    j, codes = scan_pass(C, np.array([0, len(C)]), keep, tuples, index, arity)
    res[j] = codes
    return res


def _row_masks(C, height):
    # The same-color masks of a pass, (W, n * n * graphs) uint64: bit r of
    # word w at (u * n + v) * graphs + g is set where row 64 * w + r of
    # graph g gives u and v one color, so where u = v it marks all of graph
    # g's rows.  C holds the graphs' rows in order, height[g] each.  The
    # colors are laid out vertex-major, each graph padded with zeros to
    # W * 64 slots, and packed flat twice: where they are not 0 and, once
    # halved in place, where they are 2.  Two vertices differ in color where
    # either mask does, and never in the padding.
    count, n = len(height), C.shape[1]
    slots = -(-height.max() // 64) * 64
    held = np.arange(slots) < height[:, None]
    pad = np.zeros((n, count * slots), np.uint8)
    pad[:, np.flatnonzero(held)] = C.T
    some = np.packbits(pad, bitorder="little")
    pad >>= 1
    two = np.packbits(pad, bitorder="little")
    del pad
    some, two = (
        bits.view(np.uint64).reshape(n, count, -1).transpose(2, 0, 1)
        for bits in (some, two)
    )
    E = some[:, :, None] ^ some[:, None]
    E |= two[:, :, None] ^ two[:, None]
    # Flipped within each graph's rows, the differences become the masks.
    full = np.packbits(held, bitorder="little").view(np.uint64).reshape(count, -1)
    E ^= full.T[:, None, None]
    return E.reshape(len(E), -1)


def _patterns(X, arity):
    # The input patterns of a step of tuples from their gathered masks, A,
    # F, B and S at arity 2, A and F at arity 1: P[:, p] holds the rows of
    # pattern p = b1 * 2 + b2, complements taken within F.  Returns P and
    # each tuple's universality: every swap class of input color tuples has
    # a row, P3 split by S.
    if arity == 1:
        A, F = X[:, 0], X[:, 1]
        P = np.stack((A, A ^ F), axis=1)
        return P, P.any(axis=0).all(axis=0)
    A, F, B, S = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    P0 = A & B
    P = np.stack((P0, A ^ P0, B ^ P0, F ^ (A | B)), axis=1)
    P3S = P[:, 3] & S
    universal = P.any(axis=0).all(axis=0) & P3S.any(axis=0)
    return P, universal & (P3S != P[:, 3]).any(axis=0)


def _judge(P, O):
    # Verdicts of a step of outputs of universal tuples from their tuples'
    # patterns P and their gathered O, outputs on the last axis: -2 where
    # the rows of an input pattern give the output both values, else the
    # truth-table code.  The rows of P[:, p] in O give the output false, the
    # others true.
    PO = P & O[:, None]
    out_false, out_true = PO.any(axis=0), (PO != P).any(axis=0)
    bit = np.arange(P.shape[1], dtype=np.int8)[:, None]
    code = np.bitwise_or.reduce(out_true << bit)
    return np.where((out_false & out_true).any(axis=0), np.int8(-2), code)


def scan_pass(C, starts, keep, tuples, index, arity):
    """The ladgets of a pass of graphs of one order, as (pairs, codes): the
    ascending g * configurations + j of each kept configuration that is a
    ladget, and its int8 truth-table code, as scan_configs gives it.

    Graph g's rows are C[starts[g]:starts[g + 1]], as scan_configs takes
    them.  keep is the (tuples, graphs) table of kept outputs over
    tuple_table's (tuples, index): configuration j = index[t, o] of graph g
    is kept where bit o of keep[t, g] is set.  The same-color masks of the
    graphs with rows are built once, W = ceil(tallest graph's rows / 64)
    uint64 words each.  The (tuple, graph) entries with a kept output are
    judged for universality tuple by tuple, graphs ascending, a step at a
    time of as many as SCAN_CELLS allows, or one; an entry costs one cell
    per word of the four masks it gathers, two at arity 1.  The kept
    outputs of a step's universal entries, outputs ascending within an
    entry, follow in steps of the same budget, each holding as many as it
    allows or one; an output costs one cell per word of its entry's four
    input patterns, two at arity 1, and of its O.  A graph without rows is
    not universal, and its entries are not judged.
    """
    q = index.max(initial=-1) + 1
    height = starts[1:] - starts[:-1]
    live = np.flatnonzero(height)
    width = len(live)
    kept = keep[:, live]
    entries = np.flatnonzero(kept != 0)
    pairs, codes = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    if len(entries):
        E = _row_masks(C[starts[0] : starts[-1]], height[live])
        n = C.shape[1]
        a, i1, i2 = tuples.T
        # uv[:, t] + s: the masks of tuple t in slot s, the s-th graph with
        # rows: A, F, B and S at arity 2, A and F at arity 1.
        uv = np.stack((a * n + i1, a * n + a, a * n + i2, i1 * n + i2)[: 2 * arity])
        uv *= width
        # An entry's outputs as the set bits of its row of a grid of
        # `wide` columns, a power of two.
        outputs = kept.ravel()
        wide = outputs.itemsize * 8
        bit = (1 << np.arange(wide, dtype=np.uint64)).astype(outputs.dtype)
        step = max(1, SCAN_CELLS // (2 * arity * len(E)))
        out_step = max(1, SCAN_CELLS // ((2**arity + 1) * len(E)))
        for lo in range(0, len(entries), step):
            at = entries[lo : lo + step]
            t, s = np.divmod(at, width)
            P, universal = _patterns(E.take(uv[:, t] + s, axis=1), arity)
            u = np.flatnonzero(universal)
            if not len(u):
                continue
            P, t, s = P.take(u, axis=2), t[u], s[u]
            f = np.flatnonzero(outputs[at[u], None] & bit != 0)
            r, o = np.divmod(f, wide)
            ats = (a[t] * n * width + s).take(r) + o * width
            for first in range(0, len(r), out_step):
                part = slice(first, first + out_step)
                verdicts = _judge(P.take(r[part], axis=2), E.take(ats[part], axis=1))
                hit = np.flatnonzero(verdicts >= 0)
                r_hit, o_hit = r[part][hit], o[part][hit]
                pairs.append(live[s[r_hit]] * q + index.take(t[r_hit] * n + o_hit))
                codes.append(verdicts[hit])
    # Codes are below 16, so one sort of pair * 16 + code orders both.
    key = np.sort(np.concatenate(pairs) << 4 | np.concatenate(codes))
    return key >> 4, (key & 15).astype(np.int8)
