"""Census kernel: the structural filter and the law scan, vectorized with numpy.

``scan_pass`` judges a pass of graphs of one order against their stacked
colorings: the pass's kept (graph, configuration) pairs, given as one
ascending array of g * configurations + j, a step of pairs at a time.
Both laws put the anchor at color 0, where a role reads false exactly when
it has the anchor's color, so a pair's verdict depends only on which "same
color as the anchor" patterns of its roles occur among the colorings.  The
scan builds, once per pass, one bitset over each graph's coloring rows per
vertex pair: E[g, u, v] has bit r set where row r gives u and v one color,
and E[g, v, v], call it full, marks all of the graph's rows.  A pair
gathers A = E[a, i1], B = E[a, i2], S = E[i1, i2] and O = E[a, o], and
complements are taken within full.  Its input patterns p = b1 * 2 + b2 hold
the rows P0 = A & B, P1 = A & ~B, P2 = ~A & B and P3 = ~A & ~B, or P0 = A
and P1 = ~A at arity 1.  It is universal when P0, P1, P2, P3 & S and
P3 & ~S are all non-empty (P0 and P1 at arity 1): the anchor-0 colorings
are closed under swapping colors 1 and 2, and these are exactly the swap
classes of their input color tuples.  It is consistent when no P_p meets
both O and ~O, and bit p of its truth-table code is "P_p meets ~O".  A
coloring's permutations all give the same patterns, so the rows may be any
whose closure under the six color permutations is the graph's colorings,
as ``stacked_colorings`` gives one per orbit.  Verdicts are int8, one per
pair: -2, -1 or a truth-table code below 16.  ``SCAN_CELLS`` bounds the
mask words a step gathers, and so its memory.  The census masks a pass
with ``_filter_mask_vec`` first and scans only the pairs it keeps;
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

import numpy as np

BACKEND = "numpy"

# Cells per step of a scan: one per word of each mask a pair gathers.
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
    # rejected entry is 1 in out and 0 in tup, a kept one at least 2, so a
    # configuration is kept where its two entries are equal.
    #
    # TRIPLE_NEIGHBOR: a common neighbour of the anchor and both inputs is
    # neither the anchor nor an input, so of the roles it can only be the
    # output, and OUT_ANCHOR_ADJ rejects that case; in the conjunction the
    # rule is an empty common neighbourhood.  A mask per rule must keep the
    # output's exclusion.
    #
    # INTERNAL_DEGREE (minimal mode): tup is 2 plus the low-degree (< 3)
    # vertices other than the anchor and inputs, and out is 3 if the output
    # is one of them, else 2; both are 2 outside minimal mode.
    #
    # The tables keep graphs on the last axis, where numpy broadcasts fast,
    # and are built in place with arithmetic, as np.where is several times
    # slower on int8.  Rows take the smallest unsigned type of n bits, which
    # cuts the traffic of the common-neighbourhood test.
    count, n = adj.shape
    rows = np.ascontiguousarray(adj.T, np.min_scalar_type((1 << n) - 1))
    a0, th, i1, i2 = cfgs.T
    # adjacent[u, v]: u and v are adjacent; apart[u, v]: they are not, and
    # v has degree at least 2.
    adjacent = (rows[:, None] >> np.arange(n, dtype=rows.dtype)[:, None] & 1) == 1
    deg = adjacent.sum(axis=1, dtype=np.int8)
    apart = ~adjacent & (deg >= 2)
    low = ((deg < 3) & minimal_mode).astype(np.int8)
    out = ((low + 1) * apart + 1).reshape(n * n, count)
    # left[u]: 2 plus the low-degree vertices other than u.
    left = low.sum(axis=0, dtype=np.int8) + 2 - low
    if arity == 1:
        ok = apart
        tup = left[:, None] - low
        at = a0 * n + i1
    else:
        ok = apart[:, :, None] & apart[:, None]
        ok &= ~adjacent
        ok &= (rows[:, None, None] & rows[:, None] & rows) == 0
        tup = left[:, None, None] - low[:, None] - low
        at = (a0 * n + i1) * n + i2
    tup *= ok
    keep = out.take(a0 * n + th, axis=0)
    return np.equal(keep, tup.reshape(-1, count)[at], out=keep.view(bool)).T


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
    keep = np.ones(len(cfgs), bool)
    if use_filter:
        keep = _filter_mask_vec(adj[None], cfgs, arity, minimal_mode)[0]
    res = np.full(len(cfgs), np.int8(-1))
    res[keep] = scan_pass(C, np.array([0, len(C)]), np.flatnonzero(keep), cfgs, arity)
    return res


def _row_masks(C, height):
    # The same-color masks of a pass, (W, n * n * graphs) uint64: bit r of
    # word w at (u * n + v) * graphs + g is set where row 64 * w + r of
    # graph g gives u and v one color, so where u = v it marks all of graph
    # g's rows.  C holds the graphs' rows in order, height[g] each.  The
    # colors are laid out vertex-major, each graph padded with zeros to
    # W * 64 slots, and packed flat twice: where they are not 0 and where
    # they are 2.  Two vertices differ in color where either mask does, and
    # never in the padding.
    count, n = len(height), C.shape[1]
    slots = -(-height.max() // 64) * 64
    held = np.arange(slots) < height[:, None]
    pad = np.zeros((n, count * slots), np.uint8)
    pad[:, np.flatnonzero(held)] = C.T
    some, two = (
        np.packbits(colors, bitorder="little").view(np.uint64)
        .reshape(n, count, -1).transpose(2, 0, 1)
        for colors in (pad, pad >> 1)
    )
    E = some[:, :, None] ^ some[:, None]
    E |= two[:, :, None] ^ two[:, None]
    # Flipped within each graph's rows, the differences become the masks.
    full = np.packbits(held, bitorder="little").view(np.uint64).reshape(count, -1)
    E ^= full.T[:, None, None]
    return E.reshape(len(E), -1)


def _judge(X, arity):
    # Verdicts of a step of pairs from their (W, masks, pairs) gathered
    # same-color masks: A, B, O, S and the graph's rows F at arity 2, A, O
    # and F at arity 1.  P[:, p] holds the rows of input pattern
    # p = b1 * 2 + b2, complements taken within F; the rows of P[:, p] in O
    # give the output false, the others true.
    any_, all_ = np.logical_or.reduce, np.logical_and.reduce
    if arity == 2:
        A, B, O, S, F = X.transpose(1, 0, 2)
        P0 = A & B
        P = np.stack((P0, A ^ P0, B ^ P0, F ^ (A | B)), axis=1)
    else:
        A, O, F = X.transpose(1, 0, 2)
        P = np.stack((A, A ^ F), axis=1)
    PO = P & O[:, None]
    out_false, out_true = any_(PO, axis=0), any_(PO != P, axis=0)
    valid = all_(out_false != out_true, axis=0)
    if arity == 2:
        P3S = P[:, 3] & S
        valid &= any_(P3S, axis=0) & any_(P3S != P[:, 3], axis=0)
    bit = np.arange(2**arity, dtype=np.int8)[:, None]
    return np.where(valid, np.bitwise_or.reduce(out_true << bit), np.int8(-2))


def scan_pass(C, starts, pairs, cfgs, arity):
    """scan_configs' verdicts for a pass of graphs of one order: one int8
    per kept (graph, configuration) pair.

    Graph g's rows are C[starts[g]:starts[g + 1]], as scan_configs takes
    them, and cfgs is the (configurations, 4) role table.  pairs holds the
    kept pairs g * len(cfgs) + j, ascending.  The same-color masks of the
    graphs with rows are built once, W = ceil(tallest graph's rows / 64)
    uint64 words each.  The pairs are then judged in order, a step at a
    time of as many pairs as SCAN_CELLS allows, or one; a pair costs one
    cell per word of the five masks it gathers, three at arity 1.  A graph
    without rows is not universal: its pairs are -2 and are not scanned.
    """
    height = starts[1:] - starts[:-1]
    live = height > 0
    q, n = len(cfgs), C.shape[1]
    res = np.full(len(pairs), np.int8(-2))
    if not len(pairs) or not live.any():
        return res
    E = _row_masks(C[starts[0] : starts[-1]], height[live])
    # Slot i, the i-th graph with rows, holds the scanned pairs lb[i] to
    # lb[i + 1], found shift[i] further on in pairs.
    bounds = pairs.searchsorted(np.arange(len(starts)) * q)
    lb = np.concatenate(([0], np.diff(bounds)[live].cumsum()))
    shift = bounds[:-1][live] - lb[:-1]
    slots = np.arange(len(shift))
    # offs[:, j] + i: the masks of configuration j in slot i, for the role pairs
    # (u, v) in _judge's order: A, B, O, S, F at arity 2, A, O, F at arity 1.
    u, v = ([0, 0, 0, 2, 0], [2, 3, 1, 3, 0]) if arity == 2 else ([0, 0, 0], [2, 1, 0])
    offs = ((cfgs[:, u] * n + cfgs[:, v]) * len(slots)).T.copy()
    step = max(1, SCAN_CELLS // (len(u) * len(E)))
    los = np.arange(0, lb[-1], step)
    his = np.minimum(los + step, lb[-1])
    firsts = lb.searchsorted(los, "right") - 1
    # Step lo:hi scans slots a to b - 1, from position p in pairs on.
    spans = (los, his, firsts, lb.searchsorted(his), los + shift[firsts])
    for lo, hi, a, b, p in zip(*(x.tolist() for x in spans)):
        i = slots[a:b].repeat(np.diff(lb[a : b + 1].clip(lo, hi))) if b - a > 1 else a
        at = np.arange(lo, hi) + shift.take(i) if b - a > 1 else slice(p, p + hi - lo)
        j = pairs[at] % q
        res[at] = _judge(E.take(offs.take(j, axis=1) + i, axis=1), arity)
    return res
