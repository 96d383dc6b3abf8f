import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladget import _kernels, appendix
from ladget._kernels import scan_configs
from ladget.coloring import all_colorings, stacked_colorings
from ladget.filters import RULES, _violations, structural_filter
from ladget.gadget import GadgetConfig, TruthTable, builtin, classify, verify_ladget
from ladget.graphcore import Graph, RoleLabeling, decode_graph6, generate_connected
from ladget.search import enumerate_configs
from oracles import random_graph


def _cfg(n, edges, anchor, inputs, output):
    return GadgetConfig(Graph.from_edges(n, edges), RoleLabeling(anchor, inputs, output))


NAND7 = builtin("NAND7")


def _nand7_plus(extra_edge):
    edges = NAND7.graph.edges() + [extra_edge]
    return GadgetConfig(Graph.from_edges(7, edges), NAND7.roles)


class TestRuleOrder:
    def test_rule_names_are_fixed(self):
        assert RULES == (
            "IN_ADJ",
            "ANCHOR_IN_ADJ",
            "TRIPLE_NEIGHBOR",
            "OUT_ANCHOR_ADJ",
            "OUT_DEGREE",
            "INTERNAL_DEGREE",
            "INPUT_DEGREE",
        )

    def test_violations_accumulate_in_order(self):
        # K4 with every role on it trips three rules at once.
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        verdict = structural_filter(_cfg(4, k4, 0, (1, 2), 3))
        assert verdict.violations == (
            "IN_ADJ",
            "ANCHOR_IN_ADJ",
            "OUT_ANCHOR_ADJ",
        )
        assert len(verdict.messages) == 3


class TestIndividualRules:
    def test_clean_baseline(self):
        verdict = structural_filter(NAND7, minimal_mode=True)
        assert verdict.passed and verdict.violations == ()

    def test_in_adj(self):
        verdict = structural_filter(_nand7_plus((2, 6)))
        assert verdict.violations == ("IN_ADJ",)

    def test_anchor_in_adj(self):
        verdict = structural_filter(_nand7_plus((0, 2)))
        assert verdict.violations == ("ANCHOR_IN_ADJ",)

    def test_triple_neighbor(self):
        # Internal vertex 1 becomes adjacent to the anchor and both inputs.
        verdict = structural_filter(_nand7_plus((1, 6)))
        assert verdict.violations == ("TRIPLE_NEIGHBOR",)

    def test_out_anchor_adj(self):
        verdict = structural_filter(_nand7_plus((0, 4)))
        assert verdict.violations == ("OUT_ANCHOR_ADJ",)

    def test_out_degree(self):
        path = [(0, 1), (1, 2), (2, 3), (3, 4)]
        verdict = structural_filter(_cfg(5, path, 0, (2,), 4))
        assert verdict.violations == ("OUT_DEGREE",)

    def test_internal_degree_only_in_minimal_mode(self):
        edges = [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4)]
        cfg = _cfg(5, edges, 0, (2,), 3)
        assert structural_filter(cfg).passed
        verdict = structural_filter(cfg, minimal_mode=True)
        assert verdict.violations == ("INTERNAL_DEGREE",)

    def test_input_degree(self):
        edges = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]
        verdict = structural_filter(_cfg(5, edges, 0, (2, 4), 3))
        assert verdict.violations == ("INPUT_DEGREE",)


class TestAppendixRows:
    def test_all_rows_pass_minimal_filter(self):
        entries, _ = appendix.load_table()
        assert len(entries) == 33
        for entry in entries:
            verdict = structural_filter(entry.config(), minimal_mode=True)
            assert verdict.passed, (entry.function, entry.graph6)


def _scan(g, arity, use_filter, minimal_mode):
    C = all_colorings(g, None, 3)
    cfgs = enumerate_configs(g.n, arity)
    return cfgs, scan_configs(
        C, g.adj_array(), g.deg_array(), cfgs, arity, use_filter, minimal_mode
    )


def _roles_of(row, arity):
    a0, th, i1, i2 = (int(x) for x in row)
    inputs = (i1,) if arity == 1 else (i1, i2)
    return RoleLabeling(a0, inputs, th)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    # A random tree keeps every draw connected; extra edges come on top.
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    edges += draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(n, edges)


# Fixture graphs that hold ladgets, so filtered and minimal-mode census
# verdicts other than -1 and -2 come up too.
GATE_GRAPHS = [builtin(name).graph for name in ("NOT", "ROTS", "NAND7", "OR8", "AND8")]
FILTER_MODES = [(False, False), (False, True), (True, False), (True, True)]


class TestKernelAgreement:
    @pytest.mark.parametrize("arity", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_scan_matches_verify_ladget(self, arity, data):
        # The census verdict under every (use_filter, minimal_mode), checked
        # one configuration at a time against the staged single check: every
        # configuration the unfiltered scan calls a ladget, plus a sample.
        g = data.draw(st.one_of(connected_graphs(), st.sampled_from(GATE_GRAPHS)))
        C = all_colorings(g, None, 3)
        cfgs = enumerate_configs(g.n, arity)
        res = {
            mode: scan_configs(
                C, g.adj_array(), g.deg_array(), cfgs, arity, *mode
            )
            for mode in FILTER_MODES
        }
        picks = data.draw(st.sets(st.integers(0, len(cfgs) - 1), max_size=6))
        picks |= set(np.nonzero(res[(False, False)] >= 0)[0].tolist())
        for j in sorted(picks):
            cfg = GadgetConfig(g, _roles_of(cfgs[j], arity))
            report = verify_ladget(cfg)
            semantic = report.truth_table.code() if report.is_ladget else -2
            for use_filter, minimal_mode in FILTER_MODES:
                verdict = structural_filter(cfg, minimal_mode=minimal_mode)
                want = -1 if use_filter and not verdict.passed else semantic
                got = int(res[(use_filter, minimal_mode)][j])
                assert got == want, (g.edges(), cfgs[j], use_filter, minimal_mode)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_one_configuration_per_pass(self, arity, monkeypatch):
        # Where the scan cuts configurations into passes changes no verdict.
        graphs = generate_connected(6)
        want = {
            (g, mode): _scan(g, arity, *mode)[1]
            for g in graphs
            for mode in FILTER_MODES
        }
        monkeypatch.setattr(_kernels, "SCAN_CELLS", 1)
        for (g, mode), res in want.items():
            assert np.array_equal(_scan(g, arity, *mode)[1], res), (g.edges(), mode)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_no_coloring_no_ladget(self, arity):
        # K4 plus a pendant vertex has no proper 3-coloring at all.
        k4 = [(u, v) for v in range(4) for u in range(v)]
        g = Graph.from_edges(5, k4 + [(3, 4)])
        assert all_colorings(g, None, 3).shape == (0, 5)
        for minimal_mode in (False, True):
            _, res = _scan(g, arity, False, minimal_mode)
            assert len(res) > 0 and (res == -2).all()

    @pytest.mark.parametrize("n,arity", [(5, 1), (5, 2), (6, 2)])
    @pytest.mark.parametrize("minimal_mode", [False, True])
    def test_kernel_filter_matches_python(self, n, arity, minimal_mode):
        for g in generate_connected(n):
            cfgs, res = _scan(g, arity, True, minimal_mode)
            for row, code in zip(cfgs, res):
                cfg = GadgetConfig(g, _roles_of(row, arity))
                want = structural_filter(cfg, minimal_mode=minimal_mode).passed
                assert (int(code) != -1) == want

    def test_filter_never_loses_a_gate(self):
        # Soundness over every connected graph on 7 vertices: each
        # configuration that verifies as a ladget for a function depending
        # on both inputs also passes the plain structural rules.  The sweep
        # sees 6 such configurations: the 3 NAND ones plus 3 implication
        # variants.
        found = {}
        for g in generate_connected(7):
            cfgs, unfiltered = _scan(g, 2, False, False)
            for row, code in zip(cfgs, unfiltered):
                if int(code) < 0:
                    continue
                fn = classify(TruthTable.from_code(2, int(code)))
                if fn.degenerate:
                    continue
                found[fn.name] = found.get(fn.name, 0) + 1
                cfg = GadgetConfig(g, _roles_of(row, 2))
                assert structural_filter(cfg).passed, (g.edges(), row)
        assert found == {"NAND": 3, "other": 3}

    def test_no_gates_below_seven_vertices(self):
        for n in (5, 6):
            for g in generate_connected(n):
                _, unfiltered = _scan(g, 2, False, False)
                for code in unfiltered:
                    if int(code) >= 0:
                        fn = classify(TruthTable.from_code(2, int(code)))
                        assert fn.degenerate


class TestScanRowContract:
    # scan_configs takes any rows whose closure under the six color
    # permutations is the graph's proper colorings: all of them, the
    # stacked_colorings representatives, or those representatives each
    # relabelled by a random color permutation and shuffled.
    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_representatives_give_all_colorings_verdicts(
        self, arity, ordered, rng, connected8_path
    ):
        graphs = [g for n in range(1, 7) for g in generate_connected(n)]
        # Edgeless graphs, whose one-color row has an orbit of three.
        graphs += [Graph.from_edges(n, []) for n in range(2, 6)]
        with open(connected8_path) as fh:
            graphs += [decode_graph6(next(fh).strip()) for _ in range(200)]
        perms = np.array(list(itertools.permutations(range(3))), np.uint8)
        codes = set()
        for g in graphs:
            cfgs = enumerate_configs(g.n, arity, ordered)
            reps, _ = stacked_colorings(np.array([g.adj]))
            relabelled = perms[rng.integers(6, size=len(reps))[:, None], reps]
            inputs = (all_colorings(g), reps, rng.permutation(relabelled))
            want, *others = (
                scan_configs(C, g.adj_array(), g.deg_array(), cfgs, arity, False, False)
                for C in inputs
            )
            for got in others:
                assert np.array_equal(got, want), (g.edges(), arity, ordered)
            codes.update(want.tolist())
        assert -2 in codes and len(codes) > 2  # some ladgets among the verdicts


class TestScanSteps:
    # scan_pass over a stack of graphs judges the kept pairs of graphs with
    # colorings, ascending, in steps of as many pairs as SCAN_CELLS allows
    # or exactly one, greedily; a pair costs one cell per word of each mask
    # it gathers.  _judge gets each step's gathered masks, pairs on the last
    # axis, so a wrapper sees every step's size, cost and verdicts.  The
    # pairs of a graph without colorings are -2 and in no step.
    @pytest.mark.parametrize("arity", [1, 2])
    def test_steps_are_greedy_within_the_budget(self, arity, rng, monkeypatch):
        graphs = generate_connected(6)
        C, starts = stacked_colorings(np.array([g.adj for g in graphs]))
        cfgs = enumerate_configs(6, arity)
        keep = rng.random((len(graphs), len(cfgs))) < 0.5
        kept = np.flatnonzero(keep)
        want = _kernels.scan_pass(C, starts, kept, cfgs, arity)
        height = np.diff(starts)
        scanned = (keep & (height > 0)[:, None])[keep]
        assert len(graphs) == 112 and 0 in height and scanned.sum() > 4000
        # One verdict per pair: its graph's one-graph verdict, and -2 for
        # the pairs of graphs without colorings.
        assert want.dtype == np.int8 and len(want) == len(kept)
        assert (want[~scanned] == -2).all()
        for g, row in enumerate(keep):
            one = scan_configs(C[starts[g] : starts[g + 1]], graphs[g].adj_array(),
                               graphs[g].deg_array(), cfgs, arity, False, False)
            assert np.array_equal(want[kept // len(cfgs) == g], one[row]), g
        # At most 64 rows per graph: one word per mask, and five masks per
        # pair at arity 2, three at arity 1.
        assert height.max() <= 64
        cost = 5 if arity == 2 else 3
        judge = _kernels._judge
        for budget in (1, 2, 3, 8, 64, 1000, _kernels.SCAN_CELLS):
            steps = []

            def spy(X, arity):
                verdicts = judge(X, arity)
                steps.append((X[..., 0].size, verdicts))
                return verdicts

            monkeypatch.setattr(_kernels, "_judge", spy)
            monkeypatch.setattr(_kernels, "SCAN_CELLS", budget)
            got = _kernels.scan_pass(C, starts, kept, cfgs, arity)
            assert np.array_equal(got, want), budget
            # The steps judge exactly the scanned pairs, in order.
            assert np.array_equal(np.concatenate([v for _, v in steps]), want[scanned])
            sizes = [len(v) for _, v in steps]
            assert {cells for cells, _ in steps} == {cost}
            for size in sizes[:-1]:
                assert size * cost <= budget or size == 1, (budget, size)
                assert (size + 1) * cost > budget, ("not greedy", budget, size)
            assert 1 <= sizes[-1] <= max(1, budget // cost)


class TestScanWordBoundaries:
    # One stacked order-8 pass whose graphs have 0, 64, 96, 144 and 1
    # coloring rows per orbit: K4 with a pendant at each vertex, the path
    # P8, P7 plus an isolated vertex, P3 + P3 + P2 and the complete
    # tripartite K(3, 3, 2).  Its masks take three words, and the graphs
    # fill one word exactly, end inside the second and the third, or hold
    # one bit.  A one-graph scan of all_colorings' rows takes up to 14.
    @pytest.mark.parametrize("arity", [1, 2])
    def test_stacked_pass_matches_one_graph_scans(self, arity):
        k4 = [(u, v) for v in range(4) for u in range(v)]
        path = [(v, v + 1) for v in range(7)]
        graphs = [
            Graph.from_edges(8, k4 + [(v, v + 4) for v in range(4)]),
            Graph.from_edges(8, path),
            Graph.from_edges(8, path[:6]),
            Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)]),
            Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                                 if u // 3 != v // 3]),
        ]
        C, starts = stacked_colorings(np.array([g.adj for g in graphs]))
        assert np.diff(starts).tolist() == [0, 64, 96, 144, 1]
        cfgs = enumerate_configs(8, arity, ordered_inputs=True)
        pairs = np.arange(len(graphs) * len(cfgs))
        got = _kernels.scan_pass(C, starts, pairs, cfgs, arity).reshape(len(graphs), -1)
        assert (got[0] == -2).all()
        for g, row in zip(graphs, got):
            one = scan_configs(all_colorings(g), g.adj_array(), g.deg_array(), cfgs,
                               arity, False, False)
            assert np.array_equal(row, one), g.edges()
            for j in np.flatnonzero(row >= 0):
                report = verify_ladget(GadgetConfig(g, _roles_of(cfgs[j], arity)))
                assert report.is_ladget, (g.edges(), cfgs[j])
                assert report.truth_table.code() == row[j], (g.edges(), cfgs[j])
        assert (got >= 0).sum() > 0


def _stack(graphs):
    return np.array([g.adj_array() for g in graphs])


@st.composite
def same_order_stacks(draw):
    # One to six graphs of one order, not necessarily connected.
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    edge_sets = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    return [
        Graph.from_edges(n, edges)
        for edges in draw(st.lists(edge_sets, min_size=1, max_size=6))
    ]


class TestStackedFilterMask:
    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("minimal_mode", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(graphs=same_order_stacks())
    def test_rows_match_one_graph_mask_and_reference(
        self, arity, minimal_mode, graphs
    ):
        # Row i of the stacked mask is graph i's own mask, which keeps
        # exactly the configurations the readable rules pass.
        n = graphs[0].n
        cfgs = enumerate_configs(n, arity, ordered_inputs=True)
        adj = _stack(graphs)
        mask = _kernels._filter_mask_vec(adj, cfgs, arity, minimal_mode)
        assert mask.shape == (len(graphs), len(cfgs))
        for g, row in zip(graphs, mask):
            one = _kernels._filter_mask_vec(
                g.adj_array()[None], cfgs, arity, minimal_mode
            )
            assert np.array_equal(row, one[0])
            want = [
                not any(_violations(g, _roles_of(c, arity), minimal_mode))
                for c in cfgs
            ]
            assert row.tolist() == want, g.edges()


def _passes(g, rows, arity, minimal_mode):
    return [
        not any(_violations(g, _roles_of(c, arity), minimal_mode)) for c in rows
    ]


class TestFilterMaskExhaustive:
    @pytest.mark.parametrize("arity", [1, 2])
    def test_every_configuration_matches_reference(self, arity, connected8_path):
        # Every connected graph up to order 6 and the first 200 order-8
        # records, every configuration, ordered and unordered inputs, minimal
        # mode on and off.  The reference runs once per ordered configuration;
        # an unordered row is looked up by its roles.  A one-row stack equals
        # its row of the stack.
        lines = connected8_path.read_text().split()[:200]
        by_order = {n: generate_connected(n) for n in range(1, 7)}
        by_order[8] = [decode_graph6(text) for text in lines]
        for n, graphs in by_order.items():
            adj = _stack(graphs)
            rows = enumerate_configs(n, arity, ordered_inputs=True)
            index = {tuple(c): j for j, c in enumerate(rows.tolist())}
            plain = np.array([_passes(g, rows, arity, False) for g in graphs])
            # INTERNAL_DEGREE only adds rejections to the plain rules.
            minimal = plain.copy()
            for i, j in np.argwhere(plain):
                minimal[i, j] = _passes(graphs[i], rows[j : j + 1], arity, True)[0]
            for ordered in (False, True):
                cfgs = enumerate_configs(n, arity, ordered)
                cols = [index[tuple(c)] for c in cfgs.tolist()]
                for minimal_mode, want in ((False, plain), (True, minimal)):
                    mask = _kernels._filter_mask_vec(adj, cfgs, arity, minimal_mode)
                    assert mask.dtype == bool
                    assert np.array_equal(mask, want[:, cols]), (n, ordered)
                    for g, row in zip(graphs, mask):
                        one = _kernels._filter_mask_vec(
                            g.adj_array()[None], cfgs, arity, minimal_mode
                        )
                        assert np.array_equal(one[0], row), g.edges()

    @pytest.mark.parametrize("n,arity", [(2, 1), (3, 2)])
    def test_empty_configuration_table(self, n, arity):
        graphs = generate_connected(n)
        cfgs = enumerate_configs(n, arity)
        assert cfgs.shape == (0, 4)
        adj = _stack(graphs)
        for minimal_mode in (False, True):
            mask = _kernels._filter_mask_vec(adj, cfgs, arity, minimal_mode)
            assert mask.shape == (len(graphs), 0) and mask.dtype == bool
            one = _kernels._filter_mask_vec(adj[:1], cfgs, arity, minimal_mode)
            assert one.shape == (1, 0) and one.dtype == bool


class TestFilterMaskWordSizes:
    # The stacked filter holds adjacency rows in the smallest unsigned type
    # of n bits, so its word size changes between orders 8 and 9, 16 and
    # 17, and is widest at 32.  Random graphs of those orders, sparse to
    # dense, against the readable rules on every configuration each graph
    # keeps and on a random sample of the rest, minimal mode on and off; a
    # one-row stack equals its row of the stack.
    @pytest.mark.parametrize(
        "n,arity", [(9, 1), (9, 2), (16, 1), (16, 2), (17, 1), (17, 2), (32, 1)]
    )
    def test_rows_match_reference_across_word_sizes(self, n, arity, rng):
        graphs = [random_graph(rng, n, p) for p in (2.5 / n, 4 / n, 0.5)]
        cfgs = enumerate_configs(n, arity)
        adj = _stack(graphs)
        kept = 0
        for minimal_mode in (False, True):
            mask = _kernels._filter_mask_vec(adj, cfgs, arity, minimal_mode)
            assert mask.shape == (len(graphs), len(cfgs)) and mask.dtype == bool
            for g, row in zip(graphs, mask):
                one = _kernels._filter_mask_vec(
                    g.adj_array()[None], cfgs, arity, minimal_mode
                )
                assert np.array_equal(one[0], row), g.edges()
                sample = rng.choice(len(cfgs), min(len(cfgs), 300), replace=False)
                at = np.union1d(np.flatnonzero(row), sample)
                want = _passes(g, cfgs[at], arity, minimal_mode)
                assert row[at].tolist() == want, (g.edges(), minimal_mode)
                kept += int(row.sum())
        assert kept > 0


class TestVerdictShape:
    def test_messages_name_vertices(self):
        verdict = structural_filter(_nand7_plus((0, 2)))
        assert "anchor 0" in verdict.messages[0]
        assert "input 2" in verdict.messages[0]

    def test_passed_has_empty_tuples(self):
        verdict = structural_filter(NAND7, minimal_mode=True)
        assert verdict.violations == () and verdict.messages == ()
