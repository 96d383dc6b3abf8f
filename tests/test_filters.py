import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladget import _kernels, appendix
from ladget._kernels import scan_configs
from ladget.coloring import all_colorings
from ladget.filters import RULES, structural_filter
from ladget.gadget import GadgetConfig, TruthTable, builtin, classify, verify_ladget
from ladget.graphcore import Graph, RoleLabeling, generate_connected
from ladget.search import enumerate_configs


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
        assert verdict.minimal_mode

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


class TestVerdictShape:
    def test_messages_name_vertices(self):
        verdict = structural_filter(_nand7_plus((0, 2)))
        assert "anchor 0" in verdict.messages[0]
        assert "input 2" in verdict.messages[0]

    def test_passed_has_empty_tuples(self):
        verdict = structural_filter(NAND7, minimal_mode=True)
        assert verdict.violations == () and verdict.messages == ()
