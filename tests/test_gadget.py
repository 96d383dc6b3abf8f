import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ladget import gadget
from ladget.errors import UnknownFixture
from ladget.gadget import (
    FIXTURE_NAMES,
    GadgetConfig,
    NAMED_FUNCTIONS,
    TARGET_CODES,
    TruthTable,
    builtin,
    check_universality,
    classify,
    compute_mapping,
    truth_table_from_mapping,
    verify_ladget,
)
from ladget.graphcore import Graph, RoleLabeling
from oracles import apply_color_perm, permuted, random_connected, random_graph

S = frozenset({0, 1, 2})


# The color mappings of the five primitive gadgets, by definition.
PRIMITIVE_MAPPINGS = {
    "MOV": {(t,): frozenset({t}) for t in range(3)},
    "NOT": {(0,): frozenset({1, 2}), (1,): frozenset({0}), (2,): frozenset({0})},
    "KNOT": {
        (c, d): (S - {c} if c == d else frozenset({c}))
        for c in range(3)
        for d in range(3)
    },
    "ROT": {(0,): frozenset({1, 2}), (1,): frozenset({2}), (2,): frozenset({1})},
    "ROTS": {(0,): frozenset({0}), (1,): frozenset({2}), (2,): frozenset({1})},
}

GATE_TABLES = {
    "NAND7": "1110",
    "OR8": "0111",
    "AND8": "0001",
    "XOR10": "0110",
    "XNOR10": "1001",
}


class TestPrimitives:
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_MAPPINGS))
    def test_mapping(self, name):
        cfg = builtin(name)
        assert compute_mapping(cfg).table == PRIMITIVE_MAPPINGS[name]

    def test_rots_is_reversible(self):
        # ROT_s composed with itself is the identity on colors.
        m = PRIMITIVE_MAPPINGS["ROTS"]
        for c in range(3):
            (once,) = m[(c,)]
            (twice,) = m[(once,)]
            assert twice == c

    def test_rot_is_not_reversible(self):
        m = PRIMITIVE_MAPPINGS["ROT"]
        assert len(m[(0,)]) == 2


class TestGates:
    @pytest.mark.parametrize("name", sorted(GATE_TABLES))
    def test_truth_table(self, name):
        report = verify_ladget(builtin(name))
        assert report.is_ladget
        assert report.truth_table.bitstring() == GATE_TABLES[name]
        assert not report.classification.degenerate

    def test_xor_xnor_share_a_graph(self):
        xor = builtin("XOR10")
        xnor_roles = replace(xor.roles, output=4)
        assert replace(xor, roles=xnor_roles) == builtin("XNOR10")

    def test_all_fixtures_resolve(self):
        for name in FIXTURE_NAMES:
            assert isinstance(builtin(name), GadgetConfig)

    def test_fixture_lookup_is_case_insensitive(self):
        assert builtin("nand7") == builtin("NAND7")

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            builtin("XNAND")


class TestTruthTable:
    def test_pattern_order(self):
        # First input is the most significant bit of the pattern index.
        tt = TruthTable(2, (0, 1, 1, 1))
        assert tt.entries[0b10] == 1  # f(1, 0)
        assert tt.entries[0b01] == 1  # f(0, 1)
        assert tt.entries[0b00] == 0

    def test_known_codes(self):
        assert TARGET_CODES == {
            "MOV": 2, "NOT": 1,
            "AND": 8, "OR": 14, "NAND": 7, "NOR": 1,
            "XOR": 6, "XNOR": 9,
        }

    @given(
        st.sampled_from([1, 2]),
        st.integers(min_value=0, max_value=15),
    )
    def test_code_roundtrip(self, arity, code):
        code %= 1 << (1 << arity)
        assert TruthTable.from_code(arity, code).code() == code

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            TruthTable(2, (0, 1))
        with pytest.raises(ValueError):
            TruthTable(1, (0, 2))

    def test_list_entries_become_a_tuple(self):
        tt = TruthTable(2, [1, 1, 1, 0])
        assert tt == TruthTable(2, (1, 1, 1, 0))
        assert hash(tt) == hash(TruthTable(2, (1, 1, 1, 0)))
        assert classify(tt).name == "NAND"


class TestClassify:
    def test_named(self):
        for (arity, entries), name in NAMED_FUNCTIONS.items():
            fn = classify(TruthTable(arity, entries))
            assert fn.name == name
            assert not fn.degenerate

    def test_constant(self):
        fn = classify(TruthTable(2, (1, 1, 1, 1)))
        assert fn.name == "constant"
        assert fn.depends_on == (False, False)
        assert fn.degenerate

    def test_projection_is_degenerate(self):
        fn = classify(TruthTable(2, (0, 0, 1, 1)))  # ignores second input
        assert fn.name == "other"
        assert fn.depends_on == (True, False)
        assert fn.degenerate

    def test_implication_is_other(self):
        fn = classify(TruthTable(2, (1, 1, 0, 1)))
        assert fn.name == "other"
        assert not fn.degenerate


class TestLaws:
    def test_universality_failure_reports_first_tuple(self):
        # Input adjacent to the anchor can never take color 0.
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        cfg = GadgetConfig(g, RoleLabeling(0, (1,), 2))
        res = check_universality(cfg)
        assert not res.passed
        assert res.failing_tuple == (0,)

    def test_consistency_witness(self):
        # Free edge with an isolated anchor: a true input can produce both
        # a false and a true output color.
        g = Graph.from_edges(3, [(0, 1)])
        cfg = GadgetConfig(g, RoleLabeling(2, (0,), 1))
        report = verify_ladget(cfg)
        assert report.universality.passed
        res = report.consistency
        assert not res.passed
        w = res.witness
        assert w.pattern == (1,)
        assert w.coloring_a[1] == 0 and w.coloring_b[1] != 0
        assert w.coloring_a[0] != 0 and w.coloring_b[0] != 0


class TestVerifyReport:
    def test_target_match(self):
        report = verify_ladget(builtin("NAND7"), target="NAND")
        assert report.ok and report.target_matched

    def test_target_mismatch_is_still_a_ladget(self):
        report = verify_ladget(builtin("NAND7"), target="AND")
        assert report.is_ladget
        assert report.target_matched is False
        assert not report.ok

    def test_minimal_mode_gates_ok(self):
        # NOT with a pendant internal vertex is still a ladget, but the
        # degree-1 internal vertex disqualifies it from the minimal census.
        base = builtin("NOT")
        g = Graph.from_edges(5, base.graph.edges() + [(1, 4)])
        cfg = GadgetConfig(g, base.roles)
        plain = verify_ladget(cfg)
        minimal = verify_ladget(cfg, minimal_mode=True)
        assert plain.ok
        assert plain.truth_table.bitstring() == "10"
        assert minimal.is_ladget and not minimal.ok
        assert "INTERNAL_DEGREE" in minimal.structural.violations

    def test_fixture_not_is_minimal_clean(self):
        report = verify_ladget(builtin("NOT"), minimal_mode=True)
        assert report.ok and report.structural.passed

    def test_structural_stage_is_informative_by_default(self):
        report = verify_ladget(builtin("NOT"))
        assert report.structural.passed  # no non-minimal violations
        assert report.ok

    def test_non_ladget_has_no_table(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        report = verify_ladget(GadgetConfig(g, RoleLabeling(0, (1,), 2)))
        assert not report.is_ladget
        assert report.truth_table is None
        assert report.classification is None
        assert report.consistency is None

    def test_failed_universality_with_target(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        cfg = GadgetConfig(g, RoleLabeling(0, (1,), 2))
        report = verify_ladget(cfg, target="NOT")
        assert report.target_matched is False

    def test_json_dict_is_serializable(self):
        for name in ("NAND7", "NOT"):
            d = verify_ladget(builtin(name), target="NAND").to_json_dict()
            text = json.dumps(d)
            assert json.loads(text)["is_ladget"] is True

    @pytest.mark.parametrize(
        "cfg",
        [
            builtin("NAND7"),
            GadgetConfig(
                Graph.from_edges(3, [(0, 1), (1, 2)]), RoleLabeling(0, (1,), 2)
            ),
        ],
        ids=["universal", "not-universal"],
    )
    def test_enumerates_colorings_once(self, cfg, monkeypatch):
        calls = []
        real = gadget.all_colorings

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gadget, "all_colorings", counting)
        verify_ladget(cfg)
        assert len(calls) == 1

    def test_stages_match_public_checks(self, rng):
        # The report's stages come from one enumeration; mapping and
        # universality must equal what the standalone checks compute, and
        # the draws must reach consistency witnesses.
        witnesses = 0
        for _ in range(60):
            n = int(rng.integers(4, 8))
            g = random_connected(n, rng, 0.3)
            arity = int(rng.integers(1, 3))
            picks = [int(v) for v in rng.choice(n, size=arity + 2, replace=False)]
            cfg = GadgetConfig(
                g, RoleLabeling(picks[0], tuple(picks[1:-1]), picks[-1])
            )
            report = verify_ladget(cfg)
            assert report.mapping == compute_mapping(cfg)
            assert report.universality == check_universality(cfg)
            if report.universality.passed:
                witnesses += report.consistency.witness is not None
            else:
                assert report.consistency is None
        assert witnesses > 5

    def test_degenerate_never_matches_target(self):
        # A one-edge gadget wired input->output through nothing computes MOV
        # only if it depends on its input; a config whose table collapses is
        # refused a named match.  Constant-output config: output adjacent to
        # anchor forces output true... build one and check the guard.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        # anchor 1: output 0 is adjacent to the anchor, never color 0.
        cfg = GadgetConfig(g, RoleLabeling(1, (2,), 0))
        report = verify_ladget(cfg, target="MOV")
        if report.is_ladget:
            assert report.classification.degenerate
            assert report.target_matched is False


class TestMappingProperties:
    def test_swap_true_colors_fixes_every_fixture(self):
        sigma = (0, 2, 1)
        for name in FIXTURE_NAMES:
            m = compute_mapping(builtin(name))
            assert apply_color_perm(m, sigma) == m

    def test_swap_true_colors_on_random_configs(self, rng):
        sigma = (0, 2, 1)
        seen = 0
        for _ in range(40):
            n = int(rng.integers(4, 8))
            g = random_connected(n, rng)
            picks = rng.choice(n, size=4, replace=False)
            roles = RoleLabeling(
                int(picks[0]), (int(picks[1]), int(picks[2])), int(picks[3])
            )
            m = compute_mapping(GadgetConfig(g, roles))
            if any(m.table.values()):
                seen += 1
            assert apply_color_perm(m, sigma) == m
        assert seen > 10

    def test_isomorphic_configs_same_mapping(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 8))
            g = random_graph(rng, n, 0.5)
            picks = rng.choice(n, size=4, replace=False)
            roles = RoleLabeling(
                int(picks[0]), (int(picks[1]), int(picks[2])), int(picks[3])
            )
            perm = rng.permutation(n).tolist()
            h = permuted(g, perm)
            hroles = RoleLabeling(
                perm[roles.anchor],
                tuple(perm[v] for v in roles.inputs),
                perm[roles.output],
            )
            assert compute_mapping(GadgetConfig(g, roles)) == compute_mapping(
                GadgetConfig(h, hroles)
            )

    def test_truth_table_from_mapping_on_fixtures(self):
        for name, bits in GATE_TABLES.items():
            m = compute_mapping(builtin(name))
            assert truth_table_from_mapping(m).bitstring() == bits


class TestConfigValidation:
    def test_rejects_small_k(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            GadgetConfig(g, RoleLabeling(0, (1,), 3), k=2)

    def test_roles_checked_against_graph(self):
        from ladget.errors import InvalidRoles

        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InvalidRoles):
            GadgetConfig(g, RoleLabeling(0, (1,), 9))
