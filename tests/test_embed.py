import pytest

from ladget import gadget
from ladget.cli import main
from ladget.embed import EmbeddedLadget, embed_to_k, package_color_profile, verify_embedding
from ladget.errors import OrderOverflow, TooManyInputs
from ladget.gadget import GadgetConfig, TruthTable, builtin, verify_ladget
from ladget.graphcore import Graph, RoleLabeling

NOT_TT = TruthTable(1, (1, 0))
NAND_TT = TruthTable(2, (1, 1, 1, 0))


class TestEmbedShape:
    def test_identity_at_three(self):
        cfg = builtin("NOT")
        emb = embed_to_k(cfg, 3)
        assert emb.config is cfg
        assert emb.package == ()

    def test_package_is_fully_wired(self):
        cfg = builtin("NOT")
        emb = embed_to_k(cfg, 5)
        g = emb.config.graph
        assert g.n == cfg.graph.n + 2
        assert emb.package == (4, 5)
        for p in emb.package:
            for v in range(cfg.graph.n):
                assert g.has_edge(p, v)
        assert g.has_edge(4, 5)
        assert emb.config.k == 5
        assert emb.config.roles == cfg.roles

    def test_original_edges_kept(self):
        cfg = builtin("NAND7")
        emb = embed_to_k(cfg, 4)
        for u, v in cfg.graph.edges():
            assert emb.config.graph.has_edge(u, v)


class TestEmbedErrors:
    def test_too_many_inputs(self):
        g = Graph.from_edges(6, [(0, 3), (1, 3), (2, 4), (3, 4), (4, 5), (3, 5)])
        cfg = GadgetConfig(g, RoleLabeling(5, (0, 1, 2), 4))
        with pytest.raises(TooManyInputs):
            embed_to_k(cfg, 4)

    def test_rejects_small_target(self):
        with pytest.raises(ValueError):
            embed_to_k(builtin("NOT"), 2)

    def test_rejects_non_three_source(self):
        emb = embed_to_k(builtin("NOT"), 4)
        with pytest.raises(ValueError):
            embed_to_k(emb.config, 5)

    def test_order_overflow(self):
        g = Graph.from_edges(30, [(v, v + 1) for v in range(29)])
        cfg = GadgetConfig(g, RoleLabeling(0, (2,), 4))
        with pytest.raises(OrderOverflow):
            embed_to_k(cfg, 6)
        assert embed_to_k(cfg, 5).config.graph.n == 32


class TestPreservation:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_not_survives(self, k):
        emb = embed_to_k(builtin("NOT"), k)
        report = verify_embedding(emb, NOT_TT)
        assert report.ok
        assert report.truth_table == NOT_TT
        assert report.target == "10"

    @pytest.mark.parametrize("k", [4, 5])
    def test_nand_survives(self, k):
        emb = embed_to_k(builtin("NAND7"), k)
        report = verify_embedding(emb, NAND_TT)
        assert report.ok and report.target_matched

    def test_wrong_expectation_is_flagged(self):
        emb = embed_to_k(builtin("NOT"), 4)
        report = verify_embedding(emb, TruthTable(1, (0, 1)))
        assert report.is_ladget
        assert not report.ok
        assert report.target_matched is False


class TestPackageProfile:
    @pytest.mark.parametrize("name,k", [("NOT", 4), ("NOT", 5), ("NAND7", 4)])
    def test_invariants(self, name, k):
        emb = embed_to_k(builtin(name), k)
        profile = package_color_profile(emb)
        assert profile["colorings"] > 0
        assert profile["package_distinct_ok"]
        assert profile["package_avoids_zero"]
        assert profile["package_avoids_inputs"]
        assert profile["original_within_three"]

    def test_identity_profile(self):
        # Empty package: every invariant holds vacuously and the coloring
        # count is the anchored solution count of the base gadget.
        from ladget.coloring import all_colorings

        emb = embed_to_k(builtin("NOT"), 3)
        profile = package_color_profile(emb)
        anchored = all_colorings(emb.config.graph, {emb.config.roles.anchor: 0}, 3)
        assert profile["colorings"] == anchored.shape[0]
        assert profile["package_distinct_ok"]


class TestColorsOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        # The graphs gadget.all_colorings is called on, in call order.
        seen = []
        enumerate_all = gadget.all_colorings

        def counted(g, *args, **kwargs):
            seen.append(g)
            return enumerate_all(g, *args, **kwargs)

        monkeypatch.setattr(gadget, "all_colorings", counted)
        return seen

    def test_verify_and_profile_share_one_enumeration(self, calls):
        emb = embed_to_k(builtin("NAND7"), 5)
        assert verify_embedding(emb, NAND_TT).ok
        assert package_color_profile(emb)["original_within_three"]
        assert calls == [emb.config.graph]

    def test_cli_embed_colors_base_and_embedding_once_each(self, calls, capsys):
        assert main(["embed", "--fixture", "NAND7", "--k", "5"]) == 0
        assert "function preserved: yes" in capsys.readouterr().out
        base = builtin("NAND7").graph
        assert calls == [base, embed_to_k(builtin("NAND7"), 5).config.graph]


class TestCorruptedEmbedding:
    def test_harness_reports_instead_of_crashing(self):
        # Drop the package-anchor edge: the package can now absorb color 0
        # and the report must simply say whether the function survived.
        base = builtin("NOT")
        emb = embed_to_k(base, 4)
        g = emb.config.graph
        edges = [e for e in g.edges() if e != (base.roles.anchor, emb.package[0])]
        broken = EmbeddedLadget(
            GadgetConfig(Graph.from_edges(g.n, edges), emb.config.roles, k=4),
            emb.package,
        )
        report = verify_embedding(broken, NOT_TT)
        assert isinstance(report.ok, bool)
        assert report.target == "10"
        profile = package_color_profile(broken)
        assert isinstance(profile["package_avoids_zero"], bool)
