"""Lift a 3-coloring gadget into k-coloring by attaching a clique package.

A complete graph on k-3 fresh vertices, each joined to every original
vertex, absorbs the extra colors: in any proper k-coloring the package takes
k-3 distinct colors that no original vertex can use, so the original part
still behaves as a 3-coloring gadget and the Boolean function is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import OrderOverflow, TooManyInputs
from .gadget import GadgetConfig, TruthTable, VerificationReport, _verify
from .graphcore import MAX_VERTICES, Graph


@dataclass(frozen=True)
class EmbeddedLadget:
    """A k-coloring configuration plus the package vertices added to it."""

    config: GadgetConfig
    package: tuple[int, ...]

    @cached_property
    def colorings(self):
        """config.colorings(), enumerated once for verify_embedding and
        package_color_profile."""
        return self.config.colorings()


def embed_to_k(config: GadgetConfig, k_target: int) -> EmbeddedLadget:
    """Embed a 3-coloring configuration into k_target-coloring.

    Gadgets with more than two inputs are out of scope, and the grown graph
    must stay within the vertex cap.  k_target == 3 returns the input
    unchanged (empty package).
    """
    if config.arity > 2:
        raise TooManyInputs(
            f"embedding covers at most 2 inputs, got {config.arity}"
        )
    if config.k != 3:
        raise ValueError("embedding starts from a 3-coloring configuration")
    if k_target < 3:
        raise ValueError(f"k_target must be at least 3, got {k_target}")
    extra = k_target - 3
    n0 = config.graph.n
    n1 = n0 + extra
    if n1 > MAX_VERTICES:
        raise OrderOverflow(
            f"embedding to k={k_target} needs {n1} vertices, over the "
            f"{MAX_VERTICES}-vertex cap"
        )
    if extra == 0:
        return EmbeddedLadget(config, ())
    edges = config.graph.edges()
    package = tuple(range(n0, n1))
    for i, p in enumerate(package):
        edges.extend((v, p) for v in range(n0))
        edges.extend((q, p) for q in package[:i])
    g = Graph.from_edges(n1, edges)
    cfg = GadgetConfig(g, config.roles, k=k_target)
    return EmbeddedLadget(cfg, package)


def verify_embedding(
    embedded: EmbeddedLadget, expected: TruthTable
) -> VerificationReport:
    """Re-verify the embedded configuration at its k and check the Boolean
    function is still the expected one.  Returns the full staged report with
    the table comparison recorded in target / target_matched; callers read
    report.ok."""
    report = _verify(embedded.config, embedded.colorings, None, False)
    matched = report.truth_table == expected
    return replace(report, target=expected.bitstring(), target_matched=matched)


def package_color_profile(embedded: EmbeddedLadget) -> dict:
    """Inspect every valid coloring of an embedded gadget.

    Returns counts witnessing the package invariants: the package always
    holds k-3 distinct colors, never color 0, never an input's color, and
    the original vertices never use more than 3 distinct colors.
    """
    cfg = embedded.config
    pkg = embedded.package
    n0 = cfg.graph.n - len(pkg)
    C = embedded.colorings
    profile = {
        "colorings": int(C.shape[0]),
        "package_distinct_ok": True,
        "package_avoids_zero": True,
        "package_avoids_inputs": True,
        "original_within_three": True,
    }
    for row in C.tolist():
        pkg_colors = {row[p] for p in pkg}
        if len(pkg_colors) != len(pkg):
            profile["package_distinct_ok"] = False
        if 0 in pkg_colors:
            profile["package_avoids_zero"] = False
        if pkg_colors & {row[v] for v in cfg.roles.inputs}:
            profile["package_avoids_inputs"] = False
        if len(set(row[:n0])) > 3:
            profile["original_within_three"] = False
    return profile
