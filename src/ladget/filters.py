"""Structural necessary conditions for ladgets, with violation attribution.

Every rule except INTERNAL_DEGREE is a consequence of universality or of
implementing a non-constant function, so rejecting on them never loses a
ladget.  INTERNAL_DEGREE additionally assumes minimality and is applied only
in minimal mode.  This module is the readable twin of the census kernel's
vectorized filter; the two must agree configuration by configuration, and
the tests hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .graphcore import Graph, RoleLabeling

if TYPE_CHECKING:
    from .gadget import GadgetConfig

RULES = (
    "IN_ADJ",
    "ANCHOR_IN_ADJ",
    "TRIPLE_NEIGHBOR",
    "OUT_ANCHOR_ADJ",
    "OUT_DEGREE",
    "INTERNAL_DEGREE",
    "INPUT_DEGREE",
)


@dataclass(frozen=True)
class FilterVerdict:
    passed: bool
    violations: tuple[str, ...]
    messages: tuple[str, ...]
    minimal_mode: bool


def _violations(
    g: Graph, r: RoleLabeling, minimal_mode: bool
) -> Iterator[tuple[str, str]]:
    # Yields at most one (rule, message) per rule, in RULES order.
    ins = r.inputs
    pair = next(
        (
            (a, b)
            for i, a in enumerate(ins)
            for b in ins[i + 1 :]
            if g.has_edge(a, b)
        ),
        None,
    )
    if pair is not None:
        yield "IN_ADJ", f"inputs {pair[0]} and {pair[1]} are adjacent"
    bad = next((v for v in ins if g.has_edge(r.anchor, v)), None)
    if bad is not None:
        yield "ANCHOR_IN_ADJ", f"anchor {r.anchor} adjacent to input {bad}"
    role_set = set(r.vertices())
    probe = sum(1 << v for v in (r.anchor, *ins))
    bad = next(
        (
            v
            for v in range(g.n)
            if v not in role_set and (g.adj[v] & probe).bit_count() >= 3
        ),
        None,
    )
    if bad is not None:
        yield (
            "TRIPLE_NEIGHBOR",
            f"internal vertex {bad} adjacent to three of anchor and inputs",
        )
    if g.has_edge(r.anchor, r.output):
        yield (
            "OUT_ANCHOR_ADJ",
            f"output {r.output} adjacent to anchor {r.anchor}",
        )
    if g.degree(r.output) < 2:
        yield "OUT_DEGREE", f"output {r.output} has degree {g.degree(r.output)} < 2"
    if minimal_mode:
        bad = next(
            (v for v in range(g.n) if v not in role_set and g.degree(v) < 3),
            None,
        )
        if bad is not None:
            yield (
                "INTERNAL_DEGREE",
                f"internal vertex {bad} has degree {g.degree(bad)} < 3",
            )
    bad = next((v for v in ins if g.degree(v) < 2), None)
    if bad is not None:
        yield "INPUT_DEGREE", f"input {bad} has degree {g.degree(bad)} < 2"


def structural_filter(
    config: GadgetConfig, minimal_mode: bool = False
) -> FilterVerdict:
    """Evaluate the structural rules in their fixed order, collecting every
    violated rule for reporting."""
    found = list(_violations(config.graph, config.roles, minimal_mode))
    return FilterVerdict(
        passed=not found,
        violations=tuple(rule for rule, _ in found),
        messages=tuple(msg for _, msg in found),
        minimal_mode=minimal_mode,
    )
