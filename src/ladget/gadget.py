"""Gadget semantics: color mappings, the two ladget laws, classification.

A gadget configuration is a graph plus roles (anchor, inputs, output) under
k-coloring with k >= 3.  Color 0 is the Boolean false; every other color is
true.  The anchor is always colored 0, which is what ties the interchangeable
true colors down to a single Boolean reading:

* universality: every assignment of input colors extends to a proper
  coloring of the whole graph (with the anchor at 0);
* consistency: all proper colorings agreeing on the Boolean values of the
  inputs agree on the Boolean value of the output.

A configuration satisfying both is a ladget and implements a Boolean
function, recovered here as an explicit truth table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .coloring import all_colorings
from .errors import PreconditionViolated, UnknownFixture
from .filters import FilterVerdict, structural_filter
from .graphcore import Graph, RoleLabeling, encode_graph6


@dataclass(frozen=True)
class GadgetConfig:
    """A graph with gadget roles assigned, under k >= 3 colors."""

    graph: Graph
    roles: RoleLabeling
    k: int = 3

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"k must be at least 3, got {self.k}")
        self.roles.validate_for(self.graph)

    @property
    def arity(self) -> int:
        return self.roles.arity

    def with_output(self, output: int) -> "GadgetConfig":
        return replace(self, roles=replace(self.roles, output=output))

    def colorings(self):
        """Every proper k-coloring with the anchor pinned to color 0, the
        Boolean false, as all_colorings' uint8 matrix.  All gadget
        semantics read this one enumeration."""
        return all_colorings(self.graph, {self.roles.anchor: 0}, self.k)


class ColorMapping:
    """Achievable output colors for every tuple of input colors."""

    def __init__(self, arity: int, k: int, table: dict):
        self.arity = arity
        self.k = k
        self.table = {t: frozenset(s) for t, s in table.items()}

    def __getitem__(self, key: tuple) -> frozenset:
        return self.table[key]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColorMapping)
            and self.arity == other.arity
            and self.k == other.k
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.arity, self.k, frozenset(self.table.items())))

    def items(self):
        return sorted(self.table.items())

    def apply_color_perm(self, sigma) -> "ColorMapping":
        """Relabel colors: tuple t maps through sigma on both sides."""
        table = {
            tuple(sigma[c] for c in t): {sigma[o] for o in outs}
            for t, outs in self.table.items()
        }
        return ColorMapping(self.arity, self.k, table)

    def as_dict(self) -> dict:
        return {
            ",".join(map(str, t)): sorted(outs) for t, outs in self.items()
        }


def compute_mapping(config: GadgetConfig) -> ColorMapping:
    """Exact mapping from input color tuples to achievable output colors,
    over all proper k-colorings with the anchor at color 0."""
    return _mapping_from(config, config.colorings())


def _mapping_from(config: GadgetConfig, C) -> ColorMapping:
    table = {
        t: set()
        for t in itertools.product(range(config.k), repeat=config.arity)
    }
    ins = config.roles.inputs
    out = config.roles.output
    for row in C.tolist():
        table[tuple(row[v] for v in ins)].add(row[out])
    return ColorMapping(config.arity, config.k, table)


@dataclass(frozen=True)
class UniversalityResult:
    passed: bool
    failing_tuple: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ConsistencyWitness:
    """Two colorings with the same Boolean inputs but different outputs."""

    pattern: tuple[int, ...]
    coloring_a: tuple[int, ...]
    coloring_b: tuple[int, ...]


@dataclass(frozen=True)
class ConsistencyResult:
    passed: bool
    witness: ConsistencyWitness | None = None


@dataclass(frozen=True)
class TruthTable:
    """Boolean function table; pattern index has the first input as the
    most significant bit, so entries[0b10] is f(i1=1, i2=0)."""

    arity: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != 1 << self.arity:
            raise ValueError("entry count must be 2**arity")
        if any(e not in (0, 1) for e in self.entries):
            raise ValueError("entries must be 0 or 1")

    def bitstring(self) -> str:
        return "".join(str(e) for e in self.entries)

    def code(self) -> int:
        return sum(e << p for p, e in enumerate(self.entries))

    @classmethod
    def from_code(cls, arity: int, code: int) -> "TruthTable":
        return cls(arity, tuple((code >> p) & 1 for p in range(1 << arity)))


NAMED_FUNCTIONS = {
    (1, (0, 1)): "MOV",
    (1, (1, 0)): "NOT",
    (2, (0, 0, 0, 1)): "AND",
    (2, (0, 1, 1, 1)): "OR",
    (2, (1, 1, 1, 0)): "NAND",
    (2, (1, 0, 0, 0)): "NOR",
    (2, (0, 1, 1, 0)): "XOR",
    (2, (1, 0, 0, 1)): "XNOR",
}

TARGET_CODES = {
    name: TruthTable(ar, entries).code()
    for (ar, entries), name in NAMED_FUNCTIONS.items()
}


@dataclass(frozen=True)
class BooleanFunction:
    name: str
    truth_table: TruthTable
    depends_on: tuple[bool, ...]

    @property
    def degenerate(self) -> bool:
        return not all(self.depends_on)


def classify(tt: TruthTable) -> BooleanFunction:
    """Name a truth table; degenerate tables never match a named gate."""
    depends = []
    for j in range(tt.arity):
        bit = 1 << (tt.arity - 1 - j)
        depends.append(
            any(
                tt.entries[p] != tt.entries[p ^ bit]
                for p in range(len(tt.entries))
            )
        )
    depends = tuple(depends)
    if len(set(tt.entries)) == 1:
        return BooleanFunction("constant", tt, depends)
    name = NAMED_FUNCTIONS.get((tt.arity, tt.entries), "other")
    return BooleanFunction(name, tt, depends)


def _pattern_index(arity: int, bools) -> int:
    p = 0
    for b in bools:
        p = (p << 1) | int(b)
    return p


def check_universality(
    config: GadgetConfig, mapping: ColorMapping | None = None
) -> UniversalityResult:
    """Every input color tuple must reach at least one proper coloring.
    Reports the lexicographically first failing tuple."""
    mapping = mapping if mapping is not None else compute_mapping(config)
    for t, outs in mapping.items():
        if not outs:
            return UniversalityResult(False, t)
    return UniversalityResult(True, None)


def check_consistency(
    config: GadgetConfig, universality: UniversalityResult
) -> ConsistencyResult:
    """All colorings sharing a Boolean input pattern must agree on the
    Boolean output.  Only meaningful once universality holds."""
    if universality is None or not universality.passed:
        raise PreconditionViolated(
            "consistency is only defined after universality has passed"
        )
    return _consistency_from(config, config.colorings())


def _consistency_from(config: GadgetConfig, C) -> ConsistencyResult:
    ins = config.roles.inputs
    out = config.roles.output
    first_seen: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    for row in C.tolist():
        pattern = tuple(int(row[v] != 0) for v in ins)
        ob = int(row[out] != 0)
        bucket = first_seen.setdefault(pattern, {})
        if ob not in bucket:
            bucket[ob] = tuple(row)
            if len(bucket) == 2:
                return ConsistencyResult(
                    False,
                    ConsistencyWitness(pattern, bucket[0], bucket[1]),
                )
    return ConsistencyResult(True, None)


def truth_table_from_mapping(mapping: ColorMapping) -> TruthTable:
    """Boolean collapse of a universal, consistent mapping."""
    entries = [0] * (1 << mapping.arity)
    for t, outs in mapping.items():
        p = _pattern_index(mapping.arity, (c != 0 for c in t))
        entries[p] = int(next(iter(outs)) != 0)
    return TruthTable(mapping.arity, tuple(entries))


@dataclass(frozen=True)
class VerificationReport:
    """Staged verification outcome.

    The structural stage is always populated and is informative: it gates
    `ok` only in minimal mode, where a rule violation disqualifies the
    configuration from the minimal census.  The semantic stages gate each
    other: consistency is only evaluated after universality passes, and
    classification only after both.
    """

    config: GadgetConfig
    structural: FilterVerdict
    universality: UniversalityResult
    consistency: ConsistencyResult | None
    mapping: ColorMapping
    truth_table: TruthTable | None
    classification: BooleanFunction | None
    target: str | None
    target_matched: bool | None
    minimal_mode: bool

    @property
    def is_ladget(self) -> bool:
        return self.universality.passed and (
            self.consistency is not None and self.consistency.passed
        )

    @property
    def ok(self) -> bool:
        if not self.is_ladget:
            return False
        if self.minimal_mode and not self.structural.passed:
            return False
        if self.target is not None:
            return bool(self.target_matched)
        return True

    def to_json_dict(self) -> dict:
        d = {
            "graph6": encode_graph6(self.config.graph),
            "n": self.config.graph.n,
            "k": self.config.k,
            "roles": self.config.roles.to_json_dict(),
            "structural": {
                "passed": self.structural.passed,
                "violations": list(self.structural.violations),
            },
            "universality": {
                "passed": self.universality.passed,
                "failing_tuple": (
                    list(self.universality.failing_tuple)
                    if self.universality.failing_tuple is not None
                    else None
                ),
            },
            "consistency": None,
            "mapping": self.mapping.as_dict(),
            "truth_table": None,
            "classification": None,
            "target": self.target,
            "target_matched": self.target_matched,
            "minimal_mode": self.minimal_mode,
            "is_ladget": self.is_ladget,
            "ok": self.ok,
        }
        if self.consistency is not None:
            w = self.consistency.witness
            d["consistency"] = {
                "passed": self.consistency.passed,
                "witness": (
                    {
                        "pattern": list(w.pattern),
                        "coloring_a": list(w.coloring_a),
                        "coloring_b": list(w.coloring_b),
                    }
                    if w is not None
                    else None
                ),
            }
        if self.truth_table is not None:
            d["truth_table"] = self.truth_table.bitstring()
        if self.classification is not None:
            d["classification"] = {
                "name": self.classification.name,
                "depends_on": list(self.classification.depends_on),
                "degenerate": self.classification.degenerate,
            }
        return d


def verify_ladget(
    config: GadgetConfig,
    target: str | None = None,
    minimal_mode: bool = False,
) -> VerificationReport:
    """Full staged check of one configuration.

    Stages: structural filter (with violation attribution), universality,
    consistency, truth table extraction, classification, optional match
    against a named target function.  Degenerate functions never match a
    named target.
    """
    structural = structural_filter(config, minimal_mode=minimal_mode)
    C = config.colorings()
    mapping = _mapping_from(config, C)
    universality = check_universality(config, mapping)
    consistency = None
    tt = None
    classification = None
    target_matched = None
    if universality.passed:
        consistency = _consistency_from(config, C)
        if consistency.passed:
            tt = truth_table_from_mapping(mapping)
            classification = classify(tt)
            if target is not None:
                target_matched = (
                    not classification.degenerate
                    and classification.name == target
                )
    elif target is not None:
        target_matched = False
    return VerificationReport(
        config=config,
        structural=structural,
        universality=universality,
        consistency=consistency,
        mapping=mapping,
        truth_table=tt,
        classification=classification,
        target=target,
        target_matched=target_matched,
        minimal_mode=minimal_mode,
    )


# Built-in gadgets.  Each entry: vertex count, edge list, anchor, inputs,
# output.  MOV and KNOT carry an extra isolated vertex as their anchor; an
# isolated anchor pinned at color 0 changes neither law.
_FIXTURES: dict[str, tuple[int, list, int, tuple, int]] = {
    "MOV": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], 4, (0,), 3),
    "NOT": (4, [(0, 1), (1, 2), (1, 3), (2, 3)], 0, (2,), 3),
    "KNOT": (5, [(0, 1), (1, 2), (1, 3), (2, 3)], 4, (0, 2), 3),
    "ROT": (3, [(0, 1), (1, 2)], 2, (0,), 1),
    "ROTS": (
        7,
        [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 6), (2, 3),
         (2, 5), (6, 5), (6, 3)],
        6,
        (2,),
        4,
    ),
    "NAND7": (
        7,
        [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (6, 4),
         (6, 5)],
        0,
        (2, 6),
        4,
    ),
    "OR8": (
        8,
        [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (6, 4),
         (6, 5), (7, 2), (7, 4)],
        0,
        (3, 6),
        7,
    ),
    "AND8": (
        8,
        [(0, 2), (0, 3), (1, 2), (1, 4), (3, 4), (3, 7), (4, 5), (6, 7),
         (6, 5), (6, 2), (7, 2)],
        5,
        (0, 1),
        7,
    ),
    "XOR10": (
        10,
        [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4),
         (5, 6), (3, 7), (6, 8), (4, 8), (5, 7), (7, 9), (8, 9)],
        0,
        (6, 9),
        3,
    ),
    "XNOR10": (
        10,
        [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4),
         (5, 6), (3, 7), (6, 8), (4, 8), (5, 7), (7, 9), (8, 9)],
        0,
        (6, 9),
        4,
    ),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def builtin(name: str) -> GadgetConfig:
    """Look up a built-in gadget by its fixture name."""
    try:
        n, edges, anchor, inputs, output = _FIXTURES[name.upper()]
    except KeyError:
        raise UnknownFixture(
            f"no fixture named {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    g = Graph.from_edges(n, edges)
    return GadgetConfig(g, RoleLabeling(anchor, inputs, output))
