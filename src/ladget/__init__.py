"""Graph gadgets computing Boolean functions under proper 3-coloring.

The library verifies, searches for, and transforms ladgets: graphs with an
anchor vertex, input vertices, and an output vertex, where fixing the anchor
to color 0 makes every proper coloring compute a Boolean function from the
inputs to the output (color 0 is false, any other color is true).
"""

from .coloring import all_colorings
from .embed import EmbeddedLadget, embed_to_k, verify_embedding
from .errors import (
    ArityMismatch,
    GraphTooSmall,
    InvalidGraph6,
    InvalidRoles,
    LadgetError,
    OrderOverflow,
    SizeUnsupported,
    TooLarge,
    TooManyInputs,
    UnknownFixture,
)
from .filters import FilterVerdict, structural_filter
from .gadget import (
    BooleanFunction,
    ColorMapping,
    GadgetConfig,
    TruthTable,
    VerificationReport,
    builtin,
    check_universality,
    classify,
    compute_mapping,
    verify_ladget,
)
from .graphcore import (
    Graph,
    RoleLabeling,
    decode_graph6,
    encode_graph6,
    generate_connected,
    roles_isomorphic,
)
from .search import (
    Hit,
    SearchOptions,
    SearchReport,
    enumerate_configs,
    rarity_stats,
    search_stream,
)

__version__ = "0.1.0"
# Everything runs on Python and numpy; the benchmark stamps this on its runs.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "ArityMismatch",
    "BooleanFunction",
    "ColorMapping",
    "EmbeddedLadget",
    "FilterVerdict",
    "GadgetConfig",
    "Graph",
    "GraphTooSmall",
    "Hit",
    "InvalidGraph6",
    "InvalidRoles",
    "LadgetError",
    "OrderOverflow",
    "RoleLabeling",
    "SearchOptions",
    "SearchReport",
    "SizeUnsupported",
    "TooLarge",
    "TooManyInputs",
    "TruthTable",
    "UnknownFixture",
    "VerificationReport",
    "all_colorings",
    "builtin",
    "check_universality",
    "classify",
    "compute_mapping",
    "decode_graph6",
    "embed_to_k",
    "encode_graph6",
    "enumerate_configs",
    "generate_connected",
    "rarity_stats",
    "roles_isomorphic",
    "search_stream",
    "structural_filter",
    "verify_ladget",
    "verify_embedding",
]
