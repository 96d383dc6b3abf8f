"""Exception types shared across the package."""


class LadgetError(Exception):
    """Base class for every error raised by this library."""


class InvalidGraph6(LadgetError):
    """A graph6 record is malformed, has a header, or exceeds the size cap."""


class SizeUnsupported(InvalidGraph6):
    """An order beyond what this tool covers: generation past its cap, or a
    well-formed graph6 record for more than 32 vertices."""


class ArityMismatch(LadgetError):
    """Two configurations with different input counts were compared."""


class GraphTooSmall(LadgetError):
    """A graph has fewer vertices than the roles require."""


class TooLarge(LadgetError):
    """An exhaustive enumeration would exceed the safety bound."""


class UnknownFixture(LadgetError):
    """No built-in gadget is registered under the requested name."""


class TooManyInputs(LadgetError):
    """Embedding is only defined for gadgets with at most two inputs."""


class OrderOverflow(LadgetError):
    """Embedding would push the graph past the 32-vertex cap."""


class InvalidRoles(LadgetError):
    """A role labeling does not fit the graph (range, distinctness, arity)."""
