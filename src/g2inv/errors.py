"""Exception types shared across the package."""


class G2InvError(Exception):
    """Base class for all package errors."""


class SingularEvaluationError(G2InvError):
    """A pointwise operation hit a singular value (division by zero,
    log of a non-positive number, ...)."""

    def __init__(self, what, value, context=None):
        self.what = what
        self.value = value
        self.context = context
        msg = f"singular evaluation in {what!r} at value {value!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ExprSyntaxError(G2InvError):
    """Expression text failed to parse; carries the byte offset."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")


class ExprDepthError(G2InvError):
    """An expression is nested deeper than its recursive walks can go."""


class MetricDefinitionError(G2InvError):
    """A metric document is malformed or references unknown names."""


class SingularMetricError(G2InvError):
    """det h or det g-tilde vanished at a queried point."""


class DegenerateTransformError(G2InvError):
    """Pseudogroup transform with vanishing Jacobian or singular alpha."""


class InsufficientCoverageError(G2InvError):
    """Too few generic samples were retained to build a signature."""
