"""Differential invariants and local equivalence of 4D metrics with a
two-dimensional Abelian Killing algebra."""

from .errors import (DegenerateTransformError, ExprSyntaxError,
                     FrameRequiredError, G2InvError,
                     InsufficientCoverageError, MetricDefinitionError,
                     SingularEvaluationError, SingularMetricError)
from .jets import Jet2, elementary, finite_difference_jet, seed
from .metrics import (G2Metric, PointJets, StratumFlags, catalog, classify,
                      load_metric, point_jets)

__all__ = [
    "DegenerateTransformError", "ExprSyntaxError",
    "FrameRequiredError", "G2InvError", "InsufficientCoverageError",
    "MetricDefinitionError", "SingularEvaluationError",
    "SingularMetricError",
    "Jet2", "elementary", "finite_difference_jet", "seed",
    "G2Metric", "PointJets", "StratumFlags", "catalog", "classify",
    "load_metric", "point_jets",
]

__version__ = "0.1.0"
