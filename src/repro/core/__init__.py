"""The paper's contribution: balanced orientations and the estimators."""

from .balanced import BalancedOrientation
from .bulk import from_graph, static_balanced_orientation
from .coreness import CorenessDecomposition
from .coreness_fixed import FixedHCorenessEstimator
from .density import DensityEstimator
from .density_fixed import FixedHDensityGuard
from .duplicated import DuplicatedBalanced
from .levels import is_h_balanced_edge, levkey
from .lowoutdegree import LowOutDegree
from .queries import CorenessMonitor, extract_dense_set, pseudoforest_decomposition
from .stats import coreness_stats, density_stats, orientation_stats
from .sampling import ConcentrationBand, EdgeSampler, expected_band, sample_graph

__all__ = [
    "BalancedOrientation",
    "ConcentrationBand",
    "CorenessDecomposition",
    "CorenessMonitor",
    "DensityEstimator",
    "DuplicatedBalanced",
    "EdgeSampler",
    "FixedHCorenessEstimator",
    "FixedHDensityGuard",
    "LowOutDegree",
    "expected_band",
    "extract_dense_set",
    "is_h_balanced_edge",
    "levkey",
    "pseudoforest_decomposition",
    "sample_graph",
    "coreness_stats",
    "density_stats",
    "orientation_stats",
    "from_graph",
    "static_balanced_orientation",
]
