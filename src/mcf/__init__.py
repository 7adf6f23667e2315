"""Graph models of multidimensional continued fraction algorithms."""

from .graph import (
    Edge,
    GraphError,
    SimplicialSystem,
    check_non_degenerating,
    degenerate_subgraph,
    find_positive_path,
    strongly_connected_components,
)
from .induction import (
    BoundaryTieError,
    HoleReachedError,
    MaxStepsExceeded,
    in_cylinder,
    induced_step,
    orbit,
)
from .catalog import NAMES as CATALOG_NAMES
from .catalog import DomainEscape, build, conjugacy_check
from .stochastic import (
    Jump,
    JumpCoord,
    Lose,
    StepCount,
    StoppingTime,
    Win,
    cylinder_measure,
    edge_law,
    estimate_order_prob,
    sample_walk,
)
from .thermo import (
    asymptotic_gasket_bound,
    build_induced_alphabet,
    hausdorff_bound,
    pressure_analysis,
    solve_kappa,
)

__version__ = "0.1.0"
