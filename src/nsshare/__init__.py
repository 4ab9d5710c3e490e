"""Sequential sharing of genuine tripartite nonlocality.

Exact density-matrix simulation of an Alice/Bob/many-Charlies protocol on
generalized GHZ states, evaluation of the five-correlator inequality per
round, and independent certification of genuine nonsignaling nonlocality by
linear-programming membership in the hybrid local-nonlocal polytope.
"""

from .behavior_io import import_behavior
from .certifier import (
    DecompositionResult,
    VertexSet,
    hybrid_vertices,
    lp_feasible,
)
from .engine import (
    BehaviorTable,
    behavior,
    luders_update,
    no_signaling_residual,
    run_sequence,
    run_stack,
)
from .inequality import (
    NS2_BOUND,
    closed_form_ns2,
    is_violation,
    ns2_orbit,
    ns2_value,
    ns2_values,
)
from .measurements import (
    GammaSchedule,
    charlie_setting,
    gamma_sequence,
    validity_region,
)
from .states import build_gghz

__version__ = "0.1.0"
