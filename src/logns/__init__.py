"""Split-step spectral solver and verification harness for the logarithmic
Schrodinger equation i u_t + Lap u + lam u ln(|u|^2) = 0 and its regularized
variant with nonlinearity 2 u ln(|u| + eps).
"""

from .data import DatumSpec, make_datum
from .diagnostics import (
    DiagnosticsRecord,
    energy,
    hs_gagliardo_norm,
    hs_growth_ratio,
    hs_norm,
    l2_distance,
    mass,
    measure,
)
from .geometry import (
    DomainKind,
    Field,
    GeometryError,
    GridGeometry,
    LatticeVelocity,
    galilean_boost,
    odd_extension,
    restrict_to_half,
    scale_datum,
    zeros_field,
)
from .integrator import (
    IntegrationError,
    SimConfig,
    Trajectory,
    eps_continuation,
    evolve,
    evolve_pair,
    final_state,
    march,
    step,
)
from .spectral import (
    free_propagator,
    hs_multiplier_norm,
    truncate_modes,
)

__version__ = "0.1.0"
