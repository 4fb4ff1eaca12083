"""nhgeom: biorthogonal quantum geometry of small non-Hermitian Hamiltonians.

Computes left/right eigensystems, biorthogonal fidelity and fidelity
susceptibility, locates and classifies exceptional points (Dirac vs
conventional), and extracts Jordan chains at defective degeneracies.
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    BandAmbiguityError,
    DimensionMismatchError,
    EPNotFoundError,
    LostTrackError,
    NhgeomError,
    NoDoubleEigenvalueError,
    NonFiniteError,
    NotDefectiveError,
    NormalizationBreakdownError,
)
from .linalg import (
    BiorthogonalEigensystem,
    eigendecompose,
    matrix_scale,
)
from .model import (
    HamiltonianFamily,
    ParameterPoint,
    get_family,
    nv_family,
)
from .spectral import (
    EPKind,
    EPLocation,
    Phase,
    PhaseLabel,
    classify_phase,
    discriminant,
    find_ep_on_segment,
    trace_exceptional_line,
)
from .geometry import (
    Displacement,
    FidelityResult,
    ScanCell,
    SusceptibilityResult,
    Sweep,
    fidelity,
    grid_scan,
    line_scan,
    polar_sweep,
    straddle_fidelity,
    susceptibility,
)
from .jordan import (
    DispersionDiagnostic,
    JordanChain,
    a_coefficient,
    classify_ep,
    jordan_chain,
    sqrt_coefficient,
)
