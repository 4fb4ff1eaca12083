"""nhgeom: biorthogonal quantum geometry of small non-Hermitian Hamiltonians.

Computes left/right eigensystems, biorthogonal fidelity and fidelity
susceptibility, locates and classifies exceptional points (Dirac vs
conventional), and extracts Jordan chains at defective degeneracies.
"""

__version__ = "0.1.0"

from .errors import (
    BandAmbiguityError,
    DimensionMismatchError,
    EPNotFoundError,
    LostTrackError,
    NhgeomError,
    NoDoubleEigenvalueError,
    NonFiniteError,
    NotDefectiveError,
    NormalizationBreakdownError,
    StepsTooLargeError,
)
from .linalg import (
    BiorthogonalEigensystem,
    eigendecompose,
    matrix_scale,
    null_space,
    solve_linear,
)
from .model import (
    HamiltonianFamily,
    ParameterPoint,
    SpinOperators,
    build_spin1,
    get_family,
    nv_family,
    nv_gradient,
    nv_hamiltonian,
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
