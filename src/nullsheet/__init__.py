"""Light-like extremal surfaces in curved spacetimes.

The Cauchy problem for a light-like extremal surface reduces, through the
Burgers characteristic transform theta = vartheta + Lambda(vartheta) t, to
one geodesic per characteristic in the ambient spacetime.  This package
implements that reduction for Schwarzschild (and flat) backgrounds, with
closed-form oracle solutions for radial, circular and elliptic branches.
"""

__version__ = "0.1.0"

from .characteristics import (
    CharacteristicMap,
    burgers_residual_grid,
    map_from_initial_data,
)
from .elliptic import carlson_rf, complete_elliptic_k, elliptic_f
from .errors import (
    ConfigError,
    CoverageError,
    DegenerateDataError,
    DomainError,
    ExpressionError,
    MapBreakdownError,
    MapInversionError,
    NullsheetError,
    OracleMismatchError,
)
from .geodesic import (
    DriftReport,
    Event,
    GeodesicState,
    GeodesicTrajectory,
    SolverOptions,
    conserved_along,
    integrate,
    tangent_norm,
)
from .initial_data import (
    InitialCurve,
    curve_from_expressions,
    curve_from_samples,
    lambda0,
    lightlikeness_residual,
    validate_curve,
)
from .oracles import (
    OracleKind,
    OracleParams,
    check_oracle_consistency,
    make_oracle,
)
from .reduction import (
    CaseLabel,
    ConservedSet,
    CubicProfile,
    conserved_from_data,
    cubic_coefficients,
    example2_coefficients,
    example2_roots,
    example3_roots,
    profile_from_data,
    rt_squared,
    solve_cubic,
)
from .spacetime import (
    InducedMetric,
    SchwarzschildParams,
    Spacetime,
    christoffel_from_metric,
    induced_metric,
    minkowski,
    minkowski_spherical,
    schwarzschild,
)
from .surface import (
    DeltaReport,
    SurfaceMesh,
    build_surface,
    delta_monitor,
    export_csv,
    export_json,
    import_csv,
    import_json,
    wrap_offset_from_curve,
)

__all__ = [
    "CharacteristicMap", "burgers_residual_grid", "map_from_initial_data",
    "carlson_rf", "complete_elliptic_k", "elliptic_f",
    "ConfigError", "CoverageError", "DegenerateDataError", "DomainError",
    "ExpressionError", "MapBreakdownError", "MapInversionError",
    "NullsheetError", "OracleMismatchError",
    "DriftReport", "Event", "GeodesicState", "GeodesicTrajectory",
    "SolverOptions", "conserved_along", "integrate", "tangent_norm",
    "ConservedSet", "InitialCurve", "conserved_from_data", "curve_from_expressions",
    "curve_from_samples", "lambda0", "lightlikeness_residual", "validate_curve",
    "OracleKind", "OracleParams", "check_oracle_consistency", "make_oracle",
    "CaseLabel", "CubicProfile", "cubic_coefficients",
    "example2_coefficients", "example2_roots", "example3_roots",
    "profile_from_data", "rt_squared", "solve_cubic",
    "InducedMetric", "SchwarzschildParams", "Spacetime",
    "christoffel_from_metric", "induced_metric", "minkowski",
    "minkowski_spherical", "schwarzschild",
    "DeltaReport", "SurfaceMesh", "build_surface", "delta_monitor",
    "export_csv", "export_json", "import_csv", "import_json",
    "wrap_offset_from_curve",
    # the submodules
    "characteristics", "elliptic", "errors", "expressions", "geodesic",
    "initial_data", "oracles", "reduction", "spacetime", "surface",
]
