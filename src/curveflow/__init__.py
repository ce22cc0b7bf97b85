"""Structure-preserving finite element schemes for curve diffusion of closed
planar curves: geometry, scheme engines, diagnostics and a CLI."""

from .geometry import (
    PolygonalCurve,
    generate_ellipse,
    generate_mikula,
    generate_rectangle,
    is_simple,
    mesh_ratio,
    perimeter,
    read_snapshot,
    signed_area,
    write_snapshot,
)
from .femcore import (
    NewtonIterate,
    ReferenceGeometry,
    SchemeContext,
    assemble_newton_blocks,
    initial_curvature,
)
from .linalg import (
    BorderedSystem,
    EquilibriumDegeneracyError,
    SingularCoreError,
    SolverError,
    assemble_system,
    solve_bordered,
)
from .metrics import (
    ConvergenceRow,
    DiagnosticsRow,
    DiagnosticsSeries,
    eoc,
    manifold_distance,
    polygon_intersection_area,
    write_diagnostics_csv,
    write_eoc_csv,
)
from .schemes import (
    SCHEMES,
    NewtonDivergenceError,
    RunResult,
    SchemeConfig,
    SchemeError,
    SchemeState,
    Snapshot,
    StepReport,
    bdf_coefficients,
    newton_outer,
    run,
    run_modified,
    startup,
    step,
)
from .app import cli_converge, cli_distance, cli_simulate, main

__version__ = "0.1.0"
