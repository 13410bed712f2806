"""Conditioning of linear finite element matrices on anisotropic simplicial meshes.

Assembles stiffness and mass matrices for anisotropic diffusion on 1D/2D/3D
simplicial meshes, computes exact extreme eigenvalues, and evaluates
two-sided envelopes and calibrated condition-number bounds with and without
Jacobi diagonal scaling.
"""

from .assembly import (
    alt_scaling,
    apply_symmetric_scaling,
    assemble_mass,
    assemble_stiffness,
    jacobi_scaling,
)
from .bounds import (
    CalibrationConstant,
    ConditionBoundReport,
    QualityMeasures,
    auto_reference_subdivisions,
    calibrate_constant,
    condition_bounds,
    lambda_max_bounds,
    lambda_max_geometric_bound,
    lambda_min_bound,
    m_uniform_bound,
    mass_condition_bounds,
    quality_measures,
)
from .diffusion import (
    DiffusionField,
    FieldError,
    constant_field,
    element_averages,
    field_spectral_bounds,
    identity_field,
    parse_field_spec,
    rotated_anisotropic_field,
)
from .experiments import (
    StudyConfig,
    StudyRow,
    fit_loglog_slope,
    load_calibration,
    parse_study_config,
    run_study,
    save_calibration,
    write_study_csv,
)
from .mesh import (
    DegenerateElementError,
    MeshFormatError,
    MeshStatistics,
    SimplicialMesh,
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
    mesh_statistics,
    read_mesh,
    write_mesh,
)
from .spectral import (
    ConvergenceError,
    SpectralResult,
    cg_iteration_count,
    dense_eigenvalues_oracle,
    extreme_eigenvalues,
)

__version__ = "0.1.0"
