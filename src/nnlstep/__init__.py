"""Numerics for the focusing nonlocal NLS equation with an asymmetric
step background: scattering data, long-time asymptotic profiles, and a
direct method-of-lines solver used as an independent oracle."""

__version__ = "0.1.0"

from .branches import CutSide, background_matrix, f, h, w
from .errors import (
    BlowupDetected,
    BranchDomainError,
    BranchPointError,
    BranchPointProximity,
    DivisionByZeroSpectral,
    GridTooCoarse,
    InconclusiveWinding,
    MissingNormingConstant,
    NnlstepError,
    PoleOnContour,
    RegionMismatch,
    SingularStation,
    SolitonPole,
    ToleranceNotMet,
    WindingOutOfRange,
)
from .nnls_sim import Field, Grid, SimConfig, SolitonSpec, compare, evolve, init_field, step
from .phase import Direction, RegionTag, classify, critical_points, signature_table, theta
from .rh_asymptotics import (
    AsymptoticParams,
    DeltaData,
    F_at,
    F_infinity,
    F_plus_at_zero,
    central_params,
    delta_data,
    modulated_params,
    q_central,
    q_modulated,
    q_soliton,
    q_transition,
    transition_continuous_at_zero,
    transition_dA,
    transition_params,
)
from .spectral import (
    AssumptionReport,
    InitialData,
    Source,
    SpectralData,
    StepProfile,
    check_assumptions,
    jost_spectral,
    reflection,
    soliton_spectral,
    step_spectral,
)
