"""Straggler-tolerant coded MapReduce shuffle schemes from placement delivery
arrays, with exact-rational load verification."""

from .bits import Bits, block_stream, fnv1a64, le64
from .constructions import (
    ArrayTooLargeError,
    full_star_pda,
    man_pda,
    p1_pda,
    p2_pda,
    stack_pda,
)
from .engine import (
    ActiveSetPlan,
    DivisibilityError,
    EngineDefectError,
    JobSpec,
    LoadReport,
    Placement,
    TranscriptReport,
    Workload,
    build_placement,
    job_geometry,
    measure_loads,
    plan_active_set,
    run_transcript,
)
from .loads import (
    BETA_BOUND,
    InsufficientTauError,
    LoadPair,
    NoMatchingFamilyError,
    Prop1Report,
    TradeoffCurve,
    achieved_load,
    comb,
    optimal_file_complexity,
    optimal_load,
    prop1_check,
    tradeoff_curve,
    u_value,
    z_value,
)
from .pda import (
    STAR,
    EmptyStarRowError,
    ParameterError,
    Pda,
    PdaFormatError,
    PdaStats,
    PdaValidationError,
    ValidationReport,
    Violation,
    column_subarray,
    parse_pda,
    pda_stats,
    render_pda,
    validate_pda,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSetPlan", "ArrayTooLargeError", "BETA_BOUND", "Bits",
    "DivisibilityError",
    "EmptyStarRowError", "EngineDefectError", "InsufficientTauError",
    "JobSpec", "LoadPair", "LoadReport", "NoMatchingFamilyError",
    "ParameterError", "Pda",
    "PdaFormatError", "PdaStats", "PdaValidationError", "Placement",
    "Prop1Report", "STAR", "TradeoffCurve", "TranscriptReport",
    "ValidationReport", "Violation", "Workload", "achieved_load",
    "block_stream", "build_placement", "column_subarray", "comb",
    "full_star_pda", "fnv1a64", "job_geometry", "le64", "man_pda",
    "measure_loads", "optimal_file_complexity",
    "optimal_load", "p1_pda", "p2_pda", "parse_pda", "pda_stats",
    "plan_active_set", "prop1_check", "render_pda",
    "run_transcript", "stack_pda", "tradeoff_curve", "u_value",
    "validate_pda", "z_value",
]
