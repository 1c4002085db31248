"""Exact-arithmetic toolkit for the affine orbital graphs of the Sanov
generators inside the parabolic Z^2 x| SL(2, Z), and the subgroup rank
bounds they certify."""

# imported so that parabolic.cli.main resolves after a bare `import parabolic`
from . import cli
from .action import (
    DEFAULT_WITNESS,
    ORIGIN,
    MarkedPoint,
    WitnessSchedule,
    act,
    generator_power,
    loop_check,
    marked_point,
    witness_sweep,
    witness_word,
)
from .linear import (
    AffineElement,
    FreenessSweepResult,
    Mat2,
    U_AFF,
    U_MAT,
    V_AFF,
    V_MAT,
    Vec2,
    cocycle,
    eval_affine,
    eval_linear,
    freeness_sweep,
)
from .ranks import (
    AbelianGroupDescriptor,
    abelianization,
    intersection_rank_lower_bound,
    lattice_relation_matrix,
    membership,
    nielsen_schreier_rank,
    smith_normal_form,
    stabilizer_index,
)
from .schreier import (
    CoreReport,
    OrbitalGraph,
    build_ball,
    build_mod_q,
    certified_core,
    check_edge_consistency,
    core_exact,
    export,
    export_dot,
    export_json,
    is_loop_at_base,
    spanning_tree_generators,
    trace,
)
from .verify import VerificationReport, run_verification
from .words import Word, WordSyntaxError, concat, enumerate_reduced, invert, parse

__version__ = "0.1.0"
