"""Exact-arithmetic toolkit for the affine orbital graphs of the Sanov
generators inside the parabolic Z^2 x| SL(2, Z), and the subgroup rank
bounds they certify.

Import each name from its module.  The package re-exports only the nine
that bench/ reads through it, until bench/ imports them from their modules.
"""

# imported so that parabolic.cli.main resolves after a bare `import parabolic`
from . import cli
from .action import DEFAULT_WITNESS
from .schreier import build_ball, build_mod_q, certified_core, core_exact, is_loop_at_base, trace
from .verify import run_verification
from .words import Word

__version__ = "0.1.0"
