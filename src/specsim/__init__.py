"""specsim: a deterministic cycle-level out-of-order simulator for studying
how mis-speculated instructions perturb the timing of bound-to-retire ones,
how that timing turns into persistent cache replacement state through a
QLRU covert channel, and which invisible-speculation schemes that defeats.
"""

from .machine import EuClass, MachineConfig
from .memhier import CacheGeometry, CacheImage, CacheSet, Level, order_sensitivity
from .microprog import (
    AttackLayout,
    AttackParams,
    AttackScript,
    Gadget,
    MicroOp,
    MicroProgram,
    OpKind,
    Ordering,
    build_attack_program,
    format_program,
    parse_program,
)
from .pipeline import ExecutionTrace, SimulationDeadlock, run
from .schemes import SchemeId, scheme_spec
from .attacks import run_attack, sweep_error_vs_rate, vulnerability_matrix
from .seccheck import (
    bench_overhead,
    calibrate,
    check_ideal,
    check_ideal_differential,
    nospec,
    synth_suite,
)

__all__ = [
    "AttackLayout",
    "AttackParams",
    "AttackScript",
    "CacheGeometry",
    "CacheImage",
    "CacheSet",
    "EuClass",
    "ExecutionTrace",
    "Gadget",
    "Level",
    "MachineConfig",
    "MicroOp",
    "MicroProgram",
    "OpKind",
    "Ordering",
    "SchemeId",
    "SimulationDeadlock",
    "bench_overhead",
    "build_attack_program",
    "calibrate",
    "check_ideal",
    "check_ideal_differential",
    "format_program",
    "nospec",
    "order_sensitivity",
    "parse_program",
    "run",
    "run_attack",
    "scheme_spec",
    "sweep_error_vs_rate",
    "synth_suite",
    "vulnerability_matrix",
]
