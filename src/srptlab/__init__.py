"""srptlab: exact-arithmetic SRPT scheduling simulator and analysis verifier.

The package simulates Shortest-Remaining-Processing-Time scheduling on
identical machines with a rational speed multiplier, compares the result
against reference schedules (including a brute-force optimum at desk scale),
and verifies the amortized-analysis conditions behind the scheduler's
competitive guarantees, all in exact rational arithmetic.
"""

from .analysis import (
    AnalysisError,
    CheckRecord,
    ConditionReports,
    PairContext,
    PotentialReport,
    VerifyReport,
    check_backlog_bound,
    check_completion_charge,
    check_flow_conditions,
    check_power_flow_conditions,
    make_context,
    objectives,
    report_to_json,
    verify,
)
from .core import (
    ExecutionTrace,
    FlowSummary,
    Instance,
    InstanceError,
    Job,
    Segment,
    SpeedConfig,
    TraceError,
    UNIT_SPEED,
    make_instance,
    validate_instance,
    validate_trace,
)
from .engine import (
    EngineError,
    fifo_priority,
    longest_remaining_priority,
    simulate_policy,
    simulate_srpt,
    srpt_priority,
)
from .formats import (
    ParseError,
    dump_json,
    parse_instance,
    serialize_instance,
    trace_from_json,
    trace_to_json,
)
from .oracle import (
    OracleError,
    OracleResult,
    brute_force_opt,
)
from .rationals import Rational, RationalParseError, decimal_str, kth_root_str, rat
from .workload import FAMILIES, GenSpec, WorkloadError, generate

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CheckRecord",
    "ConditionReports",
    "EngineError",
    "ExecutionTrace",
    "FAMILIES",
    "FlowSummary",
    "GenSpec",
    "Instance",
    "InstanceError",
    "Job",
    "OracleError",
    "OracleResult",
    "PairContext",
    "ParseError",
    "PotentialReport",
    "Rational",
    "RationalParseError",
    "Segment",
    "SpeedConfig",
    "TraceError",
    "UNIT_SPEED",
    "VerifyReport",
    "WorkloadError",
    "brute_force_opt",
    "check_backlog_bound",
    "check_completion_charge",
    "check_flow_conditions",
    "check_power_flow_conditions",
    "decimal_str",
    "dump_json",
    "fifo_priority",
    "generate",
    "kth_root_str",
    "longest_remaining_priority",
    "make_context",
    "make_instance",
    "objectives",
    "parse_instance",
    "rat",
    "report_to_json",
    "serialize_instance",
    "simulate_policy",
    "simulate_srpt",
    "srpt_priority",
    "trace_from_json",
    "trace_to_json",
    "validate_instance",
    "validate_trace",
    "verify",
]
