"""The generic cycle-accurate test harness of Section 7.1."""

from .driver import (
    CapturedRun,
    CycleAccurateHarness,
    HarnessReport,
    LatencyAudit,
    Transaction,
    TransactionResult,
    audit_latency,
    harness_for,
)
from .fuzz import (
    DifferentialReport,
    differential_test,
    fuzz_against_golden,
    random_transactions,
)
from .spec import InterfaceSpec, PortTiming, spec_from_signature

__all__ = [
    "CapturedRun", "CycleAccurateHarness", "HarnessReport", "LatencyAudit",
    "Transaction", "TransactionResult", "audit_latency", "harness_for",
    "DifferentialReport", "differential_test", "fuzz_against_golden",
    "random_transactions",
    "InterfaceSpec", "PortTiming", "spec_from_signature",
]
