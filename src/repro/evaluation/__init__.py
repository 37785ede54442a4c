"""Experiment drivers that regenerate every table and figure of the paper."""

from .compile_time import (
    CompileTiming,
    EditCost,
    IncrementalTiming,
    SimThroughput,
    chain_program,
    edit_chain_leaf,
    evaluation_designs,
    measure_compile_times,
    measure_edit_costs,
    measure_incremental_compile,
    measure_sim_throughput,
)
from .figures import (
    ConstraintCase,
    DividerPoint,
    figure1_waveforms,
    figure2_divider_tradeoffs,
    figure4_pipelined_waveform,
    figure5_constraint_catalogue,
    figure6_compilation_flow,
)
from .table1 import PAPER_TABLE1, Table1Row, audit_design, format_table1, table1
from .table2 import PAPER_TABLE2, Table2Row, format_table2, table2, validate_designs

__all__ = [
    "CompileTiming", "EditCost", "IncrementalTiming", "SimThroughput",
    "chain_program", "edit_chain_leaf", "evaluation_designs",
    "measure_compile_times", "measure_edit_costs",
    "measure_incremental_compile", "measure_sim_throughput",
    "ConstraintCase", "DividerPoint", "figure1_waveforms",
    "figure2_divider_tradeoffs", "figure4_pipelined_waveform",
    "figure5_constraint_catalogue", "figure6_compilation_flow",
    "PAPER_TABLE1", "Table1Row", "audit_design", "format_table1", "table1",
    "PAPER_TABLE2", "Table2Row", "format_table2", "table2", "validate_designs",
]
