"""Code partitioning — the paper's contribution.

Two schemes split a function's RDG into an INT partition and an FPa
partition:

* :func:`repro.partition.basic.basic_partition` — §5's basic scheme: no
  new instructions; undirected connected components containing a
  load/store address, call, return, or otherwise INT-pinned node go to
  INT, everything else to FPa.
* :func:`repro.partition.advanced.advanced_partition` — §6's advanced
  scheme: profile-driven cost model, copy instructions
  (``cp_to_comp``/``cp_from_comp``), code duplication, and
  calling-convention interaction.

:func:`repro.partition.rewrite.apply_partition` rewrites the function,
replacing offloaded opcodes with their ``.a`` twins, converting memory
ops whose data lives in the FP file to ``l.s``/``s.s``, and materializing
copies and duplicates.  :mod:`repro.partition.program` is the one
pipeline that partitions, audits and rewrites a whole program.
"""

from repro.partition.partition import Partition, check_partition, partition_stats
from repro.partition.basic import basic_partition
from repro.partition.advanced import advanced_partition
from repro.partition.cost import CostParams, ExecutionProfile, estimate_profile
from repro.partition.copydup import CopyDupDecider, is_duplicable
from repro.partition.rewrite import apply_partition
from repro.partition.interproc import FpArgDecisions, decide_fp_arguments
from repro.partition.program import ProgramPartitionResult, partition_program
from repro.partition.report import (
    annotate_partition,
    offload_by_opcode,
    partition_summary_table,
)

__all__ = [
    "Partition",
    "check_partition",
    "partition_stats",
    "basic_partition",
    "advanced_partition",
    "CostParams",
    "ExecutionProfile",
    "estimate_profile",
    "CopyDupDecider",
    "is_duplicable",
    "apply_partition",
    "FpArgDecisions",
    "decide_fp_arguments",
    "ProgramPartitionResult",
    "partition_program",
    "annotate_partition",
    "offload_by_opcode",
    "partition_summary_table",
]
