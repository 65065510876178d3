"""Partition datatype and legality checking.

A :class:`Partition` records, for one function's RDG, which nodes were
assigned to the FPa subsystem, plus the communication sets of the
advanced scheme:

* ``copies`` (S_copy) — INT nodes whose result is copied into the FP
  file with a ``cp_to_comp`` so their FPa children can read it.
* ``dups`` (S_dupl) — INT nodes re-executed in FPa with their ``.a``
  twin, eliminating communication.
* ``back_copies`` — FPa producers of call arguments / return values
  whose result is copied back with ``cp_from_comp`` (paper §6.4, the one
  place copies run FPa -> INT).

:func:`check_partition` enforces the paper's partitioning conditions
(§5.1 as generalized by §6): the partitions are disjoint, pinned nodes
are respected, and every cross-partition register edge is mediated by a
copy, a duplicate, or an allowed calling-convention edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import PartitionError
from repro.ir.opcodes import OpKind
from repro.rdg.graph import RDG, Node, Part, Pin


@dataclass(eq=False, slots=True)
class Partition:
    """The result of partitioning one function.

    ``fp`` holds the FPa-partition nodes; every other RDG node is in the
    INT partition (the two are disjoint by construction, condition 1 of
    §5.1).
    """

    rdg: RDG
    fp: set[Node] = field(default_factory=set)
    copies: set[Node] = field(default_factory=set)
    dups: set[Node] = field(default_factory=set)
    back_copies: set[Node] = field(default_factory=set)
    scheme: str = "none"

    def int_nodes(self) -> list[Node]:
        return [n for n in self.rdg.nodes if n not in self.fp]

    def fp_fraction_static(self) -> float:
        """Fraction of RDG nodes assigned to FPa (static measure)."""
        if not self.rdg.nodes:
            return 0.0
        return len(self.fp) / len(self.rdg.nodes)


def _is_cut_edge(rdg: RDG, src: Node, dst: Node) -> bool:
    """Edges out of copy instructions legally cross partitions (the copy
    *is* the communication)."""
    return rdg.instruction(src).kind is OpKind.COPY


def iter_partition_violations(
    partition: Partition,
) -> Iterator[tuple[str, Node | None]]:
    """Yield every violation of the partitioning conditions as
    ``(message, offending node)``.

    Checks, for RDG ``G`` with FPa partition ``F`` and INT partition
    ``I``:

    1. ``F`` respects pins: no INT-pinned node in ``F``, every FP-pinned
       node in ``F``.
    2. Every edge ``u -> v`` with ``u in I, v in F`` has ``u`` in
       ``copies | dups`` (basic scheme: such edges must not exist at
       all, which follows since its copy sets are empty).
    3. Every edge ``u -> v`` with ``u in F, v in I`` is either a
       convention edge with ``u`` in ``back_copies``, or an edge out of
       a pre-existing copy instruction.
    4. Copy/dup/back-copy membership is consistent (copies and dups are
       INT nodes that define a register; back-copies are FPa nodes).
    5. Duplicated nodes are duplicable and their parents are available
       in FPa (in ``F`` or themselves copied/duplicated).

    :func:`check_partition` raises on the first yielded violation; the
    lint partition-legality rule reports them all.
    """
    from repro.partition.copydup import is_duplicable

    rdg = partition.rdg
    fp = partition.fp

    for node in fp:
        if rdg.pin.get(node) is Pin.INT:
            yield f"{node!r} is INT-pinned but assigned to FPa", node
    for node, pin in rdg.pin.items():
        if pin is Pin.FP and node not in fp:
            yield f"{node!r} is FP-pinned but assigned to INT", node

    for node in partition.copies | partition.dups:
        if node in fp:
            yield f"copy/dup site {node!r} must be an INT node", node
        instr = rdg.instruction(node)
        has_def = bool(instr.defs) and not (
            instr.kind is OpKind.STORE
        )
        if node.part is Part.ADDR:
            yield f"address node {node!r} cannot be copied/duplicated", node
        elif not has_def:
            yield f"copy/dup site {node!r} defines no register", node
    for node in partition.dups:
        if not is_duplicable(rdg.instruction(node), node):
            yield f"{node!r} is not duplicable", node
        for parent in rdg.preds[node]:
            if parent == node:
                continue  # self-dependence satisfied by the twin itself
            if parent in fp or parent in partition.copies or parent in partition.dups:
                continue
            if _is_cut_edge(rdg, parent, node):
                continue
            yield (
                f"duplicated node {node!r} has parent {parent!r} unavailable in FPa",
                node,
            )
    for node in partition.back_copies:
        if node not in fp:
            yield f"back-copy site {node!r} must be an FPa node", node

    for src in rdg.nodes:
        for dst in rdg.succs[src]:
            src_fp = src in fp
            dst_fp = dst in fp
            if src_fp == dst_fp:
                continue
            if _is_cut_edge(rdg, src, dst):
                continue
            if not src_fp and dst_fp:
                if src not in partition.copies and src not in partition.dups:
                    yield f"uncompensated INT->FPa edge {src!r} -> {dst!r}", src
            else:
                if (src, dst) in rdg.convention_edges and src in partition.back_copies:
                    continue
                yield f"illegal FPa->INT edge {src!r} -> {dst!r}", src


def check_partition(partition: Partition) -> None:
    """Raise :class:`PartitionError` on the first violation found by
    :func:`iter_partition_violations`; silent when the partition is
    legal."""
    for message, _node in iter_partition_violations(partition):
        raise PartitionError(message)


def partition_stats(partition: Partition) -> dict[str, int]:
    """Static summary counts for reports and tests."""
    rdg = partition.rdg
    offloaded_instrs = {
        node.uid
        for node in partition.fp
        if node.part is Part.WHOLE and not rdg.instruction(node).info.fp_subsystem
    }
    return {
        "nodes": len(rdg.nodes),
        "fp_nodes": len(partition.fp),
        "offloaded_instructions": len(offloaded_instrs),
        "copies": len(partition.copies),
        "dups": len(partition.dups),
        "back_copies": len(partition.back_copies),
    }
