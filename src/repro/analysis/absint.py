"""Generic worklist abstract interpreter over the IR CFG.

The bit-vector solver in :mod:`repro.analysis.dataflow` covers the
classic gen/kill problems; this engine complements it for *non-bitset*
lattices — interval analysis, origin tracking, frequency propagation —
where the transfer functions are arbitrary Python and termination needs
widening.

A client implements :class:`AbstractDomain`:

* ``entry_state`` — the boundary state (function entry for forward
  problems, every exit block for backward ones).
* ``join`` / ``widen`` / ``equal`` — the lattice operations.  ``widen``
  defaults to ``join``; the engine applies it at the targets of
  retreating edges once a block has been revisited ``widen_after``
  times, which is what guarantees termination on infinite-height
  lattices.
* ``transfer_instruction`` (or ``transfer_block``) — the abstract
  semantics.
* ``transfer_edge`` — optional per-edge refinement.  Returning ``None``
  marks the edge *infeasible* (e.g. a branch whose condition interval
  excludes that direction), which is how interval analysis proves
  blocks unreachable beyond plain CFG reachability.

Unreachable state is represented by the engine itself, not the domain:
a block whose in-state is still ``None`` after the fixed point was never
reached by any feasible path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.ir.cfg import predecessors, reverse_postorder, successor_map
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction

S = TypeVar("S")


class AbstractDomain(Generic[S]):
    """Lattice plus abstract semantics for one analysis.

    Attributes:
        forward: Direction of propagation.
        widen_after: Number of visits to a widening point before
            :meth:`widen` replaces :meth:`join` there.
    """

    forward: bool = True
    widen_after: int = 2

    # -- lattice ---------------------------------------------------------
    def entry_state(self, func: Function) -> S:
        """Boundary state at the entry (forward) or exits (backward)."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def widen(self, old: S, new: S) -> S:
        """Extrapolate at widening points; defaults to :meth:`join`."""
        return self.join(old, new)

    def equal(self, a: S, b: S) -> bool:
        return bool(a == b)

    # -- semantics -------------------------------------------------------
    def transfer_instruction(self, instr: Instruction, state: S) -> S:
        return state

    def transfer_block(self, func: Function, block: BasicBlock, state: S) -> S:
        """Fold :meth:`transfer_instruction` over the block (reversed for
        backward problems)."""
        instrs = block.instructions if self.forward else list(reversed(block.instructions))
        for instr in instrs:
            state = self.transfer_instruction(instr, state)
        return state

    def transfer_edge(
        self, func: Function, src: BasicBlock, dst_label: str, state: S
    ) -> S | None:
        """Refine ``state`` along the CFG edge ``src -> dst_label``
        (``dst_label -> src`` for backward problems).  ``None`` marks the
        edge infeasible."""
        return state


@dataclass(eq=False, slots=True)
class AbsintResult(Generic[S]):
    """Fixed point of one abstract interpretation.

    ``in_states[label] is None`` means no feasible path reaches the
    block — a strictly stronger claim than CFG unreachability when the
    domain refines branch edges.
    """

    in_states: dict[str, S | None] = field(default_factory=dict)
    out_states: dict[str, S | None] = field(default_factory=dict)
    iterations: int = 0

    def reachable(self, label: str) -> bool:
        return self.in_states.get(label) is not None


def _widening_points(func: Function, order: list[str]) -> set[str]:
    """Targets of retreating edges w.r.t. the iteration order — a
    superset of the natural-loop headers, cheap to compute and correct
    for irreducible graphs too."""
    position = {label: i for i, label in enumerate(order)}
    succ = successor_map(func)
    points: set[str] = set()
    for label in order:
        for nxt in succ[label]:
            if position.get(nxt, 1 << 30) <= position[label]:
                points.add(nxt)
    return points


def interpret(func: Function, domain: AbstractDomain[S]) -> AbsintResult[S]:
    """Run ``domain`` over ``func`` to a fixed point and return per-block
    states (``None`` = unreachable)."""
    if not func.blocks:
        return AbsintResult(in_states={}, out_states={})

    rpo = reverse_postorder(func)
    succ = successor_map(func)
    preds = predecessors(func)
    blocks = {blk.label: blk for blk in func.blocks}

    if domain.forward:
        order = rpo
        inputs_of = preds
        outputs_of = succ
        boundary = {func.entry.label}
    else:
        order = list(reversed(rpo))
        inputs_of = succ
        outputs_of = preds
        boundary = {label for label in blocks if not succ[label]}

    in_states: dict[str, S | None] = {label: None for label in blocks}
    out_states: dict[str, S | None] = {label: None for label in blocks}
    visits: dict[str, int] = {label: 0 for label in blocks}
    widen_at = _widening_points(func, order)

    work: deque[str] = deque(order)
    queued = set(order)
    iterations = 0
    while work:
        label = work.popleft()
        queued.discard(label)
        iterations += 1

        # join incoming edge states (with per-edge refinement)
        incoming: S | None = domain.entry_state(func) if label in boundary else None
        for other in inputs_of[label]:
            out = out_states[other]
            if out is None:
                continue
            if domain.forward:
                edge_state = domain.transfer_edge(func, blocks[other], label, out)
            else:
                edge_state = domain.transfer_edge(func, blocks[label], other, out)
            if edge_state is None:
                continue  # infeasible edge
            incoming = (
                edge_state if incoming is None else domain.join(incoming, edge_state)
            )
        if incoming is None:
            continue  # still unreachable

        old_in = in_states[label]
        if old_in is not None:
            visits[label] += 1
            if label in widen_at and visits[label] >= domain.widen_after:
                incoming = domain.widen(old_in, incoming)
            else:
                incoming = domain.join(old_in, incoming)
            if domain.equal(old_in, incoming):
                continue
        in_states[label] = incoming

        new_out = domain.transfer_block(func, blocks[label], incoming)
        old_out = out_states[label]
        if old_out is not None and domain.equal(old_out, new_out):
            continue
        out_states[label] = new_out
        for nxt in outputs_of[label]:
            if nxt not in queued:
                queued.add(nxt)
                work.append(nxt)

    return AbsintResult(in_states=in_states, out_states=out_states, iterations=iterations)

