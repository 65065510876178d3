"""RDG node and graph types.

A node is ``(uid, part)``: ``Part.WHOLE`` for ordinary instructions,
``Part.ADDR``/``Part.VALUE`` for the two halves of a split load or store.
Each node carries a *pin* describing where the partitioner may place it:

* ``Pin.INT`` — must execute in the integer subsystem: address nodes,
  calls/returns/params (calling conventions), jumps, integer opcodes with
  no FPa twin (multiply, divide, ...), byte-memory value halves, and
  ``cp_to_comp``.
* ``Pin.FP`` — already executes in the (augmented) FP subsystem: true
  floating-point operations, ``l.s``/``s.s`` value halves, existing
  ``.a`` opcodes, and ``cp_from_comp``.
* ``None`` — free: the partitioner decides (offloadable integer ALU ops,
  branches with ``.a`` twins, word-load/store value halves, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.ir.function import Function
from repro.ir.instructions import Instruction


class Part(enum.Enum):
    """Which piece of an instruction a node represents."""

    WHOLE = "whole"
    ADDR = "addr"
    VALUE = "value"


class Pin(enum.Enum):
    """Mandatory placement of a node, if any."""

    INT = "int"
    FP = "fp"


@dataclass(frozen=True, slots=True)
class Node:
    """One RDG node: instruction ``uid``, instruction ``part``."""

    uid: int
    part: Part = Part.WHOLE

    def __hash__(self) -> int:
        # the generated hash((uid, part)) exactly (an enum member hashes
        # as its name), minus the Python-level Enum.__hash__ call
        return hash((self.uid, self.part._name_))

    def __repr__(self) -> str:
        if self.part is Part.WHOLE:
            return f"n{self.uid}"
        return f"n{self.uid}{self.part.value[0]}"  # n12a / n12v


@dataclass(eq=False, slots=True)
class RDG:
    """The register dependence graph of one function.

    Attributes:
        func: The function this graph describes.
        nodes: All nodes.
        succs / preds: Directed register def-use adjacency.
        pin: Mandatory placements (absent keys are free nodes).
        instr_of: uid -> instruction.
        block_of: uid -> containing block label.
        convention_edges: The subset of edges into call/ret nodes that
            calling conventions allow to be satisfied by a
            ``cp_from_comp`` instead of forcing the producer into INT
            (paper §6.4).
    """

    func: Function
    nodes: list[Node] = field(default_factory=list)
    succs: dict[Node, list[Node]] = field(default_factory=dict)
    preds: dict[Node, list[Node]] = field(default_factory=dict)
    pin: dict[Node, Pin] = field(default_factory=dict)
    instr_of: dict[int, Instruction] = field(default_factory=dict)
    block_of: dict[int, str] = field(default_factory=dict)
    convention_edges: set[tuple[Node, Node]] = field(default_factory=set)

    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        self.succs[node] = []
        self.preds[node] = []
        return node

    def add_edge(self, src: Node, dst: Node) -> None:
        if dst not in self.succs[src]:
            self.succs[src].append(dst)
            self.preds[dst].append(src)

    def instruction(self, node: Node) -> Instruction:
        return self.instr_of[node.uid]

    def block(self, node: Node) -> str:
        return self.block_of[node.uid]

    def parents(self, node: Node) -> list[Node]:
        return self.preds[node]

    def children(self, node: Node) -> list[Node]:
        return self.succs[node]

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    def undirected_components(self) -> list[set[Node]]:
        """Connected components of the undirected version of the graph
        (the basic partitioning scheme's unit of assignment, §5.2)."""
        seen: set[Node] = set()
        components: list[set[Node]] = []
        for start in self.nodes:
            if start in seen:
                continue
            comp: set[Node] = set()
            work = [start]
            seen.add(start)
            while work:
                node = work.pop()
                comp.add(node)
                for other in self.succs[node]:
                    if other not in seen:
                        seen.add(other)
                        work.append(other)
                for other in self.preds[node]:
                    if other not in seen:
                        seen.add(other)
                        work.append(other)
            components.append(comp)
        return components
