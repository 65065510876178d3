"""Control-flow graph utilities over :class:`~repro.ir.function.Function`.

The CFG is computed on demand from block layout: a block's successors are
its branch/jump targets plus the fall-through block when the terminator
does not unconditionally leave.
"""

from __future__ import annotations

from repro.ir.function import BasicBlock, Function
from repro.ir.opcodes import OpKind


def successors(func: Function, block: BasicBlock) -> list[str]:
    """Successor block labels of ``block`` in layout order semantics."""
    return _successors_at(func, func.block_index(block.label))


def _successors_at(func: Function, index: int) -> list[str]:
    """:func:`successors` of the block at layout position ``index``."""
    term = func.blocks[index].terminator
    fallthrough = func.blocks[index + 1].label if index + 1 < len(func.blocks) else None
    if term is None:
        return [fallthrough] if fallthrough is not None else []
    if term.kind is OpKind.JUMP:
        return [term.target] if term.target is not None else []
    if term.kind is OpKind.RET:
        return []
    # conditional branch: taken target + fall-through
    succ = []
    if term.target is not None:
        succ.append(term.target)
    if fallthrough is not None and fallthrough not in succ:
        succ.append(fallthrough)
    return succ


def predecessors(func: Function) -> dict[str, list[str]]:
    """Map block label -> predecessor labels, for all blocks."""
    preds: dict[str, list[str]] = {blk.label: [] for blk in func.blocks}
    for i, blk in enumerate(func.blocks):
        for succ in _successors_at(func, i):
            if succ not in preds:
                raise KeyError(f"branch to unknown block {succ!r} in {func.name}")
            preds[succ].append(blk.label)
    return preds


def successor_map(func: Function) -> dict[str, list[str]]:
    """Map block label -> successor labels, for all blocks."""
    return {blk.label: _successors_at(func, i) for i, blk in enumerate(func.blocks)}


def block_order(func: Function) -> dict[str, int]:
    """Map block label -> layout index."""
    return {blk.label: i for i, blk in enumerate(func.blocks)}


def reverse_postorder(func: Function) -> list[str]:
    """Block labels in reverse postorder from the entry (unreachable
    blocks are appended at the end in layout order so analyses still
    cover them)."""
    succ = successor_map(func)
    visited: set[str] = set()
    postorder: list[str] = []

    def dfs(label: str) -> None:
        stack = [(label, iter(succ[label]))]
        visited.add(label)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                postorder.append(node)
                stack.pop()

    if func.blocks:
        dfs(func.entry.label)
    order = list(reversed(postorder))
    for blk in func.blocks:
        if blk.label not in visited:
            order.append(blk.label)
    return order


def reachable_blocks(func: Function) -> set[str]:
    """Labels of blocks reachable from the entry."""
    succ = successor_map(func)
    seen: set[str] = set()
    work = [func.entry.label] if func.blocks else []
    while work:
        label = work.pop()
        if label in seen:
            continue
        seen.add(label)
        work.extend(succ[label])
    return seen
