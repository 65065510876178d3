"""Value-range and origin-class abstract interpretation.

One forward :class:`~repro.analysis.absint.AbstractDomain` tracking, per
register, a pair of abstractions:

* an **interval** ``[lo, hi]`` over the integer value (``None`` bounds
  are infinities).  Transfer functions cover the ALU subset the MiniC
  pipeline emits — constants, add/sub, compares into ``[0, 1]``, masks,
  shifts, byte loads into ``[-128, 127]``/``[0, 255]``, ``rem`` by a
  positive constant — and conditional branches refine the tested
  register along each outgoing edge, so never-taken edges are proved
  infeasible and blocks behind them unreachable.

* an **origin set**: the uids of every FP-file *producing* definition
  (``.a`` computations, true float operations, ``l.s`` loads, FP-class
  params) in the value's backward slice.  Origins propagate through
  arithmetic *and through* ``cp_from_comp``/``cp_to_comp`` — unlike the
  ``address-slice-int`` taint walk, which stops at the copy.  A load or
  store whose address operand carries a non-empty origin set therefore
  exposes *copy-laundered* FPa→address flows that plain def-use
  reachability misses.  Fresh-value barriers (word loads, call results,
  INT-class params) clear the set, exactly like the reachability rule.

The interval half is deliberately conservative around 32-bit wrap:
any computed bound outside the int32 range drops to an infinity, so a
bounded interval is always a true statement about the wrapped value.

States are sparse: a block-boundary state holds only the registers live
there, in the style of sparse evaluation (Wegman & Zadeck, "Constant
propagation with conditional branches", TOPLAS 1991).  A dead register
cannot change any fact at a use, so the answers are those of a state
over every register; the engine's convergence test just stops comparing
dead temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable

from repro.analysis.absint import AbsintResult, AbstractDomain, interpret
from repro.analysis.dataflow import DataflowProblem, solve_dataflow
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import FPA_OPCODES, Opcode, OpKind
from repro.ir.registers import Reg, RegClass, ZERO
from repro.ir.verify import expected_def_class

_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1


@dataclass(frozen=True, slots=True)
class Interval:
    """A (possibly half-open) integer interval; ``None`` = unbounded."""

    lo: int | None = None
    hi: int | None = None

    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval()
BOOL = Interval(0, 1)


def const(value: int) -> Interval:
    return Interval(value, value)


def _clamp(lo: int | None, hi: int | None) -> Interval:
    """Drop any bound outside the int32 range to an infinity, keeping
    the interval sound under 32-bit wrap-around."""
    if lo is not None and lo < _INT32_MIN:
        lo = None
    if hi is not None and hi > _INT32_MAX:
        hi = None
    return Interval(lo, hi)


def join_interval(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return Interval(lo, hi)


def widen_interval(old: Interval, new: Interval) -> Interval:
    lo = old.lo if old.lo is not None and new.lo is not None and new.lo >= old.lo else None
    hi = old.hi if old.hi is not None and new.hi is not None and new.hi <= old.hi else None
    return Interval(lo, hi)


def meet_interval(a: Interval, b: Interval) -> Interval | None:
    """Intersection, or ``None`` when empty (used for edge refinement)."""
    lo = a.lo if b.lo is None else (b.lo if a.lo is None else max(a.lo, b.lo))
    hi = a.hi if b.hi is None else (b.hi if a.hi is None else min(a.hi, b.hi))
    out = Interval(lo, hi)
    return None if out.is_empty() else out


def add_interval(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return _clamp(lo, hi)


def sub_interval(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.hi is None else a.lo - b.hi
    hi = None if a.hi is None or b.lo is None else a.hi - b.lo
    return _clamp(lo, hi)


def mul_interval(a: Interval, b: Interval) -> Interval:
    if None in (a.lo, a.hi, b.lo, b.hi):
        return TOP
    assert a.lo is not None and a.hi is not None
    assert b.lo is not None and b.hi is not None
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _clamp(min(products), max(products))


def shift_left_interval(a: Interval, amount: int) -> Interval:
    if not 0 <= amount < 32:
        return TOP
    lo = None if a.lo is None else a.lo << amount
    hi = None if a.hi is None else a.hi << amount
    return _clamp(lo, hi)


@dataclass(frozen=True, slots=True)
class ValueInfo:
    """Abstract value of one register: interval plus FP-origin uids."""

    interval: Interval = TOP
    origins: frozenset[int] = frozenset()


_UNKNOWN = ValueInfo()
_ZERO_INFO = ValueInfo(interval=const(0))


class _Unbound(ValueInfo):
    """Type of :data:`_UNBOUND`."""

    __slots__ = ()


#: Value of a register no path has bound yet: a state has no key for it.
#: Its fields read as the unknown value, but it compares unequal to
#: ``ValueInfo()`` (the dataclass ``__eq__`` only matches its own
#: class), so the lattice operations treat a missing key as this
#: sentinel: a state where some path bound a register to the unknown
#: value differs from one where no path bound it, and the engine's
#: convergence test, so its visit counts and widening, see that
#: difference.
_UNBOUND: ValueInfo = _Unbound()

#: Register slot (:attr:`ValueClassDomain.slot`) -> abstract value, over
#: the registers live at the state's program point; a missing live
#: register is :data:`_UNBOUND`.
State = dict[int, ValueInfo]


def _is_zero(reg: Reg) -> bool:
    # the name test skips the field-wise comparison for most registers
    return reg.name == ZERO.name and reg == ZERO


def _value(interval: Interval, origins: frozenset[int]) -> ValueInfo:
    """``ValueInfo(interval, origins)``, as the shared :data:`_UNKNOWN`
    when that is its value (so later joins meet it by identity)."""
    if interval.lo is None and interval.hi is None and not origins:
        return _UNKNOWN
    return ValueInfo(interval=interval, origins=origins)


def _join_info(a: ValueInfo, b: ValueInfo) -> ValueInfo:
    if a is _UNBOUND:
        a = _UNKNOWN
    if b is _UNBOUND:
        b = _UNKNOWN
    if a is b or a == b:
        return a
    return _value(join_interval(a.interval, b.interval), a.origins | b.origins)


def _widen_info(old: ValueInfo, new: ValueInfo) -> ValueInfo:
    if old is _UNBOUND:
        old = _UNKNOWN
    if new is _UNBOUND:
        new = _UNKNOWN
    if old is new or old == new:
        return old
    return _value(
        widen_interval(old.interval, join_interval(old.interval, new.interval)),
        old.origins | new.origins,
    )


#: Fresh-value barriers: the defined value enters its file from another
#: domain (memory, the caller), so operand origins do not flow through.
_FRESH_KINDS = (OpKind.LOAD, OpKind.CALL, OpKind.PARAM)

#: Single-register zero-compare branches: (taken, fall-through) refinements.
_ZERO_COMPARES: dict[Opcode, tuple[Interval, Interval]] = {
    Opcode.BLEZ: (Interval(None, 0), Interval(1, None)),
    Opcode.BLEZ_A: (Interval(None, 0), Interval(1, None)),
    Opcode.BGTZ: (Interval(1, None), Interval(None, 0)),
    Opcode.BLTZ: (Interval(None, -1), Interval(0, None)),
    Opcode.BLTZ_A: (Interval(None, -1), Interval(0, None)),
    Opcode.BGEZ: (Interval(0, None), Interval(None, -1)),
}


@dataclass(eq=False, slots=True)
class _Site:
    """One instruction's static facts, and the memo of its def value.

    Attributes:
        instr: The instruction.
        uses: State slot of each use, ``-1`` for ``$zero`` (read as 0).
        defs: State slot of each def.
        fresh: A fresh-value barrier: operand origins do not flow through.
        fp_origin: The instruction produces in the FP file, so its own
            uid joins the origins of the value it defines.
        memo_inputs: Input values of the last :meth:`ValueClassDomain._def_value`
            call (``None`` before the first).
        memo_value: Def value computed from ``memo_inputs``.
    """

    instr: Instruction
    uses: tuple[int, ...]
    defs: tuple[int, ...]
    fresh: bool
    fp_origin: bool
    memo_inputs: list[ValueInfo] | None = None
    memo_value: ValueInfo = _UNKNOWN


class ValueClassDomain(AbstractDomain[State]):
    """Forward interval + origin-class domain (see module docstring).

    :attr:`slot` numbers the function's registers once.  A state maps
    the slots live at its program point to their values: an edge into a
    block keeps the block's live-in registers, and a block's out-state
    keeps its live-out registers plus the branch operands that
    :meth:`transfer_edge` reads.  Each instruction's def value is
    memoized on the identity of its input values: an unchanged input
    yields the very same :class:`ValueInfo`, and the joins and equality
    checks downstream stop at ``is``.
    """

    forward = True
    widen_after = 2

    def __init__(self, func: Function):
        self.func = func
        #: Register -> state slot, for every register ``func`` mentions.
        self.slot: dict[Reg, int] = {}
        self._sites: dict[Instruction, _Site] = {}
        self._block_sites: dict[str, list[_Site]] = {}
        self._def_sites: dict[str, list[_Site]] = {}
        self._fallthrough: dict[str, str | None] = {}
        slot = self.slot
        bind = slot.setdefault
        gen: dict[str, int] = {}  # upward-exposed uses, as slot bits
        kill: dict[str, int] = {}  # defs
        term_uses: dict[str, int] = {}
        for index, blk in enumerate(func.blocks):
            self._fallthrough[blk.label] = (
                func.blocks[index + 1].label if index + 1 < len(func.blocks) else None
            )
            block_sites: list[_Site] = []
            self._block_sites[blk.label] = block_sites
            used = defined = 0
            for instr in blk.instructions:
                site = _Site(
                    instr=instr,
                    uses=tuple([
                        -1 if _is_zero(reg) else bind(reg, len(slot))
                        for reg in instr.uses
                    ]),
                    defs=tuple([bind(reg, len(slot)) for reg in instr.defs]),
                    fresh=instr.kind in _FRESH_KINDS,
                    fp_origin=(
                        expected_def_class(instr, func) is RegClass.FP
                        and instr.op is not Opcode.CP_TO_COMP
                    ),
                )
                self._sites[instr] = site
                block_sites.append(site)
                for use in site.uses:
                    if use >= 0 and not defined >> use & 1:
                        used |= 1 << use
                for use in site.defs:
                    defined |= 1 << use
            gen[blk.label] = used
            kill[blk.label] = defined
            term_uses[blk.label] = 0
            if blk.terminator is not None:  # the last site
                for use in block_sites[-1].uses:
                    if use >= 0:
                        term_uses[blk.label] |= 1 << use
            self._def_sites[blk.label] = [site for site in block_sites if site.defs]
        live = solve_dataflow(
            func, DataflowProblem(forward=False, may=True, gen=gen, kill=kill)
        )
        #: Block label -> slots live on entry (what an edge into it keeps).
        self._live_in = {label: _slots(mask) for label, mask in live.in_facts.items()}
        #: Block label -> slots its out-state keeps: live on exit, plus
        #: the terminator's operands (edge refinement reads them even
        #: when they are dead after the branch).
        self._keep_out = {
            label: _slots(mask | term_uses[label])
            for label, mask in live.out_facts.items()
        }

    # -- lattice ---------------------------------------------------------
    def entry_state(self, func: Function) -> State:
        return {}

    def join(self, a: State, b: State) -> State:
        return a if a is b else _pointwise(_join_info, a, b)

    def widen(self, old: State, new: State) -> State:
        return old if old is new else _pointwise(_widen_info, old, new)

    # -- semantics -------------------------------------------------------
    def value_of(self, state: State, reg: Reg) -> ValueInfo:
        """``reg``'s value in ``state``; unknown when the state does not
        bind it (never bound, or dead at the state's program point)."""
        if _is_zero(reg):
            return _ZERO_INFO
        index = self.slot.get(reg)
        if index is None:
            return _UNKNOWN
        return state.get(index, _UNKNOWN)

    def transfer_instruction(self, instr: Instruction, state: State) -> State:
        site = self._sites[instr]
        if not site.defs:
            return state
        value = self._def_value(site, state)
        out = state.copy()
        for index in site.defs:
            out[index] = value
        return out

    def transfer_block(self, func: Function, block: BasicBlock, state: State) -> State:
        """:meth:`transfer_instruction` folded over the block in one local
        map, then cut down to the registers the out-state keeps."""
        local = state
        sites = self._def_sites[block.label]
        if sites:
            local = state.copy()
            for site in sites:
                value = self._def_value(site, local)
                for index in site.defs:
                    local[index] = value
        keep = self._keep_out[block.label]
        return {index: local[index] for index in keep if index in local}

    def operand_values(
        self, in_states: dict[str, State | None]
    ) -> dict[int, tuple[ValueInfo, ...]]:
        """Instruction uid -> the values of its use operands just before
        it executes, replayed from the fixed point's block in-states
        (instructions of unreachable blocks are absent).  The def values
        come from the per-site memo, which the fixpoint's last pass over
        each block left holding exactly these inputs."""
        operands: dict[int, tuple[ValueInfo, ...]] = {}
        for label, sites in self._block_sites.items():
            state = in_states.get(label)
            if state is None:
                continue
            local = state.copy()
            for site in sites:
                operands[site.instr.uid] = tuple([
                    _ZERO_INFO if index < 0 else local.get(index, _UNKNOWN)
                    for index in site.uses
                ])
                if site.defs:
                    value = self._def_value(site, local)
                    for index in site.defs:
                        local[index] = value
        return operands

    def _def_value(self, site: _Site, state: State) -> ValueInfo:
        """Abstract value ``site``'s instruction writes to each of its defs."""
        inputs = [
            _ZERO_INFO if index < 0 else state.get(index, _UNBOUND)
            for index in site.uses
        ]
        memo = site.memo_inputs
        if memo is not None and all(map(is_, memo, inputs)):
            return site.memo_value
        if site.fresh or not inputs:
            origins: frozenset[int] = frozenset()
        else:
            origins = frozenset().union(*(v.origins for v in inputs))
        if site.fp_origin:
            origins = origins | {site.instr.uid}
        value = _value(self._interval_of(site.instr, inputs), origins)
        site.memo_inputs = inputs
        site.memo_value = value
        return value

    def _interval_of(self, instr: Instruction, inputs: list[ValueInfo]) -> Interval:
        op = instr.op
        imm = instr.imm

        def arg(pos: int) -> Interval:
            return inputs[pos].interval if pos < len(inputs) else TOP

        if op in (Opcode.LI, Opcode.LI_A):
            return const(imm) if isinstance(imm, int) else TOP
        if op is Opcode.LUI:
            return const(imm << 16) if isinstance(imm, int) else TOP
        if op in (Opcode.MOVE, Opcode.MOVE_A, Opcode.MOV_S):
            return arg(0)
        if instr.kind is OpKind.COPY:  # cp_to_comp / cp_from_comp
            return arg(0)
        if op in (Opcode.ADDU, Opcode.ADDU_A):
            return add_interval(arg(0), arg(1))
        if op in (Opcode.SUBU, Opcode.SUBU_A):
            return sub_interval(arg(0), arg(1))
        if op in (Opcode.ADDIU, Opcode.ADDIU_A):
            return add_interval(arg(0), const(imm)) if isinstance(imm, int) else TOP
        if op in (Opcode.SLT, Opcode.SLTU, Opcode.SLTI, Opcode.SLTIU,
                  Opcode.SLT_A, Opcode.SLTU_A, Opcode.SLTI_A, Opcode.SLTIU_A):
            return BOOL
        if op in (Opcode.ANDI, Opcode.ANDI_A):
            return Interval(0, imm) if isinstance(imm, int) and imm >= 0 else TOP
        if op in (Opcode.AND, Opcode.AND_A):
            a, b = arg(0), arg(1)
            if a.lo is not None and a.lo >= 0 and b.lo is not None and b.lo >= 0:
                his = [h for h in (a.hi, b.hi) if h is not None]
                return Interval(0, min(his)) if his else Interval(0, None)
            return TOP
        if op in (Opcode.OR, Opcode.OR_A, Opcode.XOR, Opcode.XOR_A,
                  Opcode.ORI, Opcode.XORI):
            a = arg(0)
            b = arg(1) if len(inputs) > 1 else (const(imm) if isinstance(imm, int) else TOP)
            if (a.lo is not None and a.lo >= 0 and a.hi is not None
                    and b.lo is not None and b.lo >= 0 and b.hi is not None):
                bits = max(a.hi, b.hi).bit_length()
                return Interval(0, (1 << bits) - 1)
            return TOP
        if op in (Opcode.SLL, Opcode.SLL_A):
            return shift_left_interval(arg(0), imm) if isinstance(imm, int) else TOP
        if op in (Opcode.SRL, Opcode.SRL_A):
            a = arg(0)
            if isinstance(imm, int) and 0 <= imm < 32:
                if a.lo is not None and a.lo >= 0:
                    return Interval(a.lo >> imm, None if a.hi is None else a.hi >> imm)
                return Interval(0, (1 << (32 - imm)) - 1) if imm > 0 else TOP
            return TOP
        if op in (Opcode.SRA, Opcode.SRA_A):
            if isinstance(imm, int) and 0 <= imm < 32:
                a = arg(0)
                lo = None if a.lo is None else a.lo >> imm
                hi = None if a.hi is None else a.hi >> imm
                return Interval(lo, hi)
            return TOP
        if op is Opcode.MULT:
            return mul_interval(arg(0), arg(1))
        if op is Opcode.REM:
            divisor = arg(1)
            dividend = arg(0)
            if (divisor.is_constant() and divisor.lo is not None and divisor.lo > 0
                    and dividend.lo is not None and dividend.lo >= 0):
                return Interval(0, divisor.lo - 1)
            return TOP
        if op is Opcode.DIV:
            dividend, divisor = arg(0), arg(1)
            if (divisor.is_constant() and divisor.lo is not None and divisor.lo > 0
                    and dividend.lo is not None and dividend.lo >= 0):
                hi = None if dividend.hi is None else dividend.hi // divisor.lo
                return Interval(0, hi)
            return TOP
        if op is Opcode.LB:
            return Interval(-128, 127)
        if op is Opcode.LBU:
            return Interval(0, 255)
        return TOP

    # -- edge refinement -------------------------------------------------
    def transfer_edge(
        self, func: Function, src: BasicBlock, dst_label: str, state: State
    ) -> State | None:
        """Refine ``state`` along the edge, then keep the registers live
        into ``dst_label`` (``None``: the edge is infeasible)."""
        out = self._refine_edge(src, dst_label, state)
        if out is None:
            return None
        live = self._live_in[dst_label]
        return {index: out[index] for index in live if index in out}

    def _refine_edge(
        self, src: BasicBlock, dst_label: str, state: State
    ) -> State | None:
        term = src.terminator
        if term is None or term.kind is not OpKind.BRANCH:
            return state
        if term.target == self._fallthrough[src.label]:
            return state  # both directions land in the same block
        taken = dst_label == term.target

        refinements = _ZERO_COMPARES.get(term.op)
        if refinements is not None:
            narrow = refinements[0] if taken else refinements[1]
            return self._refine(state, term.uses[0], narrow)

        if term.op in (Opcode.BEQ, Opcode.BEQ_A, Opcode.BNE, Opcode.BNE_A):
            eq_edge = taken if term.op in (Opcode.BEQ, Opcode.BEQ_A) else not taken
            a = self.value_of(state, term.uses[0]).interval
            b = self.value_of(state, term.uses[1]).interval
            if eq_edge:
                # both operands must share a value
                if meet_interval(a, b) is None:
                    return None
                out = self._refine(state, term.uses[0], b)
                if out is None:
                    return None
                return self._refine(out, term.uses[1], a)
            # disequality edge: infeasible only when both are the same constant
            if a.is_constant() and b.is_constant() and a.lo == b.lo:
                return None
            return state
        return state

    def _refine(self, state: State, reg: Reg, narrow: Interval) -> State | None:
        if _is_zero(reg):
            return None if meet_interval(const(0), narrow) is None else state
        index = self.slot[reg]
        info = state.get(index, _UNBOUND)
        met = meet_interval(info.interval, narrow)
        if met is None:
            return None
        if met == info.interval:
            return state
        out = state.copy()
        out[index] = ValueInfo(interval=met, origins=info.origins)
        return out


def _pointwise(
    combine: Callable[[ValueInfo, ValueInfo], ValueInfo], a: State, b: State
) -> State:
    """``combine`` over every slot either state binds (a missing slot is
    :data:`_UNBOUND`), keeping a value both sides share by identity."""
    out: State = {}
    for index, x in a.items():
        y = b.get(index, _UNBOUND)
        out[index] = x if x is y else combine(x, y)
    for index, y in b.items():
        if index not in a:
            out[index] = combine(_UNBOUND, y)
    return out


def _slots(mask: int) -> tuple[int, ...]:
    """The slot numbers of the set bits of ``mask``."""
    slots: list[int] = []
    while mask:
        low = mask & -mask
        slots.append(low.bit_length() - 1)
        mask ^= low
    return tuple(slots)


@dataclass(eq=False, slots=True)
class ValueClassResult:
    """Fixed point of the value-class analysis over one function.

    Attributes:
        operands: Instruction uid -> the values of its use operands just
            before it executes, for every instruction a feasible path
            reaches (see :meth:`ValueClassDomain.operand_values`).
    """

    func: Function
    domain: ValueClassDomain
    fixpoint: AbsintResult[State]
    operands: dict[int, tuple[ValueInfo, ...]]

    def reachable(self, label: str) -> bool:
        """True when some feasible path reaches the block (interval
        refinement included — stronger than CFG reachability)."""
        return self.fixpoint.reachable(label)

    def reached(self, instr: Instruction) -> bool:
        """True when some feasible path reaches ``instr``."""
        return instr.uid in self.operands

    def value_at(self, instr: Instruction, reg: Reg) -> ValueInfo:
        """Abstract value of the use operand ``reg`` just before ``instr``
        executes (unknown for instructions in unreachable blocks).

        Only use operands are recorded; a ``reg`` that is not one of
        ``instr.uses`` raises :class:`ValueError`.
        """
        if reg not in instr.uses:
            raise ValueError(f"{reg} is not a use operand of #{instr.uid} {instr.op}")
        values = self.operands.get(instr.uid)
        if values is None:
            return _UNKNOWN
        return values[instr.uses.index(reg)]


def analyze_values(func: Function) -> ValueClassResult:
    """Run the value-class abstract interpretation over ``func``."""
    domain = ValueClassDomain(func)
    fixpoint = interpret(func, domain)
    return ValueClassResult(
        func=func,
        domain=domain,
        fixpoint=fixpoint,
        operands=domain.operand_values(fixpoint.in_states),
    )
