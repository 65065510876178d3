"""The advanced partitioning scheme (paper §6).

The algorithm has two phases over the RDG ``G``:

**Initial assignment.**  The LdSt slice and every other INT-pinned node
(calls, returns, formal parameters, jumps, integer multiply/divide,
byte-memory values) seed the INT partition; the partition is closed
backwards over register edges — if a node is in INT, so is its backward
slice, because the scheme only inserts copies *from* INT *to* FPa
(§6.3).  Two edge kinds are exempt from the closure: edges out of
pre-existing copy instructions (already legal crossings) and the
calling-convention edges into call/return nodes, which §6.4 allows to be
satisfied by a ``cp_from_comp`` — so actual-parameter computation starts
in FPa.

**Phase 1 — boundary expansion.**  Instructions just outside the INT
boundary are examined; for each candidate ``u`` the *loss* to FPa of
moving ``P`` = the FPa part of ``Backward-Slice(G, u)`` into INT is

``loss = sum_{v in P} term(v) + sum_{v in Q} delta(v)``

where ``term(v) = n_v + alpha(v)`` (``alpha`` charges a copy if ``v``
would still have FPa children), except actual-parameter producers whose
term is ``-copying_cost(v)`` (moving them *saves* a back-copy), and
``delta(v)`` credits boundary parents whose copy disappears.  Negative
loss expands the boundary; zero defers the decision to ``P``'s children.

**Phase 2 — component profitability.**  Copies and duplicates are
tentatively introduced for the remaining boundary (choosing per §6.2's
copy-vs-duplicate heuristic, with duplication demand propagating to
parents), the graph conceptually disconnects at those sites, and every
FPa connected component is priced with the §6.1 cost model.  Components
with ``Profit < 0`` are evicted to INT and their communication removed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import PartitionError
from repro.ir.function import Function
from repro.ir.opcodes import OpKind
from repro.partition.copydup import CopyDupDecider, is_duplicable
from repro.partition.cost import CostParams, ExecutionProfile, block_counts
from repro.partition.partition import Partition, check_partition
from repro.rdg.build import build_rdg
from repro.rdg.graph import RDG, Node, Part, Pin

_EPS = 1e-9


class _AdvancedPartitioner:
    """One run of the advanced scheme over a single function."""

    def __init__(
        self,
        func: Function,
        rdg: RDG,
        n_b: dict[str, float],
        params: CostParams,
    ):
        self.func = func
        self.rdg = rdg
        self.params = params
        self.decider = CopyDupDecider(rdg, n_b, params)
        self.int_set: set[Node] = set()
        self.copies: set[Node] = set()
        self.dups: set[Node] = set()

    # -- edge predicates ------------------------------------------------
    def _is_cut_src(self, node: Node) -> bool:
        """Out-edges of copy instructions are legal crossings."""
        return self.rdg.instruction(node).kind is OpKind.COPY

    def _is_conv(self, src: Node, dst: Node) -> bool:
        return (src, dst) in self.rdg.convention_edges

    def _real_children(self, node: Node):
        """Children over edges that constrain partitioning (no convention
        edges; sources that are copies never constrain)."""
        if self._is_cut_src(node):
            return
        for child in self.rdg.succs[node]:
            if not self._is_conv(node, child):
                yield child

    def _real_parents(self, node: Node):
        for parent in self.rdg.preds[node]:
            if self._is_cut_src(parent):
                continue
            if self._is_conv(parent, node):
                continue
            yield parent

    # -- initial assignment ----------------------------------------------
    def initial_int(self) -> None:
        """Seed INT with pinned nodes and close backwards."""
        work = [n for n in self.rdg.nodes if self.rdg.pin.get(n) is Pin.INT]
        while work:
            node = work.pop()
            if node in self.int_set:
                continue
            if self.rdg.pin.get(node) is Pin.FP:
                raise PartitionError(
                    f"{self.func.name}: FP-pinned node {node!r} required in INT"
                )
            self.int_set.add(node)
            work.extend(self._real_parents(node))

    # -- phase 1 -----------------------------------------------------------
    def _fpa_backward_slice(self, seed: Node) -> dict[Node, None]:
        """FPa nodes of ``Backward-Slice(G, seed)`` (stops at INT), in
        visit order: phase 1 queues their children in this order."""
        out: dict[Node, None] = {}
        work = [seed]
        while work:
            node = work.pop()
            if node in out or node in self.int_set:
                continue
            out[node] = None
            work.extend(self._real_parents(node))
        return out

    def _is_actual_param_producer(self, node: Node) -> bool:
        """True if ``node`` feeds a call argument or return value via a
        convention edge (and so, if left in FPa, needs a cp_from_comp).

        A producer that is itself a copy instruction (a pre-existing
        ``cp_from_comp`` from an int/float conversion) already delivers
        its result into the INT file — its edge is a cut edge, no new
        back-copy is needed (or even expressible: its def is INT-class).
        """
        if self.rdg.instruction(node).kind is OpKind.COPY:
            return False
        return any(
            self._is_conv(node, child) for child in self.rdg.succs[node]
        )

    def _loss_of_moving(self, slice_p: dict[Node, None]) -> float:
        """The §6.3 ``loss`` of assigning ``slice_p`` to INT."""
        rdg = self.rdg
        decider = self.decider
        loss = 0.0
        for v in slice_p:
            if self._is_actual_param_producer(v):
                # Moving an actual-parameter producer to INT removes the
                # cp_from_comp it would otherwise need (§6.4).
                loss -= decider.copying_cost[v]
                continue
            loss += decider.node_count(v)
            # alpha(v): if v keeps FPa children outside P it must still
            # be copied/duplicated after moving to INT.
            keeps_fpa_child = any(
                c not in self.int_set and c not in slice_p
                for c in self._real_children(v)
            )
            if keeps_fpa_child:
                loss += decider.comm_cost(v)
        # delta over boundary parents Q of P
        for v in self._boundary_parents(slice_p):
            fpa_children = [
                c for c in self._real_children(v) if c not in self.int_set
            ]
            if fpa_children and all(c in slice_p for c in fpa_children):
                loss -= decider.comm_cost(v)
        return loss

    def _boundary_parents(self, slice_p: dict[Node, None]) -> set[Node]:
        """INT nodes with a child inside ``slice_p`` (the set Q)."""
        out: set[Node] = set()
        for v in slice_p:
            for parent in self.rdg.preds[v]:
                if parent in self.int_set and not self._is_cut_src(parent):
                    out.add(parent)
        return out

    def phase1(self) -> None:
        """Expand the INT boundary over unprofitable FPa nodes."""
        work: deque[Node] = deque()
        queued: set[Node] = set()
        processed: set[Node] = set()

        def enqueue_children_of_boundary() -> None:
            # rdg.nodes order, not set order: a Node's hash is salted per
            # process, and the work-list order decides the partition
            for node in [n for n in self.rdg.nodes if n in self.int_set]:
                if self._is_cut_src(node):
                    continue
                for child in self._real_children(node):
                    if child not in self.int_set and child not in queued:
                        queued.add(child)
                        work.append(child)

        enqueue_children_of_boundary()
        while work:
            u = work.popleft()
            queued.discard(u)
            if u in self.int_set or u in processed:
                continue
            if self.rdg.pin.get(u) is Pin.FP:
                continue
            processed.add(u)
            slice_p = self._fpa_backward_slice(u)
            if any(self.rdg.pin.get(v) is Pin.FP for v in slice_p):
                continue  # immovable
            loss = self._loss_of_moving(slice_p)
            if loss < -_EPS:
                self.int_set.update(slice_p)
                processed.clear()  # loss values changed; allow re-examination
                for v in slice_p:
                    for child in self._real_children(v):
                        if child not in self.int_set and child not in queued:
                            queued.add(child)
                            work.append(child)
            elif abs(loss) <= _EPS:
                # Defer: a bigger portion of the graph may decide better.
                for v in slice_p:
                    for child in self._real_children(v):
                        if (
                            child not in self.int_set
                            and child not in queued
                            and child not in processed
                        ):
                            queued.add(child)
                            work.append(child)

    # -- communication sites ---------------------------------------------
    def compute_copy_dup_sets(self) -> None:
        """Line 16: derive S_copy / S_dupl from the stabilized boundary,
        propagating duplication demand to parents (§6.2)."""
        self.copies.clear()
        self.dups.clear()
        demand: deque[Node] = deque()
        for node in [n for n in self.rdg.nodes if n in self.int_set]:
            if self._is_cut_src(node):
                continue
            if any(c not in self.int_set for c in self._real_children(node)):
                demand.append(node)
        while demand:
            v = demand.popleft()
            if v in self.copies or v in self.dups:
                continue
            duplicable = is_duplicable(self.rdg.instruction(v), v) and not any(
                self._is_cut_src(p) for p in self.rdg.preds[v]
            )
            if duplicable and self.decider.should_duplicate(v):
                self.dups.add(v)
                for parent in self._real_parents(v):
                    if parent in self.int_set and parent != v:
                        demand.append(parent)
            else:
                self.copies.add(v)

    def back_copy_sites(self) -> set[Node]:
        """FPa producers of call arguments / return values."""
        return {
            node
            for node in self.rdg.nodes
            if node not in self.int_set and self._is_actual_param_producer(node)
        }

    # -- phase 2 -----------------------------------------------------------
    def _fpa_components(self) -> list[set[Node]]:
        """Connected components of the FPa side (FPa-FPa edges only)."""
        seen: set[Node] = set()
        comps: list[set[Node]] = []
        for start in self.rdg.nodes:
            if start in seen or start in self.int_set:
                continue
            comp: set[Node] = set()
            stack = [start]
            seen.add(start)
            while stack:
                node = stack.pop()
                comp.add(node)
                for other in self.rdg.succs[node] + self.rdg.preds[node]:
                    if other not in seen and other not in self.int_set:
                        seen.add(other)
                        stack.append(other)
            comps.append(comp)
        return comps

    def _feeders_of(self, comp: set[Node]) -> tuple[set[Node], set[Node]]:
        """Copy and duplicate sites feeding ``comp``, including the
        transitive parents demanded by duplicates."""
        feed_copy: set[Node] = set()
        feed_dup: set[Node] = set()
        work: deque[Node] = deque()
        for site in self.copies | self.dups:
            if any(c in comp for c in self._real_children(site)):
                work.append(site)
        while work:
            site = work.popleft()
            if site in feed_copy or site in feed_dup:
                continue
            if site in self.dups:
                feed_dup.add(site)
                for parent in self._real_parents(site):
                    if parent in self.copies or parent in self.dups:
                        work.append(parent)
            else:
                feed_copy.add(site)
        return feed_copy, feed_dup

    def _component_profit(self, comp: set[Node], back_sites: set[Node]) -> float:
        """The §6.1 Profit of keeping ``comp`` in FPa."""
        decider = self.decider
        benefit = sum(
            decider.node_count(v)
            for v in comp
            if v.part is Part.WHOLE and self.rdg.pin.get(v) is not Pin.FP
        )
        feed_copy, feed_dup = self._feeders_of(comp)
        overhead = self.params.o_copy * sum(
            decider.node_count(v) for v in feed_copy
        ) + self.params.o_dupl * sum(decider.node_count(v) for v in feed_dup)
        overhead += self.params.o_copy * sum(
            decider.node_count(v) for v in comp if v in back_sites
        )
        return benefit - overhead

    def rebalance(self, limit: float) -> None:
        """Load-balance extension (the paper's §6.6 future work).

        The published schemes greedily maximize the FPa partition, which
        the paper notes can backfire: functions with little memory work
        move wholesale to FPa and leave INT idle (§6.6), and on FP
        programs the offloaded integer work competes with the float work
        (§7.5).  This optional post-pass evicts the least profit-dense
        *movable* FPa components until the FPa side's dynamic weight is
        at most ``limit`` of the whole program's.
        """
        decider = self.decider

        def weight(nodes) -> float:
            return sum(
                decider.node_count(v) for v in nodes if v.part is Part.WHOLE
            )

        total = weight(self.rdg.nodes)
        if total <= 0.0:
            return
        back_sites = self.back_copy_sites()
        while True:
            fpa_nodes = [n for n in self.rdg.nodes if n not in self.int_set]
            if weight(fpa_nodes) <= limit * total:
                break
            candidates = [
                comp
                for comp in self._fpa_components()
                if not any(self.rdg.pin.get(v) is Pin.FP for v in comp)
                and weight(comp) > 0.0
            ]
            if not candidates:
                break
            density = lambda comp: self._component_profit(comp, back_sites) / weight(comp)
            victim = min(candidates, key=density)
            self.int_set |= victim
        self.compute_copy_dup_sets()

    def phase2(self) -> None:
        """Evict unprofitable FPa components to INT."""
        back_sites = self.back_copy_sites()
        for comp in self._fpa_components():
            if any(self.rdg.pin.get(v) is Pin.FP for v in comp):
                continue  # true FP code: never evicted
            feed_copy, feed_dup = self._feeders_of(comp)
            uses_communication = bool(feed_copy or feed_dup) or any(
                v in back_sites for v in comp
            )
            if not uses_communication:
                continue  # a basic-scheme-style free component
            if self._component_profit(comp, back_sites) < -_EPS:
                self.int_set |= comp
        # communication sets must reflect the post-eviction boundary
        self.compute_copy_dup_sets()

    # -- driver ------------------------------------------------------------
    def run(self, balance_limit: float | None = None) -> Partition:
        self.initial_int()
        self.phase1()
        self.compute_copy_dup_sets()
        self.phase2()
        if balance_limit is not None:
            self.rebalance(balance_limit)
        fp = {n for n in self.rdg.nodes if n not in self.int_set}
        partition = Partition(
            rdg=self.rdg,
            fp=fp,
            copies=set(self.copies),
            dups=set(self.dups),
            back_copies=self.back_copy_sites(),
            scheme="advanced",
        )
        check_partition(partition)
        return partition


@dataclass(eq=False, slots=True)
class CommunicationRecount:
    """Communication sets and component profits recomputed from scratch
    for an existing partition (see :func:`recount_communication`).

    Attributes:
        copies: Expected ``S_copy`` for the partition's INT/FPa boundary.
        dups: Expected ``S_dupl``.
        back_copies: Expected back-copy sites (§6.4).
        component_profits: One ``(component, profit, uses_communication)``
            triple per FPa connected component, priced with the §6.1
            model against the recomputed communication sets.
    """

    copies: set[Node]
    dups: set[Node]
    back_copies: set[Node]
    component_profits: list[tuple[frozenset[Node], float, bool]]


def recount_communication(
    partition: Partition,
    profile: ExecutionProfile | None = None,
    params: CostParams | None = None,
) -> CommunicationRecount:
    """Recompute S_copy / S_dupl / back-copies and per-component Profit
    for ``partition`` from first principles.

    The partition's INT/FPa node assignment is taken as given; the
    communication sets and the §6.1 cost bookkeeping are re-derived with
    a fresh :class:`~repro.partition.copydup.CopyDupDecider` built from
    ``profile``/``params``.  The lint cost-consistency rule compares the
    result against the sets stored in the partition to flag drifted
    cost-model caches; it is also useful for debugging hand-edited
    partitions.  The partition's RDG must still be valid (pre-rewrite).
    """
    rdg = partition.rdg
    if params is None:
        params = CostParams()
    n_b = block_counts(rdg.func, profile)
    engine = _AdvancedPartitioner(rdg.func, rdg, n_b, params)
    engine.int_set = {node for node in rdg.nodes if node not in partition.fp}
    engine.compute_copy_dup_sets()
    back = engine.back_copy_sites()
    profits: list[tuple[frozenset[Node], float, bool]] = []
    for comp in engine._fpa_components():
        feed_copy, feed_dup = engine._feeders_of(comp)
        uses_communication = bool(feed_copy or feed_dup) or any(
            v in back for v in comp
        )
        profits.append(
            (frozenset(comp), engine._component_profit(comp, back), uses_communication)
        )
    return CommunicationRecount(
        copies=set(engine.copies),
        dups=set(engine.dups),
        back_copies=back,
        component_profits=profits,
    )


def advanced_partition(
    func: Function,
    rdg: RDG | None = None,
    profile: ExecutionProfile | None = None,
    params: CostParams | None = None,
    balance_limit: float | None = None,
) -> Partition:
    """Partition ``func`` with the advanced scheme.

    Args:
        func: Function to partition (virtual-register IR).
        rdg: Pre-built RDG, rebuilt if None.
        profile: Basic-block execution profile; the probabilistic
            ``p_B * 5^{d_B}`` estimate is used for uncovered functions.
        params: Cost-model weights (defaults: ``o_copy=3, o_dupl=1.5``).
        balance_limit: Optional load-balance cap — evict the least
            profit-dense FPa components until the FPa side holds at most
            this fraction of the function's dynamic weight (the paper's
            §6.6 future-work improvement; ``None`` reproduces the
            published greedy behaviour).

    Returns:
        A legal :class:`Partition` with copy/duplicate/back-copy sets.
    """
    if rdg is None:
        rdg = build_rdg(func)
    if params is None:
        params = CostParams()
    n_b = block_counts(func, profile)
    return _AdvancedPartitioner(func, rdg, n_b, params).run(balance_limit=balance_limit)
