"""Columnar trace packing: the ``repro-trace`` format, version 5.

A dynamic trace is a long, highly redundant stream: a few hundred static
instructions generate millions of dynamic instructions whose payload is
a handful of small integers.  A :class:`PackedTrace` stores it
column-wise in :mod:`array` arrays —

* a **static table**, one row per distinct (instruction, pc, subsystem):
  pc, opcode kind, subsystem side, and the destination counts per
  register class that the pipeline's rename bookkeeping needs;
* **dynamic columns** indexed by trace position: the static row id,
  the effective memory address (``-1`` = none), the branch outcome
  (``-1`` = none, else 0/1);
* **dependence tokens** interned to dense integers: the per-entry
  ``reads``/``writes`` tuples become ranges into flattened token-id
  columns (prefix-offset encoding), and a token table maps each id back
  to its original ``(frame_id, register name)`` pair so unpacking a
  fresh pack is lossless.

``instr_ids`` and ``mem_addr`` are written as ``'q'`` and then held in
the narrowest typecode that fits each pack (:data:`NARROW_TYPECODES`):
``instr_ids`` by the static-row count, ``mem_addr`` by its smallest and
largest value.  Encoding a fresh pack and :meth:`PackedTrace.drop_tokens`
share that one conversion, and the manifest records the typecodes, so a
decoded pack holds the same narrow columns as the pooled fresh one.

:class:`TraceBuilder` owns the interning and fills the columns.  The
interpreter writes to it a straight-line segment at a time as it
executes (see :mod:`repro.runtime.interp`), so a traced run returns a
finished pack and no per-instruction objects are built;
:func:`pack_entries` feeds it a list of
:class:`~repro.runtime.trace.TraceEntry` objects instead (hand-built
traces, tests), and :meth:`PackedTrace.unpack_entries` goes back.
The timing simulator consumes the columns directly — register producers
resolved once per pack from the integer token ids
(:meth:`PackedTrace.producer_columns`), each entry's I-cache miss,
mispredict and fetch stop resolved once per pack and front end
(:meth:`PackedTrace.front_end_events`), pre-resolved latency classes
instead of per-entry ``OpKind`` tests (see :mod:`repro.sim.pipeline`).

On-disk encoding (``to_bytes``/``from_bytes``)::

    MAGIC (8) | sha256(header+payload) (32) | header length (4, BE)
             | canonical-JSON header | concatenated array payloads

The encoding holds what replay reads and nothing else: the
:data:`ARRAY_LAYOUT` columns (the static table, ``instr_ids``,
``mem_addr``, ``taken``), then the producer section
(:data:`PRODUCER_LAYOUT`), then the front-end section: one byte per
entry, the :meth:`PackedTrace.front_end_events` column of Table 1's
front end (:data:`TABLE1_FRONT_END`, shared by both machines).  The
producer and front-end columns are derived once, when a fresh pack is
first encoded or simulated, and a decoded pack carries them, so
replaying a stored trace on Table 1's machines derives nothing; any
other front end (an ablation) derives its column from ``pcs``,
``instr_ids`` and ``taken``.  The token columns (:data:`TOKEN_LAYOUT`)
and their name table stay in memory on a fresh pack: a decoded pack is
replay-only (see :meth:`PackedTrace.drop_tokens`), and
:meth:`PackedTrace.unpack_entries` on it raises
:class:`~repro.errors.TracePackError`.  The digest covers everything
after the length field, so a bit flip anywhere — header or payload — is
detected.  The header carries the format version, byte order, array
manifest (each column's name, typecode and length), and arbitrary
caller metadata (the prepared program's identity and summary, and the
code fingerprint the trace store adds).  Both
directions hash and copy each column once: encoding joins the columns
straight into the output, and decoding reads them through
``memoryview`` slices of the input.  Any validation failure raises
:class:`~repro.errors.TracePackError`; encode→decode→encode is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from collections import Counter
from itertools import accumulate, chain, compress, islice, repeat
from operator import ne
from typing import NamedTuple

from repro.errors import SimulationError, TracePackError
from repro.ir.opcodes import OpKind
from repro.runtime.trace import Subsystem, TraceEntry

#: Bump on any incompatible change to the header or column layout.
#: Participates in bench cache keys (see :func:`repro.bench.cache.cell_key`)
#: so a format bump invalidates both trace packs and cached cell results.
TRACE_FORMAT_VERSION = 5

#: File magic for the on-disk encoding.
MAGIC = b"RPROTRC\x01"

#: Stable opcode-kind codes — index into this tuple is the on-disk code.
#: Append-only: reordering or removal requires a format version bump.
KIND_ORDER = (
    OpKind.ALU,
    OpKind.MUL,
    OpKind.DIV,
    OpKind.LOAD,
    OpKind.STORE,
    OpKind.BRANCH,
    OpKind.JUMP,
    OpKind.CALL,
    OpKind.RET,
    OpKind.PARAM,
    OpKind.COPY,
    OpKind.NOP,
)
KIND_CODE = {kind: code for code, kind in enumerate(KIND_ORDER)}

# Pre-resolved latency classes (static-table rows; see sim pipeline).
LAT_SINGLE = 0
LAT_LOAD = 1
LAT_STORE = 2
LAT_MUL = 3
LAT_DIV = 4

# Pre-resolved fetch control classes.
CTRL_NONE = 0
CTRL_BRANCH = 1
CTRL_JUMP = 2  # unconditional taken control flow: JUMP/CALL/RET

#: A producer distance meaning "no producer, or one farther back than
#: any instruction window" (see :meth:`PackedTrace.producer_columns`).
NO_PRODUCER = 0xFFFF

# Front-end event bits, one byte per entry (see
# :meth:`PackedTrace.front_end_events`).
FE_MISS = 1  # fetching the entry misses the I-cache
FE_MISPREDICT = 2  # the conditional branch is mispredicted
FE_STOP = 4  # fetch stops after the entry: taken control flow or a mispredict
FE_BRANCH = 8  # the entry is a conditional branch (for the branch count)


class FrontEnd(NamedTuple):
    """What a trace's front-end events depend on besides the trace.

    The I-cache and gshare geometry (the caches' latencies only time the
    stall), and whether branches are predicted perfectly.
    """

    line_bytes: int
    icache_sets: int
    icache_assoc: int
    predictor_entries: int
    history_bits: int
    perfect_branches: bool = False


#: Table 1's front end, shared by the 4- and 8-way machines: a 64 KB
#: 2-way I-cache with 128 B lines, gshare with 32K counters and 15 bits of
#: history.  The encoding stores its events.
TABLE1_FRONT_END = FrontEnd(128, 256, 2, 32 * 1024, 15)


def count_events(events: bytearray, bit: int) -> int:
    """How many entries of a front-end column have ``bit`` set."""
    has_bit = bytes(1 if value & bit else 0 for value in range(256))
    return events.translate(has_bit).count(1)


_LAT_OF_KIND = {
    KIND_CODE[OpKind.LOAD]: LAT_LOAD,
    KIND_CODE[OpKind.STORE]: LAT_STORE,
    KIND_CODE[OpKind.MUL]: LAT_MUL,
    KIND_CODE[OpKind.DIV]: LAT_DIV,
}
_CTRL_OF_KIND = {
    KIND_CODE[OpKind.BRANCH]: CTRL_BRANCH,
    KIND_CODE[OpKind.JUMP]: CTRL_JUMP,
    KIND_CODE[OpKind.CALL]: CTRL_JUMP,
    KIND_CODE[OpKind.RET]: CTRL_JUMP,
}

#: Serialized arrays, in payload order: (attribute name, typecode).
#: ``b``/``B``, ``h``/``H``, ``i`` and ``q`` are 1, 2, 4 and 8 bytes on
#: every supported platform.
ARRAY_LAYOUT = (
    ("pcs", "q"),
    ("kinds", "B"),
    ("fp_side", "B"),
    ("int_defs", "B"),
    ("fp_defs", "B"),
    ("instr_ids", "q"),
    ("mem_addr", "q"),
    ("taken", "b"),
)

#: A fresh pack's dependence tokens, kept in memory only: the
#: interpreter writes them, and :meth:`PackedTrace.unpack_entries` and
#: the producer derivation read them.
TOKEN_LAYOUT = (
    ("read_offsets", "q"),
    ("read_tokens", "q"),
    ("write_offsets", "q"),
    ("write_tokens", "q"),
    ("token_frames", "q"),
    ("token_names", "q"),
)

#: The producer section, serialized after :data:`ARRAY_LAYOUT`: the
#: distance columns of :meth:`PackedTrace.producer_columns` (``n`` each)
#: and its third-and-later reads as parallel (entry, distance) columns.
PRODUCER_LAYOUT = (
    ("first_producer", "H"),
    ("second_producer", "H"),
    ("more_entries", "q"),
    ("more_distances", "H"),
)

#: The front-end section, serialized last: the events of
#: :data:`TABLE1_FRONT_END` (``n`` bytes).
FRONT_END_LAYOUT = (("front_end", "B"),)
_LAYOUT = ARRAY_LAYOUT + PRODUCER_LAYOUT + FRONT_END_LAYOUT

#: The typecodes a manifest may give the columns held narrow (see
#: :meth:`PackedTrace._narrow`); every other column has its layout's.
NARROW_TYPECODES = {"instr_ids": ("B", "H", "q"), "mem_addr": ("b", "h", "i", "q")}


def ids_typecode(rows: int) -> str:
    """The ``instr_ids`` typecode of a pack with ``rows`` static rows."""
    return "B" if rows <= 1 << 8 else "H" if rows <= 1 << 16 else "q"


def addr_typecode(low: int, high: int) -> str:
    """The narrowest signed typecode holding every value in ``[low, high]``."""
    for typecode, bound in (("b", 1 << 7), ("h", 1 << 15), ("i", 1 << 31)):
        if -bound <= low and high < bound:
            return typecode
    return "q"


class PackedTrace:
    """A dynamic trace as columnar arrays (see module docstring).

    Static table (length = number of distinct static rows):
        ``pcs``, ``kinds`` (codes into :data:`KIND_ORDER`), ``fp_side``
        (0/1), ``int_defs``/``fp_defs`` (destination counts by class).

    Dynamic columns (length = ``n``):
        ``instr_ids`` (static row per entry), ``mem_addr`` (-1 = none),
        ``taken`` (-1 = none, else 0/1); the first two are ``'q'`` until
        encoding or :meth:`drop_tokens` narrows them (:meth:`_narrow`).

    Token columns (a fresh pack only; ``None`` on a decoded one):
        ``read_offsets``/``write_offsets`` (length ``n + 1``) delimit
        each entry's slice of ``read_tokens``/``write_tokens``, which
        hold interned token ids; ``token_frames``/``token_names`` (+ the
        ``names`` string list) map ids back to ``(frame_id, name)``.

    Producer columns (:meth:`producer_columns`): derived from the
    token columns once per pack and serialized as the producer section,
    the only form of the dependences a decoded pack has.

    Front-end columns (:meth:`front_end_events`): derived once per pack
    and front end; Table 1's is serialized as the front-end section.

    ``meta`` carries caller metadata (workload, scheme, partition
    summary, ...), round-tripped through the encoding.
    """

    __slots__ = (
        "pcs", "kinds", "fp_side", "int_defs", "fp_defs",
        "instr_ids", "mem_addr", "taken",
        "read_offsets", "read_tokens", "write_offsets", "write_tokens",
        "token_frames", "token_names", "names",
        "value", "meta",
        "row_lat", "row_ctrl", "_producers", "_front_end", "_mix",
    )

    def __init__(self) -> None:
        for name, typecode in ARRAY_LAYOUT + TOKEN_LAYOUT:
            setattr(self, name, array(typecode))
        self.names: list[str] | None = []
        self.value: int | None = None
        self.meta: dict = {}
        self.row_lat = array("B")
        self.row_ctrl = array("B")
        self._producers: tuple[array, array, dict[int, list[int]]] | None = None
        self._front_end: dict[FrontEnd, bytearray] = {}
        self._mix: dict[str, int] | None = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of dynamic instructions."""
        return len(self.instr_ids)

    @property
    def rows(self) -> int:
        """Number of distinct static rows."""
        return len(self.pcs)

    def _finalize(self) -> None:
        """Derive the non-serialized per-row classes from ``kinds``."""
        lat_of = _LAT_OF_KIND
        ctrl_of = _CTRL_OF_KIND
        self.row_lat = array("B", (lat_of.get(k, LAT_SINGLE) for k in self.kinds))
        self.row_ctrl = array("B", (ctrl_of.get(k, CTRL_NONE) for k in self.kinds))

    def producer_columns(self) -> tuple[array, array, dict[int, list[int]]]:
        """Each entry's register producers, as distances back in the trace.

        Returns ``(first, second, more)``: ``first[s]``/``second[s]``
        are ``s - p`` for the last writer ``p < s`` of entry ``s``'s
        first/second read token, and ``more[s]`` lists the same for its
        third and later reads (only entries with more than two reads
        have a key).  :data:`NO_PRODUCER` means the token has no earlier
        writer or its writer is ``NO_PRODUCER`` or more entries back; a
        missing read is also :data:`NO_PRODUCER`.  An entry's reads see
        the writers before it, not its own writes.

        Derived from the token columns on first call (or first
        encoding) and kept on the object, so a pack simulated on several
        machines derives them once; the encoding stores them, so a
        decoded pack has them already.
        """
        if self._producers is None:
            self._producers = _producer_distances(self)
        return self._producers

    def front_end_events(self, front_end: FrontEnd = TABLE1_FRONT_END) -> bytearray:
        """Each entry's fetch events on ``front_end``, one byte per entry.

        Trace-driven fetch reads the trace in program order: it accesses
        the I-cache once per line change and trains gshare once per
        conditional branch with its true outcome.  So whether fetching
        entry ``s`` misses (:data:`FE_MISS`), whether branch ``s`` is
        mispredicted (:data:`FE_MISPREDICT`) and whether fetch stops
        after ``s`` (:data:`FE_STOP`: jumps, calls, returns, taken or
        mispredicted branches) depend on the trace and the front end,
        never on the machine's width.  :data:`FE_BRANCH` marks the
        conditional branches.  The I-cache and gshare start cold.

        Derived on first call for a front end and kept on the object, so
        a pack simulated on several machines derives it once; a decoded
        pack has :data:`TABLE1_FRONT_END`'s from its encoding.  Raises
        :class:`~repro.errors.SimulationError` on a conditional branch
        with no recorded outcome.
        """
        events = self._front_end.get(front_end)
        if events is None:
            events = self._front_end[front_end] = _front_end_events(self, front_end)
        return events

    def drop_tokens(self) -> None:
        """Make the pack replay-only, as a decoded pack is.

        Derives the producer columns first (they are read from the
        tokens), narrows ``instr_ids`` and ``mem_addr`` as the encoding
        does, then releases the token columns and name table.
        """
        self.producer_columns()
        self._narrow()
        for name, _ in TOKEN_LAYOUT:
            setattr(self, name, None)
        self.names = None

    def _narrow(self) -> None:
        """Hold ``instr_ids`` and ``mem_addr`` in their narrowest typecodes.

        ``instr_ids`` takes :func:`ids_typecode` of the row count and
        ``mem_addr`` :func:`addr_typecode` of its range.  Converts through
        one list per column, which is cheaper than reading the ``'q'``
        array twice.  A narrow column is left alone, so narrowing again
        costs nothing unless ``mem_addr`` needs all 64 bits.
        """
        typecode = ids_typecode(self.rows)
        if self.instr_ids.typecode != typecode:
            self.instr_ids = array(typecode, self.instr_ids.tolist())
        if self.mem_addr.typecode == "q":
            values = self.mem_addr.tolist()
            typecode = addr_typecode(min(values, default=-1), max(values, default=-1))
            if typecode != "q":
                self.mem_addr = array(typecode, values)

    # ------------------------------------------------------------------
    def token(self, token_id: int) -> tuple[int, str]:
        """The original ``(frame_id, name)`` pair for an interned id."""
        return self.token_frames[token_id], self.names[self.token_names[token_id]]

    def dynamic_mix(self) -> dict[str, int]:
        """Summary of the trace: dynamic counts by category.

        ``fp_executed`` counts instructions executing in the FP/FPa
        subsystem — the paper's "offloaded" metric numerator for integer
        programs.

        Counted on first call and kept on the object, so the cells that
        share a pack count it once; each call returns a fresh copy.
        """
        if self._mix is None:
            self._mix = self._count_mix()
        return dict(self._mix)

    def _count_mix(self) -> dict[str, int]:
        out = {
            "total": self.n,
            "fp_executed": 0,
            "loads": 0,
            "stores": 0,
            "branches": 0,
            "copies": 0,
        }
        load = KIND_CODE[OpKind.LOAD]
        store = KIND_CODE[OpKind.STORE]
        branch = KIND_CODE[OpKind.BRANCH]
        copy = KIND_CODE[OpKind.COPY]
        # per-row dynamic occurrence counts, then one combine per row
        for sid, count in Counter(self.instr_ids).items():
            if self.fp_side[sid]:
                out["fp_executed"] += count
            kind = self.kinds[sid]
            if kind == load:
                out["loads"] += count
            elif kind == store:
                out["stores"] += count
            elif kind == branch:
                out["branches"] += count
            elif kind == copy:
                out["copies"] += count
        return out

    # ------------------------------------------------------------------
    def unpack_entries(self, program) -> list[TraceEntry]:
        """Reconstruct the original :class:`TraceEntry` stream.

        Requires a fresh pack and the :class:`~repro.ir.program.Program`
        the trace was captured from — packing keeps pcs, not instruction
        objects, so instructions are recovered through the program's
        layout.  Raises :class:`TracePackError` on a decoded pack (the
        encoding holds no tokens) and when a pc has no instruction (the
        pack does not belong to this program).
        """
        from repro.runtime.trace import TEXT_BASE

        if self.read_tokens is None:
            raise TracePackError(
                "a decoded trace pack is replay-only: the encoding holds no "
                "dependence tokens, so it cannot be unpacked into entries"
            )
        by_pc: dict[int, object] = {}
        addr = TEXT_BASE
        for func in program.functions.values():
            for instr in func.instructions():
                by_pc[addr] = instr
                addr += 4
        tokens = [
            (self.token_frames[i], self.names[self.token_names[i]])
            for i in range(len(self.token_frames))
        ]
        entries: list[TraceEntry] = []
        roff, rtok = self.read_offsets, self.read_tokens
        woff, wtok = self.write_offsets, self.write_tokens
        for i, sid in enumerate(self.instr_ids):
            pc = self.pcs[sid]
            instr = by_pc.get(pc)
            if instr is None:
                raise TracePackError(
                    f"packed trace does not match program: no instruction "
                    f"at pc {pc:#x}"
                )
            mem = self.mem_addr[i]
            tak = self.taken[i]
            entries.append(
                TraceEntry(
                    instr,
                    pc,
                    Subsystem.FP if self.fp_side[sid] else Subsystem.INT,
                    tuple(tokens[t] for t in rtok[roff[i]:roff[i + 1]]),
                    tuple(tokens[t] for t in wtok[woff[i]:woff[i + 1]]),
                    mem_addr=None if mem < 0 else mem,
                    taken=None if tak < 0 else bool(tak),
                )
            )
        return entries

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize (see module docstring); deterministic byte-for-byte.

        A fresh pack derives its producer columns and Table 1's
        front-end events and narrows its ``instr_ids`` and ``mem_addr``
        here, so they are kept on it for a later simulation as well.
        """
        self._narrow()
        columns = [getattr(self, name) for name, _ in ARRAY_LAYOUT]
        columns += _producer_section(self.producer_columns())
        columns.append(self.front_end_events())
        header_doc = {
            "format": "repro-trace",
            "version": TRACE_FORMAT_VERSION,
            "byteorder": sys.byteorder,
            "n": self.n,
            "rows": self.rows,
            "value": self.value,
            "meta": self.meta,
            "arrays": [
                [
                    name,
                    column.typecode if name in NARROW_TYPECODES else typecode,
                    len(column),
                ]
                for (name, typecode), column in zip(_LAYOUT, columns)
            ],
        }
        header = json.dumps(
            header_doc, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        digest = hashlib.sha256(header)
        for column in columns:
            digest.update(column)
        return b"".join(
            (MAGIC, digest.digest(), len(header).to_bytes(4, "big"), header, *columns)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedTrace":
        """Decode and validate; raises :class:`TracePackError` on damage."""
        prefix = len(MAGIC) + 32 + 4
        if len(data) < prefix:
            raise TracePackError("truncated trace pack (shorter than prefix)")
        if data[: len(MAGIC)] != MAGIC:
            raise TracePackError("bad trace-pack magic")
        digest = data[len(MAGIC): len(MAGIC) + 32]
        header_len = int.from_bytes(data[len(MAGIC) + 32: prefix], "big")
        if len(data) < prefix + header_len:
            raise TracePackError("truncated trace pack (header cut short)")
        # header and payload are contiguous: hash and read them in place
        view = memoryview(data)
        if hashlib.sha256(view[prefix:]).digest() != digest:
            raise TracePackError("trace-pack checksum mismatch")
        try:
            doc = json.loads(str(view[prefix: prefix + header_len], "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TracePackError(f"unreadable trace-pack header: {exc}")
        if not isinstance(doc, dict) or doc.get("format") != "repro-trace":
            raise TracePackError("not a repro-trace header")
        if doc.get("version") != TRACE_FORMAT_VERSION:
            raise TracePackError(
                f"unsupported trace-pack version {doc.get('version')!r} "
                f"(this build reads {TRACE_FORMAT_VERSION})"
            )
        if doc.get("byteorder") != sys.byteorder:
            raise TracePackError(
                f"trace pack written on a {doc.get('byteorder')}-endian "
                f"host; this host is {sys.byteorder}-endian"
            )
        manifest = doc.get("arrays")
        expected = [name for name, _ in _LAYOUT]
        if (
            not isinstance(manifest, list)
            or [row[0] for row in manifest] != expected
        ):
            raise TracePackError("trace-pack array manifest mismatch")

        columns = []
        offset = prefix + header_len
        for (name, typecode), row in zip(_LAYOUT, manifest):
            if (
                row[1] not in NARROW_TYPECODES.get(name, (typecode,))
                or not isinstance(row[2], int)
                or row[2] < 0
            ):
                raise TracePackError(f"bad manifest entry for {name!r}")
            column = array(row[1])
            nbytes = row[2] * column.itemsize
            chunk = view[offset: offset + nbytes]
            if len(chunk) != nbytes:
                raise TracePackError(f"trace-pack payload cut short at {name!r}")
            column.frombytes(chunk)
            columns.append(column)
            offset += nbytes
        if offset != len(data):
            raise TracePackError("trailing bytes after trace-pack payload")

        pack = cls()
        for (name, _), column in zip(ARRAY_LAYOUT, columns):
            setattr(pack, name, column)
        pack.value = doc.get("value")
        meta = doc.get("meta")
        pack.meta = meta if isinstance(meta, dict) else {}
        pack._validate_structure(doc)
        producers = columns[len(ARRAY_LAYOUT): len(ARRAY_LAYOUT) + len(PRODUCER_LAYOUT)]
        pack._producers = pack._read_producer_section(*producers)
        events = columns[-1]
        if len(events) != pack.n:
            raise TracePackError("front-end column must have n entries")
        pack._front_end[TABLE1_FRONT_END] = bytearray(events)
        pack.drop_tokens()
        pack._finalize()
        return pack

    def _validate_structure(self, doc: dict) -> None:
        """Cheap structural invariants (the digest already covers bits)."""
        n = len(self.instr_ids)
        if doc.get("n") != n or doc.get("rows") != len(self.pcs):
            raise TracePackError("trace-pack length fields disagree")
        if len(self.mem_addr) != n or len(self.taken) != n:
            raise TracePackError("dynamic columns disagree in length")
        if n and max(self.instr_ids) >= len(self.pcs):
            raise TracePackError("dynamic row id out of static-table range")
        rows = len(self.pcs)
        for column in (self.kinds, self.fp_side, self.int_defs, self.fp_defs):
            if len(column) != rows:
                raise TracePackError("static columns disagree in length")
        if any(k >= len(KIND_ORDER) for k in self.kinds):
            raise TracePackError("unknown opcode kind code")

    def _read_producer_section(
        self, first: array, second: array, entries: array, distances: array
    ) -> tuple[array, array, dict[int, list[int]]]:
        """The decoded producer columns, checked for shape and order.

        ``entries``/``distances`` list the third and later reads one per
        row, in entry order: an entry with ``k > 2`` reads has exactly
        ``k - 2`` consecutive rows.
        """
        n = self.n
        if len(first) != n or len(second) != n:
            raise TracePackError("producer columns must have n entries")
        if len(entries) != len(distances):
            raise TracePackError("extra-read columns disagree in length")
        if entries and not (entries[0] >= 0 and entries[-1] < n):
            raise TracePackError("extra-read entries out of range")
        more: dict[int, list[int]] = {}
        extra: list[int] = []
        last = -1
        for s, d in zip(entries, distances):
            if s != last:
                if s < last:
                    raise TracePackError("extra-read entries unsorted")
                extra = more[s] = []
                last = s
            extra.append(d)
        return first, second, more


def _producer_section(
    columns: tuple[array, array, dict[int, list[int]]]
) -> list[array]:
    """:data:`PRODUCER_LAYOUT`'s arrays for :meth:`PackedTrace.producer_columns`."""
    first, second, more = columns
    entries = array("q")
    distances = array("H")
    # both constructors of ``more`` insert its keys in entry order
    for s, extra in more.items():
        entries.extend(repeat(s, len(extra)))
        distances.extend(extra)
    return [first, second, entries, distances]


def _front_end_events(pack: PackedTrace, front_end: FrontEnd) -> bytearray:
    """The column of :meth:`PackedTrace.front_end_events`.

    The I-cache pass visits only line changes and the control pass only
    control-flow entries, both found with ``compress`` at C speed; they
    inline the state updates of :class:`~repro.sim.cache.Cache` (LRU)
    and :class:`~repro.sim.branch_pred.GSharePredictor`.
    """
    n = pack.n
    ids = pack.instr_ids
    events = bytearray(n)

    # I-cache: a fetch from the line fetched last is a hit that leaves
    # the LRU state alone, so only line changes can miss
    shift = front_end.line_bytes.bit_length() - 1
    set_mask = front_end.icache_sets - 1
    assoc = front_end.icache_assoc
    row_line = [pc >> shift for pc in pack.pcs]
    lines = list(map(row_line.__getitem__, ids))
    # each set's lines, most recently used last
    sets: list[list[int]] = [[] for _ in range(front_end.icache_sets)]
    for s in compress(range(n), map(ne, lines, chain((None,), lines))):
        line = lines[s]
        ways = sets[line & set_mask]
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
        else:
            events[s] = FE_MISS
            ways.append(line)
            if len(ways) > assoc:
                del ways[0]

    # control flow: jumps, calls and returns end a fetch group; gshare
    # (2-bit counters, weakly not-taken, indexed by pc XOR history)
    # predicts each conditional branch, or an oracle does
    row_ctrl = list(pack.row_ctrl)
    row_index = [pc >> 2 for pc in pack.pcs]
    taken_col = pack.taken
    gshare = not front_end.perfect_branches
    table = [1] * front_end.predictor_entries
    index_mask = front_end.predictor_entries - 1
    history_mask = (1 << front_end.history_bits) - 1
    history = 0
    for s in compress(range(n), map(row_ctrl.__getitem__, ids)):
        sid = ids[s]
        if row_ctrl[sid] == CTRL_JUMP:
            events[s] |= FE_STOP
            continue
        taken = taken_col[s]
        if taken < 0:
            raise SimulationError(
                f"conditional branch at trace entry {s} has no recorded outcome"
            )
        ev = FE_BRANCH | FE_STOP if taken else FE_BRANCH
        if gshare:
            index = (row_index[sid] ^ history) & index_mask
            counter = table[index]
            if taken:
                if counter < 3:
                    table[index] = counter + 1
                if counter < 2:
                    ev |= FE_MISPREDICT
            else:
                if counter:
                    table[index] = counter - 1
                if counter >= 2:
                    ev |= FE_MISPREDICT | FE_STOP
            history = ((history << 1) | taken) & history_mask
        events[s] |= ev
    return events


def _producer_distances(pack: PackedTrace) -> tuple[array, array, dict[int, list[int]]]:
    """The columns of :meth:`PackedTrace.producer_columns`, in one pass."""
    n = pack.n
    none = NO_PRODUCER
    first = array("H", [none]) * n
    second = array("H", [none]) * n
    more: dict[int, list[int]] = {}
    rtok, wtok = pack.read_tokens, pack.write_tokens
    # last writer per token; "never" is far enough back to clip to none
    last = [-none] * len(pack.token_frames)
    # running starts of the entry's read and write ranges
    r0 = w0 = 0
    for s, r1, w1 in zip(
        range(n), islice(pack.read_offsets, 1, None), islice(pack.write_offsets, 1, None)
    ):
        if r1 != r0:
            d = s - last[rtok[r0]]
            if d < none:
                first[s] = d
            if r1 - r0 > 1:
                d = s - last[rtok[r0 + 1]]
                if d < none:
                    second[s] = d
                if r1 - r0 > 2:
                    more[s] = [min(s - last[t], none) for t in rtok[r0 + 2:r1]]
            r0 = r1
        while w0 < w1:
            last[wtok[w0]] = s
            w0 += 1
    return first, second, more


class TraceBuilder:
    """Writes dynamic instructions to the columns of a :class:`PackedTrace`.

    Owns the interning: static rows are deduplicated on instruction
    identity *and* (pc, FP side), so hand-built traces that reuse a pc
    across distinct instruction objects keep distinct rows; tokens and
    their register names get dense ids in first-seen order.

    The offset columns are derived at :meth:`finish`:
    :attr:`read_counts`/:attr:`write_counts` hold each entry's number of
    read and write tokens, and ``read_offsets``/``write_offsets`` are
    their running sums.

    :meth:`append` adds one whole dynamic instruction.  The interpreter
    instead extends the dynamic, token and count columns a straight-line
    segment at a time, interning through :meth:`row` and
    :meth:`new_token` the first time a segment runs (see
    :mod:`repro.runtime.interp`).
    Both routes produce byte-identical packs for the same instruction
    stream.
    """

    __slots__ = ("pack", "read_counts", "write_counts", "_rows", "_tokens", "_names")

    def __init__(self) -> None:
        self.pack = PackedTrace()
        self.read_counts = array("H")
        self.write_counts = array("H")
        self._rows: dict[tuple[int, int, bool], int] = {}
        self._tokens: dict[tuple[int, str], int] = {}
        self._names: dict[str, int] = {}

    def row(self, instr, pc: int, fp: bool) -> int:
        """The static row id of ``instr`` at ``pc`` on the given side."""
        key = (id(instr), pc, fp)
        sid = self._rows.get(key)
        if sid is None:
            pack = self.pack
            sid = len(pack.pcs)
            self._rows[key] = sid
            pack.pcs.append(pc)
            pack.kinds.append(KIND_CODE[instr.kind])
            pack.fp_side.append(1 if fp else 0)
            fps = sum(1 for reg in instr.defs if reg.rclass.value == "fp")
            pack.int_defs.append(len(instr.defs) - fps)
            pack.fp_defs.append(fps)
        return sid

    def token(self, frame: int, name: str) -> int:
        """The interned id of the dependence token ``(frame, name)``."""
        key = (frame, name)
        tid = self._tokens.get(key)
        if tid is None:
            tid = self._tokens[key] = self.new_token(frame, name)
        return tid

    def new_token(self, frame: int, name: str) -> int:
        """The next token id, for a ``(frame, name)`` known to have none.

        The interpreter's route: it asks once per activation and
        register, and activation frame ids are unique, so :meth:`token`'s
        lookup would always miss.  Tokens made here are not entered in
        that lookup, so a builder uses one of the two methods only.
        """
        pack = self.pack
        nid = self._names.get(name)
        if nid is None:
            nid = self._names[name] = len(pack.names)
            pack.names.append(name)
        pack.token_frames.append(frame)
        pack.token_names.append(nid)
        return len(pack.token_frames) - 1

    def append(self, entry: TraceEntry) -> None:
        """Add one :class:`TraceEntry` (reads interned before writes)."""
        pack = self.pack
        pack.instr_ids.append(
            self.row(entry.instr, entry.pc, entry.subsystem is Subsystem.FP)
        )
        pack.mem_addr.append(-1 if entry.mem_addr is None else entry.mem_addr)
        pack.taken.append(-1 if entry.taken is None else 1 if entry.taken else 0)
        token = self.token
        read_tokens, write_tokens = pack.read_tokens, pack.write_tokens
        for frame, name in entry.reads:
            read_tokens.append(token(frame, name))
        self.read_counts.append(len(entry.reads))
        for frame, name in entry.writes:
            write_tokens.append(token(frame, name))
        self.write_counts.append(len(entry.writes))

    def finish(
        self, *, value: int | None = None, meta: dict | None = None
    ) -> PackedTrace:
        """The finished pack; the builder must not be written to after."""
        pack = self.pack
        pack.read_offsets = array("q", accumulate(self.read_counts, initial=0))
        pack.write_offsets = array("q", accumulate(self.write_counts, initial=0))
        pack.value = value
        if meta:
            pack.meta = dict(meta)
        pack._finalize()
        return pack


def pack_entries(
    entries: list[TraceEntry],
    *,
    value: int | None = None,
    meta: dict | None = None,
) -> PackedTrace:
    """Pack a :class:`TraceEntry` stream into a :class:`PackedTrace`."""
    builder = TraceBuilder()
    for entry in entries:
        builder.append(entry)
    return builder.finish(value=value, meta=meta)


def program_fingerprint(program) -> str:
    """SHA-256 of the program's printed form.

    Two pipelines that print identical IR lay out identical pcs and
    produce identical traces; the determinism tests compare it across
    processes.
    """
    from repro.ir.printer import print_program

    return hashlib.sha256(print_program(program).encode("utf-8")).hexdigest()
