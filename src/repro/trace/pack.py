"""Columnar trace packing: the ``repro-trace/1`` format.

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
  to its original ``(frame_id, register name)`` pair so unpacking is
  lossless.

:class:`TraceBuilder` owns the interning and fills the columns.  The
interpreter appends to it as it executes (see
:mod:`repro.runtime.interp`), so a traced run returns a finished pack and
no per-instruction objects are built; :func:`pack_entries` feeds it a
list of :class:`~repro.runtime.trace.TraceEntry` objects instead (hand-
built traces, tests), and :meth:`PackedTrace.unpack_entries` goes back.
The timing simulator consumes the columns directly — integer token ids
instead of tuple hashing, pre-resolved latency/control classes instead
of per-entry ``OpKind`` tests (see :mod:`repro.sim.pipeline`).

On-disk encoding (``to_bytes``/``from_bytes``)::

    MAGIC (8) | sha256(header+payload) (32) | header length (4, BE)
             | canonical-JSON header | concatenated array payloads

The digest covers everything after itself, so a bit flip anywhere —
header or payload — is detected.  The header carries the format
version, byte order, array manifest, token-name string table, and
arbitrary caller metadata (the prepared program's identity and
summary, and the code fingerprint the trace store adds).  Any validation failure raises
:class:`~repro.errors.TracePackError`; encode→decode→encode is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array

from repro.errors import TracePackError
from repro.ir.opcodes import OpKind
from repro.runtime.trace import Subsystem, TraceEntry

#: Bump on any incompatible change to the header or column layout.
#: Participates in bench cache keys (see :func:`repro.bench.cache.cell_key`)
#: so a format bump invalidates both trace packs and cached cell results.
TRACE_FORMAT_VERSION = 1

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
#: ``q``/``b``/``B`` have fixed item sizes on every supported platform.
ARRAY_LAYOUT = (
    ("pcs", "q"),
    ("kinds", "B"),
    ("fp_side", "B"),
    ("int_defs", "B"),
    ("fp_defs", "B"),
    ("instr_ids", "q"),
    ("mem_addr", "q"),
    ("taken", "b"),
    ("read_offsets", "q"),
    ("read_tokens", "q"),
    ("write_offsets", "q"),
    ("write_tokens", "q"),
    ("token_frames", "q"),
    ("token_names", "q"),
)


class PackedTrace:
    """A dynamic trace as columnar arrays (see module docstring).

    Static table (length = number of distinct static rows):
        ``pcs``, ``kinds`` (codes into :data:`KIND_ORDER`), ``fp_side``
        (0/1), ``int_defs``/``fp_defs`` (destination counts by class).

    Dynamic columns (length = ``n``):
        ``instr_ids`` (static row per entry), ``mem_addr`` (-1 = none),
        ``taken`` (-1 = none, else 0/1).

    Token columns:
        ``read_offsets``/``write_offsets`` (length ``n + 1``) delimit
        each entry's slice of ``read_tokens``/``write_tokens``, which
        hold interned token ids; ``token_frames``/``token_names`` (+ the
        ``names`` string list) map ids back to ``(frame_id, name)``.

    ``meta`` carries caller metadata (workload, scheme, partition
    summary, ...), round-tripped through the encoding.
    """

    __slots__ = (
        "pcs", "kinds", "fp_side", "int_defs", "fp_defs",
        "instr_ids", "mem_addr", "taken",
        "read_offsets", "read_tokens", "write_offsets", "write_tokens",
        "token_frames", "token_names", "names",
        "value", "meta",
        "row_lat", "row_ctrl",
    )

    def __init__(self) -> None:
        for name, typecode in ARRAY_LAYOUT:
            setattr(self, name, array(typecode))
        self.names: list[str] = []
        self.value: int | None = None
        self.meta: dict = {}
        self.row_lat = array("B")
        self.row_ctrl = array("B")

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

    # ------------------------------------------------------------------
    def token(self, token_id: int) -> tuple[int, str]:
        """The original ``(frame_id, name)`` pair for an interned id."""
        return self.token_frames[token_id], self.names[self.token_names[token_id]]

    def dynamic_mix(self) -> dict[str, int]:
        """Summary of the trace: dynamic counts by category.

        ``fp_executed`` counts instructions executing in the FP/FPa
        subsystem — the paper's "offloaded" metric numerator for integer
        programs.
        """
        # per-row dynamic occurrence counts, then one combine per row
        occurrences = [0] * self.rows
        for sid in self.instr_ids:
            occurrences[sid] += 1
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
        for sid, count in enumerate(occurrences):
            if not count:
                continue
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

        Requires the :class:`~repro.ir.program.Program` the trace was
        captured from — packing keeps pcs, not instruction objects, so
        instructions are recovered through the program's layout.  Raises
        :class:`TracePackError` when a pc has no instruction (the pack
        does not belong to this program).
        """
        from repro.runtime.trace import TEXT_BASE

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
        """Serialize (see module docstring); deterministic byte-for-byte."""
        payload = b"".join(
            getattr(self, name).tobytes() for name, _ in ARRAY_LAYOUT
        )
        header_doc = {
            "format": "repro-trace",
            "version": TRACE_FORMAT_VERSION,
            "byteorder": sys.byteorder,
            "n": self.n,
            "rows": self.rows,
            "value": self.value,
            "meta": self.meta,
            "names": self.names,
            "arrays": [
                [name, typecode, len(getattr(self, name))]
                for name, typecode in ARRAY_LAYOUT
            ],
        }
        header = json.dumps(
            header_doc, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        digest = hashlib.sha256(header + payload).digest()
        return b"".join(
            (MAGIC, digest, len(header).to_bytes(4, "big"), header, payload)
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
        header = data[prefix: prefix + header_len]
        payload = data[prefix + header_len:]
        if hashlib.sha256(header + payload).digest() != digest:
            raise TracePackError("trace-pack checksum mismatch")
        try:
            doc = json.loads(header.decode("utf-8"))
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
        expected = [name for name, _ in ARRAY_LAYOUT]
        if (
            not isinstance(manifest, list)
            or [row[0] for row in manifest] != expected
        ):
            raise TracePackError("trace-pack array manifest mismatch")

        pack = cls()
        offset = 0
        for (name, typecode), row in zip(ARRAY_LAYOUT, manifest):
            if row[1] != typecode or not isinstance(row[2], int) or row[2] < 0:
                raise TracePackError(f"bad manifest entry for {name!r}")
            column = array(typecode)
            nbytes = row[2] * column.itemsize
            chunk = payload[offset: offset + nbytes]
            if len(chunk) != nbytes:
                raise TracePackError(f"trace-pack payload cut short at {name!r}")
            column.frombytes(chunk)
            setattr(pack, name, column)
            offset += nbytes
        if offset != len(payload):
            raise TracePackError("trailing bytes after trace-pack payload")

        names = doc.get("names")
        if not isinstance(names, list) or not all(
            isinstance(s, str) for s in names
        ):
            raise TracePackError("bad trace-pack name table")
        pack.names = names
        pack.value = doc.get("value")
        meta = doc.get("meta")
        pack.meta = meta if isinstance(meta, dict) else {}
        pack._validate_structure(doc)
        pack._finalize()
        return pack

    def _validate_structure(self, doc: dict) -> None:
        """Cheap structural invariants (the digest already covers bits)."""
        n = len(self.instr_ids)
        if doc.get("n") != n or doc.get("rows") != len(self.pcs):
            raise TracePackError("trace-pack length fields disagree")
        if len(self.mem_addr) != n or len(self.taken) != n:
            raise TracePackError("dynamic columns disagree in length")
        if len(self.read_offsets) != n + 1 or len(self.write_offsets) != n + 1:
            raise TracePackError("offset columns must have n + 1 entries")
        if n:
            if self.read_offsets[0] != 0 or self.write_offsets[0] != 0:
                raise TracePackError("offset columns must start at 0")
            if (
                self.read_offsets[-1] != len(self.read_tokens)
                or self.write_offsets[-1] != len(self.write_tokens)
            ):
                raise TracePackError("offset columns must end at token count")
            if max(self.instr_ids) >= len(self.pcs):
                raise TracePackError("dynamic row id out of static-table range")
        rows = len(self.pcs)
        for column in (self.kinds, self.fp_side, self.int_defs, self.fp_defs):
            if len(column) != rows:
                raise TracePackError("static columns disagree in length")
        if any(k >= len(KIND_ORDER) for k in self.kinds):
            raise TracePackError("unknown opcode kind code")
        token_count = len(self.token_frames)
        if len(self.token_names) != token_count:
            raise TracePackError("token columns disagree in length")
        for tokens in (self.read_tokens, self.write_tokens):
            if len(tokens) and (
                min(tokens) < 0 or max(tokens) >= token_count
            ):
                raise TracePackError("token id out of table range")
        if token_count and (
            min(self.token_names) < 0
            or max(self.token_names) >= len(self.names)
        ):
            raise TracePackError("token name index out of name-table range")


class TraceBuilder:
    """Appends dynamic instructions to the columns of a :class:`PackedTrace`.

    Owns the interning: static rows are deduplicated on instruction
    identity *and* (pc, FP side), so hand-built traces that reuse a pc
    across distinct instruction objects keep distinct rows; tokens and
    their register names get dense ids in first-seen order.

    :meth:`append` adds one whole dynamic instruction.  The interpreter
    instead writes the dynamic columns of :attr:`pack` itself, interning
    through :meth:`row` and :meth:`token` on first sight only; both
    routes produce byte-identical packs for the same instruction stream.
    """

    __slots__ = ("pack", "_rows", "_tokens", "_names")

    def __init__(self) -> None:
        self.pack = PackedTrace()
        self.pack.read_offsets.append(0)
        self.pack.write_offsets.append(0)
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
            pack = self.pack
            tid = len(pack.token_frames)
            self._tokens[key] = tid
            nid = self._names.get(name)
            if nid is None:
                nid = len(pack.names)
                self._names[name] = nid
                pack.names.append(name)
            pack.token_frames.append(frame)
            pack.token_names.append(nid)
        return tid

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
        pack.read_offsets.append(len(read_tokens))
        for frame, name in entry.writes:
            write_tokens.append(token(frame, name))
        pack.write_offsets.append(len(write_tokens))

    def finish(
        self, *, value: int | None = None, meta: dict | None = None
    ) -> PackedTrace:
        """The finished pack; the builder must not be appended to after."""
        pack = self.pack
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
