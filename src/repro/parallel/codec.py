"""Zero-pickle boundary codec for staged cross-region messages.

The space-parallel transport moves staged ``(arrive, src_region,
staging_seq, Message)`` tuples between region processes through
shared-memory ring buffers (``repro.runtime.shm.BoundaryRing``).  This
module is the wire format: each staged message becomes one flat record
of signed 64-bit words, packed and unpacked with plain list/``array``
operations — no pickle anywhere on the barrier path.

Record layout (version 3)
-------------------------
Every record starts with its total length in words, so a consumer can
walk a drained ring without any out-of-band framing::

    [LEN, ARRIVE, SRC_REGION, STAGE_SEQ, KIND,
     SRC, DST, ADDR_NODE, ADDR_PAGE, ADDR_OFF,
     VALUE, OP, OPERAND, ORIGIN, XID,
     FLAGS, SEQ, EPOCH, MSG_ID, N_WORDS, N_WRITES,
     words..., (write offset, write value) pairs...]

``FLAGS`` holds ``chain_done`` in bit 0 and, in bit 1, whether the
message has an address at all: ``addr=None`` clears it and leaves the
three address words 0, so every ``PhysAddr``, negative node ids
included, round-trips.  ``OP`` is the dense
:class:`~repro.core.params.OpCode` index or -1 for ``None``.  The
field set and order mirror
:data:`repro.network.message.MESSAGE_FIELDS` — that tuple is the
versioned contract between ``Message`` and this codec, and
:data:`CODEC_VERSION` must bump whenever either side changes.

Unencodable messages
--------------------
A message with a field outside the flat format (an integer outside
signed 64-bit range, a non-``int`` value, a malformed writes tuple) has
no record: :func:`encode_staged` raises :class:`CodecError`.  The
space-partitioned fabric calls :func:`check_encodable` on every
cross-region message as it stages it, so such a message fails the run
at its send cycle under every driver — the in-process reference
included — instead of only where bytes actually cross a process.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.params import OpCode
from repro.errors import CodecError
from repro.network.message import KINDS_BY_IDX, Message

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "check_encodable",
    "encode_staged",
    "decode_records",
]

#: Wire-format version, stamped into every ring header; bump on any
#: change to the record layout or to ``MESSAGE_FIELDS``.
CODEC_VERSION = 3

#: Fixed header words per flat record (through N_WRITES).
_FIXED_WORDS = 21

#: FLAGS bits.
_CHAIN_DONE = 1
_HAS_ADDR = 2

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: OpCodes in dense-index order (mirrors ``KINDS_BY_IDX``).
_OPS_BY_IDX = tuple(OpCode)


def _fits(value: int) -> bool:
    return _INT64_MIN <= value <= _INT64_MAX


def _record(
    arrive: int,
    src_region: int,
    stage_seq: int,
    msg: Message,
) -> List[int]:
    """One flat record for ``msg``; raises CodecError on any field
    outside the flat format."""
    addr = msg.addr
    if addr is None:
        flags = 0
        addr_node = addr_page = addr_off = 0
    else:
        flags = _HAS_ADDR
        addr_node, addr_page, addr_off = addr
    if msg.chain_done:
        flags |= _CHAIN_DONE
    words = msg.words
    writes = msg.writes
    record = [
        0,  # LEN, patched below
        arrive,
        src_region,
        stage_seq,
        msg.kind.idx,
        msg.src,
        msg.dst,
        addr_node,
        addr_page,
        addr_off,
        msg.value,
        -1 if msg.op is None else msg.op.idx,
        msg.operand,
        msg.origin,
        msg.xid,
        flags,
        msg.seq,
        msg.epoch,
        msg.msg_id,
        len(words),
        len(writes),
    ]
    record.extend(words)
    for write in writes:
        if len(write) != 2:
            raise CodecError(
                f"{msg.kind.name} {msg.src}->{msg.dst}: write tuple "
                f"{write!r} is not an (offset, value) pair"
            )
        record.extend(write)
    record[0] = len(record)
    for value in record:
        if type(value) is not int or not _fits(value):
            raise CodecError(
                f"{msg.kind.name} {msg.src}->{msg.dst}: field value "
                f"{value!r} does not fit a signed 64-bit word"
            )
    return record


def check_encodable(msg: Message) -> None:
    """Raise :class:`CodecError` unless the flat format can carry
    ``msg`` (the same test :func:`encode_staged` applies)."""
    _record(0, 0, 0, msg)


def encode_staged(
    arrive: int,
    src_region: int,
    stage_seq: int,
    msg: Message,
    out: List[int],
) -> None:
    """Append one record to ``out``; raises :class:`CodecError` (and
    leaves ``out`` untouched) when ``msg`` does not fit the format."""
    out.extend(_record(arrive, src_region, stage_seq, msg))


def decode_records(
    words: Sequence[int],
) -> List[Tuple[int, int, int, Message]]:
    """Parse a run of records back into staged tuples, in record order."""
    staged: List[Tuple[int, int, int, Message]] = []
    pos = 0
    total = len(words)
    while pos < total:
        length = words[pos]
        if length < _FIXED_WORDS or pos + length > total:
            raise CodecError(
                f"corrupt record at word {pos}: length {length} of "
                f"{total - pos} available (header is {_FIXED_WORDS})"
            )
        staged.append(
            (
                words[pos + 1],
                words[pos + 2],
                words[pos + 3],
                _decode_flat(words, pos, length),
            )
        )
        pos += length
    return staged


def _decode_flat(words: Sequence[int], pos: int, length: int) -> Message:
    from repro.memory.address import PhysAddr

    kind_idx = words[pos + 4]
    if not 0 <= kind_idx < len(KINDS_BY_IDX):
        raise CodecError(f"unknown message kind index {kind_idx}")
    n_words = words[pos + 19]
    n_writes = words[pos + 20]
    if length != _FIXED_WORDS + n_words + 2 * n_writes:
        raise CodecError(
            f"corrupt flat record at word {pos}: length {length} does "
            f"not match {n_words} payload words + {n_writes} writes"
        )
    flags = words[pos + 15]
    op_idx = words[pos + 11]
    if op_idx != -1 and not 0 <= op_idx < len(_OPS_BY_IDX):
        raise CodecError(f"unknown op index {op_idx}")
    body = pos + _FIXED_WORDS
    return Message(
        kind=KINDS_BY_IDX[kind_idx],
        src=words[pos + 5],
        dst=words[pos + 6],
        addr=(
            PhysAddr(words[pos + 7], words[pos + 8], words[pos + 9])
            if flags & _HAS_ADDR
            else None
        ),
        value=words[pos + 10],
        op=None if op_idx == -1 else _OPS_BY_IDX[op_idx],
        operand=words[pos + 12],
        origin=words[pos + 13],
        xid=words[pos + 14],
        words=list(words[body : body + n_words]),
        writes=[
            (words[i], words[i + 1])
            for i in range(body + n_words, body + n_words + 2 * n_writes, 2)
        ],
        chain_done=bool(flags & _CHAIN_DONE),
        seq=words[pos + 16],
        epoch=words[pos + 17],
        msg_id=words[pos + 18],
    )
