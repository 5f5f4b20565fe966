"""Zero-pickle boundary codec for staged cross-region messages.

The space-parallel transport moves staged ``(arrive, src_region,
staging_seq, Message)`` tuples between region processes through
shared-memory ring buffers (``repro.runtime.shm.BoundaryRing``).  This
module is the wire format: each staged message becomes one flat record
of signed 64-bit words, packed and unpacked with plain list/``array``
operations — no pickle anywhere on the barrier path.

Record layout (version 2)
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

Fallback records
----------------
A message whose fields do not fit the flat format (an integer outside
signed 64-bit range, a malformed writes tuple) is carried as a pickled
blob *inside the same ring*, framed as::

    [LEN, ARRIVE, SRC_REGION, STAGE_SEQ, -1, N_BYTES, payload words...]

with the pickle bytes packed little-endian into as many words as they
need.  ``KIND = -1`` marks the variant.  Fallbacks keep the transport
total (one ordered channel per region pair) and are counted by the
caller so the bench can report how much traffic actually bypassed
pickle.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence, Tuple

from repro.core.params import OpCode
from repro.errors import SimulationError
from repro.network.message import KINDS_BY_IDX, Message

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "encode_staged",
    "decode_records",
]

#: Wire-format version, stamped into every ring header; bump on any
#: change to the record layout or to ``MESSAGE_FIELDS``.
CODEC_VERSION = 2

#: Fixed header words per flat record (through N_WRITES).
_FIXED_WORDS = 21

#: FLAGS bits.
_CHAIN_DONE = 1
_HAS_ADDR = 2

#: Sentinel in the KIND slot marking a pickled fallback record.
_FALLBACK_KIND = -1

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: OpCodes in dense-index order (mirrors ``KINDS_BY_IDX``).
_OPS_BY_IDX = tuple(OpCode)


class CodecError(SimulationError):
    """A record that cannot be represented or parsed by this codec."""


def _fits(value: int) -> bool:
    return _INT64_MIN <= value <= _INT64_MAX


def _encode_flat(
    arrive: int,
    src_region: int,
    stage_seq: int,
    msg: Message,
    out: List[int],
) -> None:
    """Append one flat record for ``msg``; raises CodecError on any
    field outside the flat format (the caller then falls back)."""
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
                f"write tuple {write!r} is not an (offset, value) pair"
            )
        record.extend(write)
    record[0] = len(record)
    for value in record:
        if type(value) is not int or not _fits(value):
            raise CodecError(
                f"field value {value!r} does not fit a signed 64-bit word"
            )
    out.extend(record)


def _encode_fallback(
    arrive: int,
    src_region: int,
    stage_seq: int,
    msg: Message,
    out: List[int],
) -> None:
    blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    n_bytes = len(blob)
    n_words = (n_bytes + 7) // 8
    padded = blob + b"\0" * (n_words * 8 - n_bytes)
    record = [
        6 + n_words,
        arrive,
        src_region,
        stage_seq,
        _FALLBACK_KIND,
        n_bytes,
    ]
    record.extend(
        int.from_bytes(padded[i : i + 8], "little", signed=True)
        for i in range(0, len(padded), 8)
    )
    out.extend(record)


def encode_staged(
    arrive: int,
    src_region: int,
    stage_seq: int,
    msg: Message,
    out: List[int],
) -> bool:
    """Append one record to ``out``; True when the flat (pickle-free)
    format carried it, False when it needed the pickled fallback."""
    mark = len(out)
    try:
        _encode_flat(arrive, src_region, stage_seq, msg, out)
        return True
    except CodecError:
        del out[mark:]
        _encode_fallback(arrive, src_region, stage_seq, msg, out)
        return False


def decode_records(
    words: Sequence[int],
) -> List[Tuple[int, int, int, Message]]:
    """Parse a run of records back into staged tuples, in record order."""
    staged: List[Tuple[int, int, int, Message]] = []
    pos = 0
    total = len(words)
    while pos < total:
        length = words[pos]
        if length < 6 or pos + length > total:
            raise CodecError(
                f"corrupt record at word {pos}: length {length} of "
                f"{total - pos} available"
            )
        arrive = words[pos + 1]
        src_region = words[pos + 2]
        stage_seq = words[pos + 3]
        kind_idx = words[pos + 4]
        if kind_idx == _FALLBACK_KIND:
            n_bytes = words[pos + 5]
            payload = words[pos + 6 : pos + length]
            if not 0 <= n_bytes <= len(payload) * 8:
                raise CodecError(
                    f"corrupt fallback record at word {pos}: "
                    f"{n_bytes} bytes in {len(payload)} words"
                )
            blob = b"".join(
                w.to_bytes(8, "little", signed=True) for w in payload
            )[:n_bytes]
            msg = pickle.loads(blob)
        else:
            msg = _decode_flat(words, pos, length, kind_idx)
        staged.append((arrive, src_region, stage_seq, msg))
        pos += length
    return staged


def _decode_flat(
    words: Sequence[int], pos: int, length: int, kind_idx: int
) -> Message:
    from repro.memory.address import PhysAddr

    if length < _FIXED_WORDS:
        raise CodecError(
            f"corrupt flat record at word {pos}: length {length} below "
            f"the {_FIXED_WORDS}-word header"
        )
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
