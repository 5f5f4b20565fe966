"""Semantics of the delayed read-modify-write operations (Table 3-1).

Each operation executes atomically at the master copy of the addressed
page.  The executor is pure: it reads words through a callback and returns
the value to send back to the issuer plus the list of word writes the
master must apply and propagate down the copy-list.  Keeping it pure makes
the semantics directly unit- and property-testable without a machine.

Conventions implemented exactly as the paper states them:

* ``xchng`` / ``cond-xchng`` write a 30-bit unsigned word (the stored
  value is masked to 30 bits).
* ``cond-xchng`` writes only if the *current memory value* has its top
  bit set.
* ``fetch-and-set`` sets the top bit, returning the previous value.
* ``queue`` / ``dequeue`` address a word holding a page offset to the
  tail/head of a ring of queue words in the same page.  An occupied queue
  word has its top bit set.  Offsets advance modulo the maximum queue
  size; in this implementation the ring occupies page words
  ``ring_base .. page_words-1``.
* ``min-xchng`` stores the operand if it is smaller (unsigned compare —
  the paper does not specify signedness; unsigned matches its use for
  non-negative path costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.core.params import (
    OpCode,
    TOP_BIT,
    VALUE_MASK_30,
    VALUE_MASK_31,
    WORD_MASK,
)
from repro.errors import ProtocolError

ReadWord = Callable[[int], int]
WordWrite = Tuple[int, int]

# Enum members bound once at import: an ``Enum.MEMBER`` load costs
# ~10x a global on CPython 3.11 (DESIGN.md, "Hot-path rules").
_XCHNG = OpCode.XCHNG
_COND_XCHNG = OpCode.COND_XCHNG
_FETCH_ADD = OpCode.FETCH_ADD
_FETCH_SET = OpCode.FETCH_SET
_MIN_XCHNG = OpCode.MIN_XCHNG
_DELAYED_READ = OpCode.DELAYED_READ
_QUEUE = OpCode.QUEUE
_DEQUEUE = OpCode.DEQUEUE


@dataclass
class OpOutcome:
    """Result of executing one delayed operation at the master copy."""

    #: Value returned to the issuing processor (the old memory contents).
    returned: int
    #: Word writes (page offset, new value) to apply at the master and
    #: propagate down the copy-list, in application order.
    writes: List[WordWrite] = field(default_factory=list)


def _as_signed32(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value & TOP_BIT else value


def _check_ring_offset(offset: int, ring_base: int, page_words: int) -> None:
    if not ring_base <= offset < page_words:
        raise ProtocolError(
            f"queue offset word holds {offset}, outside ring "
            f"[{ring_base}, {page_words})"
        )


def _ring_next(offset: int, ring_base: int, page_words: int) -> int:
    nxt = offset + 1
    return ring_base if nxt >= page_words else nxt


def execute_op(
    op: OpCode,
    offset: int,
    operand: int,
    read: ReadWord,
    page_words: int,
    ring_base: int,
) -> OpOutcome:
    """Execute ``op`` on the word at page ``offset``.

    ``read`` fetches the current contents of any word in the addressed
    page; ``operand`` is the 32-bit operand supplied by the issuer.
    """
    operand &= WORD_MASK
    current = read(offset)

    if op is _DELAYED_READ:
        return OpOutcome(returned=current)

    if op is _XCHNG:
        return OpOutcome(returned=current, writes=[(offset, operand & VALUE_MASK_30)])

    if op is _COND_XCHNG:
        if current & TOP_BIT:
            return OpOutcome(
                returned=current, writes=[(offset, operand & VALUE_MASK_30)]
            )
        return OpOutcome(returned=current)

    if op is _FETCH_ADD:
        new = (current + _as_signed32(operand)) & WORD_MASK
        return OpOutcome(returned=current, writes=[(offset, new)])

    if op is _FETCH_SET:
        return OpOutcome(returned=current, writes=[(offset, current | TOP_BIT)])

    if op is _MIN_XCHNG:
        if operand < current:
            return OpOutcome(returned=current, writes=[(offset, operand)])
        return OpOutcome(returned=current)

    if op is _QUEUE:
        tail = read(offset)
        _check_ring_offset(tail, ring_base, page_words)
        word = read(tail)
        if word & TOP_BIT:
            # Queue full: return the occupied word (top bit set), no write.
            return OpOutcome(returned=word)
        stored = (operand & VALUE_MASK_31) | TOP_BIT
        nxt = _ring_next(tail, ring_base, page_words)
        return OpOutcome(returned=word, writes=[(tail, stored), (offset, nxt)])

    if op is _DEQUEUE:
        head = read(offset)
        _check_ring_offset(head, ring_base, page_words)
        word = read(head)
        if not word & TOP_BIT:
            # Queue empty: return the word (top bit clear), no write.
            return OpOutcome(returned=word)
        nxt = _ring_next(head, ring_base, page_words)
        return OpOutcome(
            returned=word, writes=[(head, word & VALUE_MASK_31), (offset, nxt)]
        )

    raise ProtocolError(f"unknown delayed operation {op!r}")
