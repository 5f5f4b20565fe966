"""The zero-pickle boundary transport, piece by piece.

Three layers, tested bottom-up:

* the **codec** (``repro.parallel.codec``): every representable
  ``Message`` survives an encode/decode round trip bit-for-bit, in
  order, and anything the flat format cannot carry rides the pickled
  fallback record through the same ring;
* the **ring** (``repro.runtime.shm.BoundaryRing``): wrap-around and
  overflow behave exactly as the all-or-nothing contract says;
* the **front lane** (``Engine.inject``): injected events fire before
  same-cycle local events, in key order, without consuming sequence
  numbers — the property the whole transport's determinism rests on.

Plus the versioned-contract pin (``MESSAGE_FIELDS`` vs the dataclass)
and two serial identity checks (shm-vs-memory transport,
adaptive-vs-fixed windows) that make every transport/policy cell
transitively byte-equal.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import OpCode
from repro.errors import ConfigError
from repro.memory.address import PhysAddr
from repro.network.message import KINDS_BY_IDX, MESSAGE_FIELDS, Message
from repro.parallel.codec import (
    CODEC_VERSION,
    CodecError,
    decode_records,
    encode_staged,
)
from repro.runtime.shm import BoundaryRing, _shared_memory
from repro.sim.engine import Engine

needs_shm = pytest.mark.skipif(
    _shared_memory is None, reason="multiprocessing.shared_memory missing"
)

I64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
SMALL = st.integers(min_value=-4, max_value=1 << 20)


@st.composite
def messages(draw) -> Message:
    """Any flat-representable Message, extremes included."""
    addr = draw(
        st.one_of(
            st.none(),
            st.builds(PhysAddr, SMALL, SMALL, SMALL),
        )
    )
    return Message(
        kind=draw(st.sampled_from(KINDS_BY_IDX)),
        src=draw(SMALL),
        dst=draw(SMALL),
        addr=addr,
        value=draw(I64),
        op=draw(st.one_of(st.none(), st.sampled_from(tuple(OpCode)))),
        operand=draw(I64),
        origin=draw(SMALL),
        xid=draw(SMALL),
        words=draw(st.lists(I64, max_size=80)),
        writes=draw(
            st.lists(st.tuples(SMALL, I64), max_size=6).map(
                lambda pairs: [tuple(p) for p in pairs]
            )
        ),
        chain_done=draw(st.booleans()),
        seq=draw(st.one_of(st.just(-1), SMALL)),
        epoch=draw(st.integers(min_value=0, max_value=(1 << 32) - 1)),
        msg_id=draw(st.one_of(st.just(-1), SMALL)),
    )


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    staged=st.lists(
        st.tuples(SMALL, st.integers(0, 7), SMALL, messages()), max_size=8
    )
)
def test_codec_round_trips_any_batch(staged):
    out = []
    flat = [
        encode_staged(arrive, src, seq, msg, out)
        for arrive, src, seq, msg in staged
    ]
    assert all(flat)  # every generated message fits the flat format
    decoded = decode_records(out)
    assert decoded == [tuple(entry) for entry in staged]
    for (_, _, _, msg), (_, _, _, back) in zip(staged, decoded):
        # Dataclass equality plus the types the wire could have punned.
        assert type(back.addr) is type(msg.addr)
        assert back.kind is msg.kind and back.op is msg.op
        assert back.chain_done is msg.chain_done


def test_codec_keeps_negative_node_address():
    """``addr=None`` has its own flag: a real address on node -1 must
    not decode as ``None`` (nor ``None`` as node -1)."""
    real = Message(kind=KINDS_BY_IDX[0], src=0, dst=1, addr=PhysAddr(-1, 3, 4))
    none = Message(kind=KINDS_BY_IDX[0], src=0, dst=1, chain_done=True)
    out = []
    assert encode_staged(0, 0, 0, real, out)
    assert encode_staged(0, 0, 1, none, out)
    (_, _, _, real_back), (_, _, _, none_back) = decode_records(out)
    assert real_back.addr == PhysAddr(-1, 3, 4)
    assert type(real_back.addr) is PhysAddr
    assert none_back.addr is None and none_back.chain_done is True


def test_codec_falls_back_on_out_of_range_value():
    msg = Message(kind=KINDS_BY_IDX[0], src=0, dst=1, value=1 << 70)
    out = []
    assert encode_staged(3, 0, 5, msg, out) is False
    assert decode_records(out) == [(3, 0, 5, msg)]


def test_codec_falls_back_on_malformed_writes():
    msg = Message(kind=KINDS_BY_IDX[3], src=0, dst=1, writes=[(1, 2, 3)])
    out = []
    assert encode_staged(0, 1, 0, msg, out) is False
    assert decode_records(out) == [(0, 1, 0, msg)]


def test_codec_mixes_flat_and_fallback_in_order():
    good = Message(kind=KINDS_BY_IDX[1], src=2, dst=3, value=7)
    bad = Message(kind=KINDS_BY_IDX[1], src=2, dst=3, value=-(1 << 64))
    out = []
    assert encode_staged(10, 0, 0, good, out) is True
    assert encode_staged(11, 0, 1, bad, out) is False
    assert encode_staged(12, 0, 2, good, out) is True
    assert [entry[0] for entry in decode_records(out)] == [10, 11, 12]


def test_codec_rejects_truncated_records():
    msg = Message(kind=KINDS_BY_IDX[0], src=0, dst=1)
    out = []
    encode_staged(0, 0, 0, msg, out)
    with pytest.raises(CodecError):
        decode_records(out[:-1])
    with pytest.raises(CodecError):
        decode_records([99])  # length word pointing past the buffer


def test_message_fields_pin_the_codec_contract():
    """Adding/removing/reordering Message fields must be deliberate:
    this pin fails until MESSAGE_FIELDS (and CODEC_VERSION) follow."""
    names = tuple(f.name for f in dataclasses.fields(Message))
    assert names == MESSAGE_FIELDS
    assert CODEC_VERSION == 2


# ----------------------------------------------------------------------
# BoundaryRing wrap and overflow
# ----------------------------------------------------------------------
@needs_shm
def test_ring_wraps_and_preserves_order():
    ring = BoundaryRing.create(16, CODEC_VERSION)
    try:
        sent = []
        value = 0
        # Batches of co-prime-ish sizes force the write/read split at
        # the physical end of the buffer many times over.
        for size in [3, 5, 7, 6, 4, 7, 5, 3, 7, 6] * 4:
            batch = list(range(value, value + size))
            value += size
            assert ring.push(batch)
            sent.extend(batch)
            if len(sent) > 9:
                got = ring.drain()
                assert got == sent[: len(got)]
                del sent[: len(got)]
        assert ring.drain() == sent
        assert ring.drain() == []
    finally:
        ring.close(unlink=True)


@needs_shm
def test_ring_overflow_is_all_or_nothing():
    ring = BoundaryRing.create(8, CODEC_VERSION)
    try:
        assert ring.push([1, 2, 3, 4, 5])
        assert ring.free_words == 3
        assert not ring.push([6, 7, 8, 9])  # 4 > 3: refused outright
        assert ring.free_words == 3
        assert ring.push([6, 7, 8])
        assert ring.drain() == [1, 2, 3, 4, 5, 6, 7, 8]
        assert not ring.push(list(range(9)))  # bigger than the ring
    finally:
        ring.close(unlink=True)


@needs_shm
def test_ring_attach_checks_version():
    ring = BoundaryRing.create(16, CODEC_VERSION)
    try:
        other = BoundaryRing.attach(ring.name, CODEC_VERSION)
        assert other.push([1, 2])
        assert ring.drain() == [1, 2]
        other.close()
        with pytest.raises(ConfigError):
            BoundaryRing.attach(ring.name, CODEC_VERSION + 1)
    finally:
        ring.close(unlink=True)


# ----------------------------------------------------------------------
# The engine front lane
# ----------------------------------------------------------------------
def test_front_lane_fires_before_local_events_in_key_order():
    engine = Engine()
    fired = []
    engine.at(5, lambda: fired.append("local"))
    engine.inject(5, (1, 0), lambda: fired.append("inj-b"))
    engine.inject(5, (0, 3), lambda: fired.append("inj-a"))
    engine.run(until=6)
    assert fired == ["inj-a", "inj-b", "local"]


def test_front_lane_does_not_consume_sequence_numbers():
    """Local scheduling order must be byte-identical whether or not
    injections happened around it — the driver-independence keystone."""

    def trace(with_injection: bool):
        engine = Engine()
        fired = []
        for i in range(4):
            # Far-future events take the heap path, where seq numbers
            # decide same-cycle order.
            engine.at(1000, lambda i=i: fired.append(i))
            if with_injection:
                engine.inject(500 + i, (0, i), lambda: None)
        engine.run(until=1001)
        return fired

    assert trace(False) == trace(True)


def test_front_lane_rejects_past_injection():
    from repro.errors import SimulationError

    engine = Engine()
    engine.at(3, lambda: None)
    engine.run(until=4)
    with pytest.raises(SimulationError):
        engine.inject(2, (0, 0), lambda: None)


# ----------------------------------------------------------------------
# Serial transport/policy identity (parallel cells are covered by
# test_spacetime_properties / test_parallel; these keep the fast serial
# modes honest so every cell stays transitively byte-equal).
# ----------------------------------------------------------------------
@needs_shm
def test_serial_shm_and_adaptive_match_memory_fixed():
    from repro.parallel.spacetime import SpaceSpec, run_checksums, run_space

    spec = SpaceSpec.make(
        "repro.check.stress:build_space_stress",
        {"seed": 9, "regions": 2, "faults": True},
        label="codec identity seed 9",
    )
    base = run_checksums(run_space(spec, jobs=1, adaptive=False))
    assert base["error"] is None
    for kwargs in (
        {"transport": "shm", "adaptive": False},
        {"transport": "pickle", "adaptive": False},
        {"adaptive": True},
        {"transport": "shm", "adaptive": True},
    ):
        assert run_checksums(run_space(spec, jobs=1, **kwargs)) == base, kwargs


def test_adaptive_widen_cap_scales_with_lookahead():
    from repro.core.params import PAPER_PARAMS
    from repro.parallel.spacetime import adaptive_widen_cap, lookahead_bound

    bound = lookahead_bound(PAPER_PARAMS)
    assert adaptive_widen_cap(PAPER_PARAMS, bound) == 1
    assert adaptive_widen_cap(PAPER_PARAMS, 1) == bound
    cap = adaptive_widen_cap(PAPER_PARAMS, 7)
    assert cap == max(1, bound // 7)
