"""The zero-pickle boundary transport, piece by piece.

Three layers, tested bottom-up:

* the **codec** (``repro.parallel.codec``): every representable
  ``Message`` survives an encode/decode round trip bit-for-bit, in
  order, and anything the flat format cannot carry is refused with
  :class:`CodecError` — by the encoder, and by the space fabric at the
  send cycle, under every driver;
* the **ring** (``repro.runtime.shm.BoundaryRing``): wrap-around and
  overflow behave exactly as the all-or-nothing contract says;
* the **front lane** (``Engine.inject``): injected events fire before
  same-cycle local events, in key order, without consuming sequence
  numbers — the property the whole transport's determinism rests on.

Plus the versioned-contract pin (``MESSAGE_FIELDS`` vs the dataclass),
a serial identity check (windows 1, 4 and 12 and serial-shm against the
memory reference) and the ring spill protocol under both shm drivers.
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
from repro.parallel import spacetime
from repro.parallel.codec import (
    CODEC_VERSION,
    CodecError,
    decode_records,
    encode_staged,
)
from repro.parallel.spacetime import (
    SpaceMachine,
    SpaceSpec,
    run_checksums,
    run_space,
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
    for arrive, src, seq, msg in staged:
        encode_staged(arrive, src, seq, msg, out)
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
    encode_staged(0, 0, 0, real, out)
    encode_staged(0, 0, 1, none, out)
    (_, _, _, real_back), (_, _, _, none_back) = decode_records(out)
    assert real_back.addr == PhysAddr(-1, 3, 4)
    assert type(real_back.addr) is PhysAddr
    assert none_back.addr is None and none_back.chain_done is True


def test_codec_rejects_out_of_range_value():
    msg = Message(kind=KINDS_BY_IDX[0], src=0, dst=1, value=1 << 70)
    out = []
    with pytest.raises(CodecError, match="signed 64-bit"):
        encode_staged(3, 0, 5, msg, out)
    assert out == []


def test_codec_rejects_malformed_writes():
    msg = Message(kind=KINDS_BY_IDX[3], src=0, dst=1, writes=[(1, 2, 3)])
    out = []
    with pytest.raises(CodecError, match="offset, value"):
        encode_staged(0, 1, 0, msg, out)
    assert out == []


def test_codec_rejection_leaves_the_batch_intact():
    good = Message(kind=KINDS_BY_IDX[1], src=2, dst=3, value=7)
    bad = Message(kind=KINDS_BY_IDX[1], src=2, dst=3, value=-(1 << 64))
    out = []
    encode_staged(10, 0, 0, good, out)
    with pytest.raises(CodecError):
        encode_staged(11, 0, 1, bad, out)
    encode_staged(12, 0, 2, good, out)
    assert [entry[0] for entry in decode_records(out)] == [10, 12]


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
    assert CODEC_VERSION == 3


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
# Unencodable messages fail the same way under every driver.
# ----------------------------------------------------------------------
def build_wide_write(region: int = 0, *, value: int = 1 << 64):
    """SpaceSpec builder: node 0 (region 0) writes ``value`` to a word
    homed on itself and replicated on node 2 (region 1), so the update
    crosses the region boundary."""
    machine = SpaceMachine(n_nodes=4, width=2, height=2, regions=2)
    seg = machine.shm.alloc(1, home=0, replicas=[2])

    def writer(ctx):
        yield from ctx.compute(30)
        yield from ctx.write(seg.base, value)
        yield from ctx.fence()

    def reader(ctx):
        for _ in range(20):
            yield from ctx.compute(50)
            yield from ctx.read(seg.base)

    machine.spawn(0, writer)
    machine.spawn(2, reader)
    machine.set_active_region(region)
    return machine


@needs_shm
def test_unencodable_message_fails_identically_under_every_driver():
    spec = SpaceSpec.make(f"{__name__}:build_wide_write", label="wide")
    base = run_checksums(run_space(spec, jobs=1))
    assert base["error"].startswith("CodecError: ")
    assert "18446744073709551616" in base["error"]
    assert run_checksums(run_space(spec, jobs=1, transport="shm")) == base
    assert run_checksums(run_space(spec, jobs=2)) == base
    # The same program with a word that fits runs clean.
    narrow = SpaceSpec.make(
        f"{__name__}:build_wide_write", {"value": 5}, label="narrow"
    )
    assert run_checksums(run_space(narrow, jobs=2))["error"] is None


# ----------------------------------------------------------------------
# Serial window/transport identity (the worker-process driver is
# covered by test_spacetime_properties / test_parallel).  Window
# placement must be invisible in the output: this is what lets every
# run take the widest window, the lookahead bound.
# ----------------------------------------------------------------------
@needs_shm
def test_windows_and_serial_shm_match_the_memory_reference():
    def checksums(window, **kwargs):
        spec = SpaceSpec.make(
            "repro.check.stress:build_space_stress",
            {"seed": 9, "regions": 2, "faults": True, "window": window},
            label="codec identity seed 9",
        )
        return run_checksums(run_space(spec, jobs=1, **kwargs))

    base = checksums(0)
    assert base["error"] is None
    for window in (1, 4, 12):
        assert checksums(window) == base, window
    assert checksums(0, transport="shm") == base


# ----------------------------------------------------------------------
# The ring spill protocol: rings too small for one barrier's traffic.
# ----------------------------------------------------------------------
@needs_shm
def test_small_rings_spill_and_stay_identical(monkeypatch):
    spec = SpaceSpec.make(
        "repro.check.stress:build_space_stress",
        {"seed": 5, "regions": 2, "faults": True},
        label="spill seed 5",
    )
    base = run_checksums(run_space(spec, jobs=1))
    assert base["error"] is None
    # Room for a few records per direction: a barrier that stages more
    # must spill at the producer and drain in rounds.
    monkeypatch.setattr(
        spacetime, "_ring_words_for", lambda params: params.page_words + 96
    )
    for kwargs in ({"jobs": 1, "transport": "shm"}, {"jobs": 2}):
        run = run_space(spec, **kwargs)
        assert run.transport["spill_rounds"] > 0, kwargs
        assert run_checksums(run) == base, kwargs
