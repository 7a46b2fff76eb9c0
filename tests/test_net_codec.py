"""The wire codec: round-trips, determinism, interning (per batch and per
stream), malformed input, leak safety."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.confidential_gossip import DirectAck, DirectRumor
from repro.core.group_distribution import (
    DistributionShare,
    FragmentDelivery,
    GDShare,
)
from repro.core.proxy import ProxyAck, ProxyRequest, ProxyShare
from repro.core.splitting import Fragment
from repro.gossip.rumor import GossipItem, ItemBatch, Rumor, RumorId
from repro.net.codec import (
    MAGIC,
    WIRE_TYPES,
    WIRE_VERSION,
    CodecError,
    WireSession,
    decode_frame,
    decode_message,
    decode_tagged_messages,
    decode_value,
    encode_frame,
    encode_message,
    encode_tagged_messages,
    encode_value,
)
from repro.sim.messages import Message

pids = st.integers(min_value=0, max_value=63)
rounds = st.integers(min_value=0, max_value=1024)
blobs = st.binary(max_size=48)
dests = st.frozensets(pids, min_size=1, max_size=6)
rids = st.builds(RumorId, src=pids, seq=st.integers(0, 1 << 40))
rumors = st.builds(
    Rumor,
    rid=rids,
    data=blobs,
    deadline=st.integers(1, 512),
    dest=dests,
    injected_at=rounds,
)
fragments = st.integers(1, 8).flatmap(
    lambda total: st.builds(
        Fragment,
        rid=rids,
        partition=st.integers(0, 7),
        group=st.integers(0, total - 1),
        total_groups=st.just(total),
        data=blobs,
        dest=dests,
        dline=st.integers(1, 256),
        expiry=rounds,
    )
)
hits = st.frozensets(st.tuples(pids, rids), max_size=5)

#: One strategy per registered wire type, same order as WIRE_TYPES.
payloads = st.one_of(
    rids,
    rumors,
    st.builds(
        GossipItem,
        uid=st.tuples(pids, st.integers(0, 1 << 20)),
        origin=pids,
        payload=st.one_of(st.none(), fragments, rumors),
        expiry=rounds,
        dest=dests,
        born=rounds,
    ),
    fragments,
    st.builds(
        ProxyRequest, sender=pids, fragments=st.tuples(fragments, fragments)
    ),
    st.builds(ProxyAck, sender=pids),
    st.builds(
        ProxyShare,
        sender=pids,
        fragments=st.tuples(fragments),
        failed_proxies=st.frozensets(pids, max_size=4),
        collaborator=st.booleans(),
    ),
    st.builds(FragmentDelivery, sender=pids, fragments=st.tuples(fragments)),
    st.builds(GDShare, sender=pids, hits=hits),
    st.builds(
        DistributionShare,
        sender=pids,
        dline=st.integers(1, 256),
        partition=st.integers(0, 7),
        group=st.integers(0, 7),
        hits=hits,
    ),
    st.builds(
        DirectRumor, rumor=rumors, path=st.sampled_from(["direct", "fallback"])
    ),
    st.builds(DirectAck, rid=rids, acker=pids),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.floats(allow_nan=False),
    st.binary(max_size=32),
    st.text(max_size=16),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)

messages = st.builds(
    Message,
    src=pids,
    dst=pids,
    service=st.sampled_from(["proxy", "gd", "gossip", "direct"]),
    payload=st.one_of(st.none(), payloads),
    size=st.integers(1, 64),
    channel=st.sampled_from(["", "gg:0:1", "ag"]),
)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_payload_round_trip(payload):
    assert decode_value(encode_value(payload)) == payload


@settings(max_examples=150, deadline=None)
@given(values)
def test_scalar_container_round_trip(value):
    assert decode_value(encode_value(value)) == value


@settings(max_examples=100, deadline=None)
@given(messages)
def test_message_round_trip(message):
    decoded = decode_message(encode_message(message))
    assert (
        decoded.src,
        decoded.dst,
        decoded.service,
        decoded.payload,
        decoded.size,
        decoded.channel,
    ) == (
        message.src,
        message.dst,
        message.service,
        message.payload,
        message.size,
        message.channel,
    )


def test_encoding_is_deterministic():
    # Same logical value, different construction order: identical bytes.
    one = {"b": frozenset({3, 1, 2}), "a": (1, 2.5, b"x")}
    two = {"a": (1, 2.5, b"x"), "b": frozenset({2, 3, 1})}
    assert encode_value(one) == encode_value(two)


def test_wire_registry_covers_exact_dataclass_fields():
    # The codec writes exactly the declared fields of each payload type —
    # no attribute beyond what the dataclass (and its reveals()) defines
    # can ever reach the wire, and none can be silently dropped.
    for cls, fields in WIRE_TYPES:
        declared = tuple(f.name for f in dataclasses.fields(cls))
        assert fields == declared, cls.__name__


def test_unregistered_type_refused():
    class Rogue:
        secret = b"plaintext"

    with pytest.raises(CodecError, match="unregistered type"):
        encode_value(Rogue())
    with pytest.raises(CodecError, match="unregistered type"):
        encode_message(Message(0, 1, "gossip", Rogue()))


def test_control_frames_never_carry_rumor_bytes():
    # Control payloads reveal nothing in-process; their wire form must
    # not widen that.  A distinctive marker placed in surrounding rumor
    # state never appears in the encoded control traffic.
    marker = b"TOP-SECRET-MARKER"
    rid = RumorId(3, 7)
    for payload in (
        ProxyAck(sender=3),
        DirectAck(rid=rid, acker=5),
        GDShare(sender=3, hits=frozenset({(4, rid)})),
    ):
        wire = encode_message(Message(3, 4, "gd", payload))
        assert marker not in wire
    # Sanity inverse: a payload that DOES reveal the rumor carries it.
    rumor = Rumor(rid, marker, 64, frozenset({4}), 0)
    wire = encode_message(Message(3, 4, "direct", DirectRumor(rumor, "direct")))
    assert marker in wire


def test_telemetry_frame_round_trips_sanitized_batches():
    # Worker telemetry batches are (seq, kind, round, fields) tuples whose
    # fields were json_safe'd worker-side — scalars and flat containers
    # only, so they ride the closed allow-list codec unmodified.
    body = {
        "worker": 1,
        "round": 7,
        "events": [
            (0, "rumor_inject", 7, {"rid": "r0:0", "data": "<16 bytes>"}),
            (1, "rumor_deliver", 7, {"rid": "r0:0", "pid": 3, "path": "gd"}),
        ],
    }
    kind, decoded = decode_frame(encode_frame("telemetry", body))
    assert kind == "telemetry"
    assert decoded == body


def test_batch_interning_shares_one_payload_object():
    fragment = Fragment(
        RumorId(0, 1), 0, 1, 2, b"share", frozenset({1, 2}), 64, 80
    )
    payload = FragmentDelivery(sender=0, fragments=(fragment,))
    entries = [
        ((0, seq), Message(0, dst, "gd", payload))
        for seq, dst in enumerate((1, 2, 3))
    ]
    blob = encode_tagged_messages(entries)
    decoded = decode_tagged_messages(blob)
    assert [key for key, _ in decoded] == [(0, 0), (0, 1), (0, 2)]
    first = decoded[0][1].payload
    assert all(entry[1].payload is first for entry in decoded)
    assert first == payload


def test_item_batch_travels_as_the_tuple_it_is():
    # An in-process gossip batch carries its uid set; that is derived data
    # and must not change a byte on the wire.  A tuple subclass the codec
    # does not know stays refused.
    items = tuple(
        GossipItem(("gg/64/0", "share", pid, 7), pid, ("hits", pid), 20,
                   frozenset({1, 2}), 7)
        for pid in range(3)
    )
    batch = ItemBatch(items)
    assert batch.uids == {item.uid for item in items}  # derived before encoding
    assert encode_value(batch) == encode_value(items)
    message = Message(0, 1, "group_gossip", batch, len(batch), "gg/64/0")
    assert encode_message(message) == encode_message(
        Message(0, 1, "group_gossip", items, len(items), "gg/64/0")
    )
    assert type(decode_value(encode_value(batch))) is tuple
    # As a message payload it comes back as a batch again, one object for
    # the whole fanout, with its uid set rebuilt from the decoded items.
    entries = decode_tagged_messages(encode_tagged_messages(
        [((0, seq), Message(0, dst, "group_gossip", batch, 3, "gg/64/0"))
         for seq, dst in enumerate((1, 2))]
    ))
    decoded = entries[0][1].payload
    assert type(decoded) is ItemBatch and decoded == batch
    assert decoded.uids == batch.uids
    assert entries[1][1].payload is decoded

    class OtherTuple(tuple):
        pass

    with pytest.raises(CodecError, match="unregistered type"):
        encode_value(OtherTuple(items))


def test_frame_round_trip_and_version_check():
    body = {
        "round": 3,
        "injections": [(2, Rumor(RumorId(2, 0), b"z", 32, frozenset({5}), 3))],
    }
    frame = encode_frame("round", body)
    kind, decoded = decode_frame(frame)
    assert kind == "round" and decoded == body

    with pytest.raises(CodecError, match="magic"):
        decode_frame(b"xx" + frame[2:])
    tampered = frame[:2] + bytes([WIRE_VERSION + 1]) + frame[3:]
    with pytest.raises(CodecError, match="version mismatch"):
        decode_frame(tampered)
    with pytest.raises(CodecError, match="trailing"):
        decode_frame(frame + b"\x00")


def test_wire_version_one_is_refused_by_name():
    # A v1 peer (no per-stream item tables) or a v2 peer (fragments carry
    # ``src``) must not be misparsed as v3.
    assert WIRE_VERSION == 3
    frame = encode_frame("hello", {"worker": 0})
    assert frame[: len(MAGIC) + 1] == MAGIC + b"\x03"
    for version in (1, 2):
        old = MAGIC + bytes([version]) + frame[len(MAGIC) + 1:]
        with pytest.raises(
            CodecError, match="version mismatch: got {}, speak 3".format(version)
        ):
            decode_frame(old)


# ----------------------------------------------------------------------
# Per-stream item tables
# ----------------------------------------------------------------------


def _fields(entries):
    return [
        (key, m.src, m.dst, m.service, m.payload, m.size, m.channel)
        for key, m in entries
    ]


def _item(serial, expiry):
    return GossipItem(
        ("gg/64/0", "share", serial), serial % 8, ("hits", serial), expiry,
        frozenset({1, 2}), max(0, expiry - 64),
    )


#: A stream's traffic, as indices into a pool of item objects: a list of
#: batches, each a list of message payloads, each ``None``, a non-item
#: payload, or a tuple of pool items (repeats within a payload, a batch
#: and across batches all occur).
item_picks = st.lists(st.integers(0, 11), min_size=1, max_size=6)
payload_shapes = st.one_of(
    st.none(), st.just("ack"), st.just("delivery"), item_picks, item_picks
)
streams = st.lists(
    st.tuples(st.integers(0, 3), st.lists(payload_shapes, max_size=6)),
    min_size=1,
    max_size=8,
)


def _build_stream(shape, expiry_of):
    """``[(round, entries)]`` over one shared pool of item objects; rounds
    only move forward, as they do on a real stream."""
    pool = [_item(serial, expiry_of(serial)) for serial in range(12)]
    fragment = Fragment(
        RumorId(0, 1), 0, 1, 2, b"share", frozenset({1, 2}), 64, 80
    )
    round_no = 0
    batches = []
    for step, shapes in shape:
        round_no += step
        entries = []
        for seq, picks in enumerate(shapes):
            if picks is None:
                payload = None
            elif picks == "ack":
                payload = ProxyAck(sender=seq)
            elif picks == "delivery":
                payload = FragmentDelivery(sender=seq, fragments=(fragment,))
            else:
                payload = ItemBatch(pool[pick] for pick in picks)
            message = Message(seq % 4, 4 + seq % 4, "group_gossip", payload,
                              1, "gg/64/0")
            # Each payload goes to two recipients: per-batch interning.
            entries.append(((0, seq, 0), message))
            entries.append(((0, seq, 1), message))
        batches.append((round_no, entries))
    return pool, batches


@settings(max_examples=150, deadline=None)
@given(streams)
def test_session_pair_decodes_what_a_stateless_batch_would(shape):
    pool, batches = _build_stream(shape, expiry_of=lambda serial: 1000)
    encoder, decoder = WireSession(), WireSession()
    seen = {}  # pool serial -> the one object it decodes to
    for round_no, entries in batches:
        blob = encoder.encode(entries, round_no)
        stateless = encode_tagged_messages(entries, round_no)
        assert len(blob) <= len(stateless)
        decoded = decoder.decode(blob)
        assert _fields(decoded) == _fields(decode_tagged_messages(stateless))
        assert _fields(decoded) == _fields(entries)
        for (_, message), (_, original) in zip(decoded, entries):
            if type(original.payload) is not ItemBatch:
                continue
            assert type(message.payload) is ItemBatch
            assert message.payload.uids == original.payload.uids
            for item, sent in zip(message.payload, original.payload):
                assert seen.setdefault(sent.uid, item) is item
    # Nothing expired: each distinct object sent is in both tables once.
    assert len(encoder) == len(decoder) == len(seen)


@settings(max_examples=100, deadline=None)
@given(streams)
def test_sessions_never_share_state(shape):
    _, batches = _build_stream(shape, expiry_of=lambda serial: 1000)
    busy_encoder, busy_decoder = WireSession(), WireSession()
    for round_no, entries in batches:
        busy_decoder.decode(busy_encoder.encode(entries, round_no))
    # A second stream carrying the same objects starts from nothing: its
    # bytes are the stateless bytes, whatever other sessions have seen.
    round_no, entries = batches[-1]
    fresh = WireSession().encode(entries, round_no)
    assert fresh == encode_tagged_messages(entries, round_no)
    assert _fields(WireSession().decode(fresh)) == _fields(entries)
    # And a table is not addressable from another stream: the busy
    # stream's references dangle anywhere else.
    again = busy_encoder.encode(entries, round_no)
    assert _fields(busy_decoder.decode(again)) == _fields(entries)
    if any(type(m.payload) is ItemBatch for _, m in entries):
        assert again != fresh
        with pytest.raises(CodecError, match="dangling item reference"):
            WireSession().decode(again)


@settings(max_examples=60, deadline=None)
@given(
    deadline=st.integers(1, 6),
    stale=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=8),
    seed=st.integers(0, 1 << 16),
)
def test_eviction_agrees_and_bounds_the_table(deadline, stale, seed):
    # Continuous gossip: every round one new item is born, and every live
    # item is pushed; now and then a chaos-delayed copy of an item long
    # past its expiry turns up too.
    import random

    rng = random.Random(seed)
    rounds = 3 * deadline + 4
    items = [_item(born, born + deadline) for born in range(rounds)]
    encoder, decoder = WireSession(), WireSession()
    for round_no in range(rounds):
        live = [item for item in items[: round_no + 1]
                if item.expiry >= round_no]
        rng.shuffle(live)
        extra = [
            items[which % (round_no + 1)]
            for when, which in stale
            if when % rounds == round_no
        ]
        payloads = [ItemBatch(live), ItemBatch(live[: len(live) // 2 + 1])]
        if extra:
            payloads.append(ItemBatch(extra + extra))
        entries = [
            ((0, seq), Message(seq, 9, "group_gossip", payload, 1, "gg/64/0"))
            for seq, payload in enumerate(payloads)
        ]
        decoded = decoder.decode(encoder.encode(entries, round_no))
        assert _fields(decoded) == _fields(entries)
        # Both ends hold the same indices for equal items ...
        assert encoder._items.keys() == decoder._items.keys()
        assert all(
            decoder._items[index] == item
            for index, item in encoder._items.items()
        )
        # ... and only live items, plus what this very batch brought in.
        expired_here = {id(item) for item in extra if item.expiry < round_no}
        assert len(encoder) == len(live) + len(expired_here)
        assert len(encoder) <= deadline + 1 + len(extra)
    # One more batch, far in the future: everything goes.
    encoder.encode([], rounds + deadline + 1)
    assert len(encoder) == 0


def test_evicted_item_is_resent_in_full_as_a_new_object():
    item = _item(0, expiry=5)
    entries = [((0, 0), Message(0, 1, "group_gossip", ItemBatch([item]), 1, "c"))]
    encoder, decoder = WireSession(), WireSession()
    first = decoder.decode(encoder.encode(entries, 4))[0][1].payload[0]
    short = encoder.encode(entries, 5)  # expiry == round: still live
    assert decoder.decode(short)[0][1].payload[0] is first
    late = encoder.encode(entries, 6)  # dropped at the top of this batch
    assert len(late) > len(short)
    again = decoder.decode(late)[0][1].payload[0]
    assert again == first and again is not first
    assert len(encoder) == len(decoder) == 1


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "blob, what",
    [
        (b"\x06\x01\xff", "utf-8"),  # str that is not utf-8
        (b"\x0b\x01\x08\x00\x00", "unhashable dict key"),  # {[]: None}
        (b"\x09\x01\x08\x00", "unhashable set element"),  # frozenset({[]})
        (b"\x0c\x00", "item reference outside"),  # a reference, no stream
        (b"\x07" * 5000, "nested too deeply"),
        # Rumor(deadline=0): the constructor's own validation.
        (b"\x41\x40\x03\x00\x03\x00\x05\x00\x03\x00\x09\x00\x03\x00",
         "failed validation"),
    ],
)
def test_malformed_values_raise_codec_error(blob, what):
    with pytest.raises(CodecError, match=what):
        decode_value(blob)


@pytest.mark.parametrize(
    "src, dst, size", [(-3, 99, -7), (-1, 0, 1), (0, -1, 1), (0, 1, -1)]
)
def test_negative_pid_or_size_raises_codec_error(src, dst, size):
    # Message itself checks nothing; wire input is validated here.
    blob = encode_tagged_messages(
        [((0,), Message(src, dst, "proxy", None, size, "c"))]
    )
    with pytest.raises(CodecError, match="negative pid or size"):
        decode_tagged_messages(blob)


def test_forged_references_raise_codec_error():
    item = _item(0, expiry=50)
    entries = [((0, 0), Message(0, 1, "group_gossip", ItemBatch([item]), 1, "c"))]
    encoder, decoder = WireSession(), WireSession()
    decoder.decode(encoder.encode(entries, 1))
    blob = encoder.encode(entries, 2)
    at = blob.index(b"\x0c\x00")  # the reference to table entry 0
    forged = blob[:at] + b"\x0c\x07" + blob[at + 2:]
    with pytest.raises(CodecError, match="dangling item reference 7"):
        decoder.decode(forged)
    # The message's payload slot pointing past the batch's payloads.
    with pytest.raises(CodecError, match="dangling payload reference"):
        decoder.decode(blob[:-1] + b"\x05")
    # An item whose expiry cannot be scheduled for eviction.
    bad = GossipItem(("u",), 0, None, "soon", frozenset({1}), 0)
    with pytest.raises(CodecError, match="expiry must be an int"):
        encode_message(Message(0, 1, "group_gossip", (bad,)))


mutations = st.lists(
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.just(0)),
        st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
        st.tuples(st.just("splice"), st.integers(0, 1 << 16),
                  st.integers(0, 1 << 16)),
        st.tuples(st.just("forge"), st.integers(0, 1 << 16),
                  st.integers(0, 300)),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(blob, ops):
    data = bytearray(blob)
    for op, at, arg in ops:
        if not data:
            break
        at %= len(data)
        if op == "truncate":
            del data[at:]
        elif op == "flip":
            data[at] ^= arg
        elif op == "splice":
            other = arg % len(data)
            lo, hi = min(at, other), max(at, other)
            data[at:at] = data[lo:hi]
        else:  # forge: an item reference with an arbitrary index
            data[at:at + 2] = bytes([0x0C, arg & 0x7F])
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(streams, mutations, st.data())
def test_fuzzed_bytes_only_ever_raise_codec_error(shape, ops, data):
    _, batches = _build_stream(shape, expiry_of=lambda serial: serial % 5)
    encoder, decoder = WireSession(), WireSession()
    blobs = [encoder.encode(entries, round_no) for round_no, entries in batches]
    target = data.draw(st.integers(0, len(blobs) - 1))
    for blob in blobs[:target]:
        decoder.decode(blob)
    damaged = _mutate(blobs[target], ops)
    frame = encode_frame("events", {"round": 3, "delivered": blobs[target]})
    for decode, wire in (
        (decoder.decode, damaged),
        (decode_tagged_messages, damaged),
        (decode_value, damaged),
        (decode_frame, _mutate(frame, ops)),
    ):
        try:
            decode(wire)
        except CodecError:
            pass
