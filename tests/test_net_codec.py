"""The wire codec: round-trips, determinism, interning, leak safety."""

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
    WIRE_TYPES,
    WIRE_VERSION,
    CodecError,
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
        src=pids,
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
        RumorId(0, 1), 0, 0, 1, 2, b"share", frozenset({1, 2}), 64, 80
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
