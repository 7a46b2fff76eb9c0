"""Versioned, deterministic wire codec for messages and control frames.

Design constraints, in order:

* **Leak-safe by construction.**  Only values on a closed allow-list
  encode: scalars, containers, and the registered payload dataclasses
  below.  An unregistered object raises :class:`CodecError` instead of
  being pickled, so a payload type the auditors have never seen cannot
  silently cross the wire.  Serialization walks the same declared fields
  ``reveals()`` is defined over — a frame never carries more information
  than its payload already reveals in-process (fragment shares stay
  uniformly-random bytes; control frames stay control-only).
* **Deterministic.**  The same value always encodes to the same bytes:
  integers are zigzag varints, floats are big-endian IEEE-754, dict keys
  are sorted, and frozensets/sets are written in canonical order (sorted
  by their own encoded bytes).  Canonical set order is safe because the
  protocol never depends on set iteration order — every emission and
  rng-feeding loop in :mod:`repro.core` sorts before iterating.
* **Round-trippable.**  ``decode(encode(x)) == x`` for every encodable
  value, using the payload types' own ``__eq__``; the codec tests pin
  this with hypothesis over every registered payload shape.

Batch encoding (:meth:`WireSession.encode`) interns payloads by
identity: a gossip fanout of one payload tuple to thirty recipients
writes the payload once, and *decoding shares a single payload object*
across the reconstructed messages.  That preserves both wire size and
the ``id(payload)``-keyed per-round batch cache in
:class:`repro.audit.confidentiality.ConfidentialityAuditor`.  A gossip
batch (:class:`~repro.gossip.rumor.ItemBatch`) is written as the plain
tuple it subclasses — same tag, same bytes — and a decoded message
payload that is a tuple of gossip items comes back as an ``ItemBatch``,
so its receivers share one uid set as they do in-process.

Gossip items are interned **per stream**, across batches and rounds
(wire version 2).  Continuous gossip re-pushes every live item every
round, so each end of a stream keeps a :class:`WireSession`: the first
time a ``GossipItem`` object crosses, it is written in full and both
ends append it to the stream's item table; every later occurrence is a
reference tag plus the table index, and decodes to the *same object* —
as in-process, where one item object is shared by every holder.  The
table is bounded by live items: both ends drop an entry at the start of
the first batch whose round is past the item's ``expiry``.

Frames (:func:`encode_frame`) carry a magic + version header so a peer
speaking a different wire version fails loudly instead of misparsing.
"""

from __future__ import annotations

import struct
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.confidential_gossip import DirectAck, DirectRumor
from repro.core.group_distribution import (
    DistributionShare,
    FragmentDelivery,
    GDShare,
)
from repro.core.proxy import ProxyAck, ProxyRequest, ProxyShare
from repro.core.splitting import Fragment
from repro.gossip.rumor import GossipItem, ItemBatch, Rumor, RumorId
from repro.sim.messages import Message

__all__ = [
    "CodecError",
    "MAGIC",
    "WIRE_VERSION",
    "WIRE_TYPES",
    "WireSession",
    "decode_frame",
    "decode_message",
    "decode_tagged_messages",
    "decode_value",
    "encode_frame",
    "encode_message",
    "encode_tagged_messages",
    "encode_value",
]

MAGIC = b"\xc6\x05"  # "confidential gossip", version header follows
WIRE_VERSION = 2

#: Frame kinds used by the coordinator/worker lockstep protocol.
#: ``telemetry`` (per-round sanitized event batches) and ``metrics``
#: (end-of-run registry snapshots) only flow when the coordinator runs
#: with telemetry enabled; default runs never emit them.
FRAME_KINDS = (
    "hello", "round", "sent", "deliver", "events", "stop", "final", "error",
    "telemetry", "metrics",
)


class CodecError(ValueError):
    """An object the wire format refuses to carry (or malformed bytes)."""


# ----------------------------------------------------------------------
# Registered payload types
# ----------------------------------------------------------------------
#
# The closed allow-list of Message payload dataclasses, with their field
# order.  Order matters twice: the tuple index IS the wire tag (so the
# registry may only be appended to, never reordered, within a wire
# version), and fields are written in the declared constructor order so
# decode can rebuild via keyword arguments.

WIRE_TYPES: Tuple[Tuple[type, Tuple[str, ...]], ...] = (
    (RumorId, ("src", "seq")),
    (Rumor, ("rid", "data", "deadline", "dest", "injected_at")),
    (GossipItem, ("uid", "origin", "payload", "expiry", "dest", "born")),
    (
        Fragment,
        (
            "rid", "src", "partition", "group", "total_groups",
            "data", "dest", "dline", "expiry",
        ),
    ),
    (ProxyRequest, ("sender", "fragments")),
    (ProxyAck, ("sender",)),
    (ProxyShare, ("sender", "fragments", "failed_proxies", "collaborator")),
    (FragmentDelivery, ("sender", "fragments")),
    (GDShare, ("sender", "hits")),
    (DistributionShare, ("sender", "dline", "partition", "group", "hits")),
    (DirectRumor, ("rumor", "path")),
    (DirectAck, ("rid", "acker")),
)

_OBJ_BASE = 0x40
_TYPE_TAGS: Dict[type, Tuple[int, Tuple[str, ...]]] = {
    cls: (_OBJ_BASE + index, fields)
    for index, (cls, fields) in enumerate(WIRE_TYPES)
}

# Scalar / container tags (< _OBJ_BASE).
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_FROZENSET = 0x09
_T_SET = 0x0A
_T_DICT = 0x0B
#: An item already in the stream's table: a uvarint index follows.
_T_ITEM_REF = 0x0C

_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------


def _write_uvarint(value: int, out: bytearray) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        # No shift cap: the encoder writes arbitrary-precision ints, so
        # the decoder must accept them.  Termination is bounded by the
        # truncation check above (one byte consumed per iteration).


# Python ints are unbounded; use the sign-fold form directly (no 64-bit
# assumption) so arbitrary-precision round numbers survive.
def _write_svarint(value: int, out: bytearray) -> None:
    folded = (value << 1) if value >= 0 else ((-value << 1) - 1)
    _write_uvarint(folded, out)


def _read_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    folded, pos = _read_uvarint(data, pos)
    return ((folded + 1) >> 1) * (-1 if folded & 1 else 1), pos


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
#
# ``table`` is the item table of the stream the value travels on (see
# WireSession), or None for a value outside a message batch — a frame
# body, encode_value — where items are always written in full and a
# reference is malformed.  Inside a set the table is dropped as well:
# canonical order sorts the elements' bytes, so the order they would
# enter the table is not the order the peer reads them in.


def _encode(value: Any, out: bytearray, table: Optional["WireSession"]) -> None:
    if value is None:
        out.append(_T_NONE)
        return
    kind = type(value)
    if kind is GossipItem and table is not None:
        index = table._index.get(id(value))
        if index is not None:
            out.append(_T_ITEM_REF)
            _write_uvarint(index, out)
            return
    if kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is int:
        out.append(_T_INT)
        _write_svarint(value, out)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _pack_float(value)
    elif kind is bytes:
        out.append(_T_BYTES)
        _write_uvarint(len(value), out)
        out += value
    elif kind is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(len(raw), out)
        out += raw
    elif kind is tuple or kind is list:
        out.append(_T_TUPLE if kind is tuple else _T_LIST)
        _write_uvarint(len(value), out)
        for item in value:
            _encode(item, out, table)
    elif kind is frozenset or kind is set:
        # Canonical order: encode each element, sort the byte strings.
        # Deterministic across interpreters and PYTHONHASHSEED, unlike
        # the set's own iteration order.
        out.append(_T_FROZENSET if kind is frozenset else _T_SET)
        encoded: List[bytes] = []
        for item in value:
            buf = bytearray()
            _encode(item, buf, None)
            encoded.append(bytes(buf))
        encoded.sort()
        _write_uvarint(len(encoded), out)
        for blob in encoded:
            out += blob
    elif kind is dict:
        out.append(_T_DICT)
        try:
            keys = sorted(value)
        except TypeError:
            raise CodecError("wire dicts need sortable keys")
        _write_uvarint(len(keys), out)
        for key in keys:
            _encode(key, out, table)
            _encode(value[key], out, table)
    else:
        entry = _TYPE_TAGS.get(kind)
        if entry is None:
            if kind is ItemBatch:
                # A gossip batch is its items: the uid set it carries
                # in-process is derived data, so it travels (and decodes)
                # as the plain tuple it subclasses.
                _encode(tuple(value), out, table)
                return
            raise CodecError(
                "refusing to serialize unregistered type {!r}; register it "
                "in repro.net.codec.WIRE_TYPES if it is a legitimate "
                "payload".format(kind.__name__)
            )
        tag, fields = entry
        out.append(tag)
        for name in fields:
            _encode(getattr(value, name), out, table)
        if kind is GossipItem and table is not None:
            # After its fields, which is when the peer has the object.
            table._add(value)


def _decode(
    data: bytes, pos: int, table: Optional["WireSession"]
) -> Tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_ITEM_REF:
        if table is None:
            raise CodecError("item reference outside a message batch")
        index, pos = _read_uvarint(data, pos)
        item = table._items.get(index)
        if item is None:
            raise CodecError("dangling item reference {}".format(index))
        return item, pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        return _read_svarint(data, pos)
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise CodecError("truncated float")
        return _unpack_float(data, pos)[0], pos + 8
    if tag == _T_BYTES or tag == _T_STR:
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated bytes")
        raw = data[pos:end]
        if tag == _T_BYTES:
            return raw, end
        try:
            return raw.decode("utf-8"), end
        except UnicodeDecodeError:
            raise CodecError("string is not valid utf-8")
    if tag == _T_TUPLE or tag == _T_LIST:
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos, table)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_FROZENSET or tag == _T_SET:
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos, None)
            items.append(item)
        try:
            return (frozenset(items) if tag == _T_FROZENSET else set(items)), pos
        except TypeError:
            raise CodecError("unhashable set element")
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _decode(data, pos, table)
            value, pos = _decode(data, pos, table)
            try:
                mapping[key] = value
            except TypeError:
                raise CodecError("unhashable dict key")
        return mapping, pos
    index = tag - _OBJ_BASE
    if 0 <= index < len(WIRE_TYPES):
        cls, fields = WIRE_TYPES[index]
        kwargs = {}
        for name in fields:
            kwargs[name], pos = _decode(data, pos, table)
        try:
            value = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise CodecError(
                "decoded {} failed validation: {}".format(cls.__name__, exc)
            )
        if cls is GossipItem and table is not None:
            table._add(value)
        return value, pos
    raise CodecError("unknown wire tag 0x{:02x}".format(tag))


def encode_value(value: Any) -> bytes:
    """Encode one value (payload, control structure) to canonical bytes."""
    out = bytearray()
    _encode(value, out, None)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; raises on trailing garbage."""
    try:
        value, pos = _decode(data, 0, None)
    except RecursionError:
        raise CodecError("value nested too deeply")
    if pos != len(data):
        raise CodecError("trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Message batches
# ----------------------------------------------------------------------
#
# A batch is a list of (key, Message) pairs where ``key`` is a small
# tuple of ints used by the coordinator to restore global message order
# (see repro.net.worker).  Payloads are interned by identity within the
# batch: each distinct payload object is written once and referenced by
# index, so a fanout of one payload to many recipients costs one payload
# encoding and decodes to messages *sharing* one payload object.  Gossip
# items are interned by identity within the *stream*, which outlives the
# batch: that state is the session's.


class WireSession:
    """One end of one stream of message batches: its item table.

    A stream is ordered and has one encoder and one decoder (a worker's
    cross traffic to one peer worker; a worker's delivered stream to the
    coordinator), each holding a session and feeding it every batch of
    the stream, in order.  Both ends then make the same table by the same
    two rules, with nothing but the batches themselves exchanged:

    * an item written in full gets the next index (indices are never
      reused) once its fields are through — on the way out and on the way
      in alike;
    * a batch opens with its round, and before anything else both ends
      drop every entry whose ``expiry`` is behind that round.  An item
      that is still referenced after that (a chaos-delayed copy) is
      simply written in full again, under a new index.

    Entries are strong references: the encoder keys on ``id(item)``, and
    an id can only be reused once its object is gone.  A session belongs
    to one direction of one stream; the module-level
    :func:`encode_tagged_messages` / :func:`decode_tagged_messages` are
    these same methods on a fresh session.
    """

    __slots__ = ("_items", "_index", "_expiries", "_next")

    def __init__(self) -> None:
        self._items: Dict[int, GossipItem] = {}  # table index -> item
        self._index: Dict[int, int] = {}  # id(item) -> table index
        self._expiries: List[Tuple[int, int]] = []  # heap of (expiry, index)
        self._next = 0

    def __len__(self) -> int:
        return len(self._items)

    def _add(self, item: GossipItem) -> None:
        expiry = item.expiry
        if type(expiry) is not int:
            raise CodecError("gossip item expiry must be an int")
        index = self._next
        self._next = index + 1
        self._items[index] = item
        self._index[id(item)] = index
        heappush(self._expiries, (expiry, index))

    def _evict(self, round_no: int) -> None:
        expiries = self._expiries
        while expiries and expiries[0][0] < round_no:
            index = heappop(expiries)[1]
            del self._index[id(self._items.pop(index))]

    def encode(
        self,
        entries: Sequence[Tuple[Tuple[int, ...], Message]],
        round_no: int,
    ) -> bytes:
        self._evict(round_no)
        out = bytearray()
        _write_svarint(round_no, out)
        payload_index: Dict[int, int] = {}
        payloads: List[Any] = []
        for _, message in entries:
            payload = message.payload
            if payload is None:
                continue
            key = id(payload)
            if key not in payload_index:
                payload_index[key] = len(payloads)
                payloads.append(payload)
        _write_uvarint(len(payloads), out)
        for payload in payloads:
            _encode(payload, out, self)
        _write_uvarint(len(entries), out)
        for key, message in entries:
            _write_uvarint(len(key), out)
            for part in key:
                _write_svarint(part, out)
            _write_svarint(message.src, out)
            _write_svarint(message.dst, out)
            _encode(message.service, out, None)
            _write_svarint(message.size, out)
            _encode(message.channel, out, None)
            payload = message.payload
            _write_uvarint(
                0 if payload is None else payload_index[id(payload)] + 1, out
            )
        return bytes(out)

    def decode(self, data: bytes) -> List[Tuple[Tuple[int, ...], Message]]:
        try:
            return self._decode_batch(data)
        except RecursionError:
            raise CodecError("message batch nested too deeply")

    def _decode_batch(
        self, data: bytes
    ) -> List[Tuple[Tuple[int, ...], Message]]:
        round_no, pos = _read_svarint(data, 0)
        self._evict(round_no)
        count, pos = _read_uvarint(data, pos)
        payloads: List[Any] = []
        for _ in range(count):
            payload, pos = _decode(data, pos, self)
            if type(payload) is tuple and set(map(type, payload)) == {GossipItem}:
                # A gossip batch gets its uid set back here, once per payload
                # object — the messages below share it — instead of once per
                # delivery at every receiver.
                try:
                    payload = ItemBatch(payload)
                except TypeError:
                    raise CodecError("unhashable gossip item uid")
            payloads.append(payload)
        count, pos = _read_uvarint(data, pos)
        entries: List[Tuple[Tuple[int, ...], Message]] = []
        for _ in range(count):
            parts, pos = _read_uvarint(data, pos)
            key = []
            for _ in range(parts):
                part, pos = _read_svarint(data, pos)
                key.append(part)
            src, pos = _read_svarint(data, pos)
            dst, pos = _read_svarint(data, pos)
            service, pos = _decode(data, pos, None)
            size, pos = _read_svarint(data, pos)
            channel, pos = _decode(data, pos, None)
            ref, pos = _read_uvarint(data, pos)
            if ref > len(payloads):
                raise CodecError("dangling payload reference {}".format(ref))
            payload = None if ref == 0 else payloads[ref - 1]
            try:
                message = Message(src, dst, service, payload, size, channel)
            except (TypeError, ValueError) as exc:
                raise CodecError(
                    "decoded Message failed validation: {}".format(exc)
                )
            entries.append((tuple(key), message))
        if pos != len(data):
            raise CodecError("trailing bytes after message batch")
        return entries


def encode_tagged_messages(
    entries: Sequence[Tuple[Tuple[int, ...], Message]], round_no: int = 0
) -> bytes:
    """One batch on a stream of its own (a fresh :class:`WireSession`)."""
    return WireSession().encode(entries, round_no)


def decode_tagged_messages(
    data: bytes,
) -> List[Tuple[Tuple[int, ...], Message]]:
    return WireSession().decode(data)


def encode_message(message: Message) -> bytes:
    """Encode a single message (convenience wrapper over the batch form)."""
    return encode_tagged_messages([((), message)])


def decode_message(data: bytes) -> Message:
    entries = decode_tagged_messages(data)
    if len(entries) != 1:
        raise CodecError("expected exactly one message")
    return entries[0][1]


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def encode_frame(kind: str, body: Any) -> bytes:
    """A versioned control frame: magic, version, kind, body."""
    out = bytearray(MAGIC)
    out.append(WIRE_VERSION)
    _encode(kind, out, None)
    _encode(body, out, None)
    return bytes(out)


def decode_frame(data: bytes) -> Tuple[str, Any]:
    if data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad frame magic")
    pos = len(MAGIC)
    if pos >= len(data):
        raise CodecError("truncated frame header")
    version = data[pos]
    if version != WIRE_VERSION:
        raise CodecError(
            "wire version mismatch: got {}, speak {}".format(
                version, WIRE_VERSION
            )
        )
    try:
        kind, pos = _decode(data, pos + 1, None)
        body, pos = _decode(data, pos, None)
    except RecursionError:
        raise CodecError("frame nested too deeply")
    if pos != len(data):
        raise CodecError("trailing bytes after frame")
    if not isinstance(kind, str):
        raise CodecError("frame kind must be a string")
    return kind, body
