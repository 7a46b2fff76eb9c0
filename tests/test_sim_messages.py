"""Tests for repro.sim.messages: envelopes and knowledge atoms."""

import pytest

from repro.sim.messages import (
    Message,
    ServiceTags,
    fragment_atom,
    plaintext_atom,
    reveals_of,
    total_size,
)

from conftest import mk_message, mk_rumor


class TestMessage:
    def test_defaults(self):
        message = Message(src=0, dst=1, service=ServiceTags.BASELINE)
        assert message.size == 1
        assert message.channel == ""
        assert message.payload is None

    def test_validation_deferred_by_default(self):
        # Message checks nothing; the validation sites are Network.route
        # (see test_sim_network) and the wire codec (test_net_codec).
        message = Message(src=-1, dst=0, service="x", size=-1)
        assert message.src == -1

    def test_slots_no_dict(self):
        message = Message(src=0, dst=1, service="x")
        with pytest.raises(AttributeError):
            message.extra = 1

    def test_reveals_empty_for_control_payload(self):
        message = mk_message(payload={"control": True})
        assert list(message.reveals()) == []


class TestAtoms:
    def test_plaintext_atom_shape(self):
        assert plaintext_atom("r1") == ("plaintext", "r1")

    def test_fragment_atom_shape(self):
        assert fragment_atom("r1", 2, 0) == ("fragment", "r1", 2, 0)

    def test_atoms_hashable(self):
        assert {plaintext_atom("a"), fragment_atom("a", 0, 1)}


class TestRevealsOf:
    def test_none_reveals_nothing(self):
        assert list(reveals_of(None)) == []

    def test_rumor_reveals_plaintext(self):
        rumor = mk_rumor()
        assert list(reveals_of(rumor)) == [plaintext_atom(rumor.rid)]

    def test_tuple_recursion(self):
        rumors = (mk_rumor(seq=0), mk_rumor(seq=1))
        atoms = list(reveals_of(rumors))
        assert len(atoms) == 2

    def test_nested_collections(self):
        payload = [mk_rumor(seq=0), (mk_rumor(seq=1),)]
        assert len(list(reveals_of(payload))) == 2

    def test_plain_values_reveal_nothing(self):
        for payload in (42, "text", b"bytes", {"a": 1}):
            assert list(reveals_of(payload)) == []

    def test_custom_reveals_method(self):
        class Custom:
            def reveals(self):
                yield plaintext_atom("custom")

        assert list(reveals_of(Custom())) == [("plaintext", "custom")]


class TestTotalSize:
    def test_empty(self):
        assert total_size([]) == 0

    def test_sums_sizes(self):
        messages = [mk_message(size=2), mk_message(size=3)]
        assert total_size(messages) == 5


class TestServiceTags:
    def test_all_tags_unique(self):
        assert len(set(ServiceTags.ALL)) == len(ServiceTags.ALL)

    def test_known_tags_present(self):
        assert ServiceTags.PROXY in ServiceTags.ALL
        assert ServiceTags.GROUP_GOSSIP in ServiceTags.ALL
