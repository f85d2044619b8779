"""Typed messages (§3.4.1)."""

from __future__ import annotations

import numpy as np

from repro.vp.message import Message, MessageType


def make(payload="x", **kw):
    defaults = dict(source=0, dest=1, payload=payload)
    defaults.update(kw)
    return Message(**defaults)


class TestMatching:
    def test_type_mismatch(self):
        m = make(mtype=MessageType.PCN)
        assert not m.matches(MessageType.DATA_PARALLEL)
        assert m.matches(MessageType.PCN)

    def test_none_type_matches_any(self):
        assert make(mtype=MessageType.DATA_PARALLEL).matches(None)

    def test_tag_must_match_exactly(self):
        m = make(tag=("coll", "bcast", 3))
        assert m.matches(MessageType.PCN, tag=("coll", "bcast", 3))
        assert not m.matches(MessageType.PCN, tag=("coll", "bcast", 4))

    def test_match_any_tag(self):
        assert make(tag="anything").matches(MessageType.PCN, match_any_tag=True)

    def test_source_filter(self):
        m = make(source=7)
        assert m.matches(MessageType.PCN, source=7)
        assert not m.matches(MessageType.PCN, source=2)
        assert m.matches(MessageType.PCN, source=None)

    def test_group_must_match(self):
        m = make(group=("dcall", 9))
        assert m.matches(MessageType.PCN, group=("dcall", 9))
        assert not m.matches(MessageType.PCN, group=("dcall", 8))
        assert not m.matches(MessageType.PCN)  # default group None
        assert m.matches(MessageType.PCN, match_any_group=True)


class TestSizeAccounting:
    def test_numpy_payload(self):
        assert make(np.zeros(10)).nbytes() == 80

    def test_bytes_payload(self):
        assert make(b"abcd").nbytes() == 4

    def test_list_payload(self):
        assert make([1, 2, 3]).nbytes() == 24

    def test_container_items_sized_recursively(self):
        # A ring-allgather hop: (index, ndarray) is 8 B + the array's bytes.
        assert make((0, np.zeros(10))).nbytes() == 88
        assert make([(1, b"ab"), np.zeros(2)]).nbytes() == 8 + 2 + 16

    def test_scalar_payload(self):
        assert make(1.5).nbytes() == 8


def test_sequence_numbers_increase():
    a, b = make(), make()
    assert b.seq > a.seq
