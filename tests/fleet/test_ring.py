"""Consistent-hash ring tests: determinism, rebalance minimality,
placement as a pure function of (key, membership)."""

import random

import pytest

from repro.api.workload import Workload
from repro.fleet.ring import HashRing, routing_token

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


def tokens(count=200, seed=7):
    rng = random.Random(seed)
    return [f"token-{rng.randrange(10 ** 9)}" for _ in range(count)]


class TestRingBasics:
    def test_empty_ring_has_no_owner(self):
        ring = HashRing()
        assert ring.preference("anything") == []
        with pytest.raises(LookupError):
            ring.owner("anything")

    def test_membership_is_idempotent_and_sorted(self):
        ring = HashRing(["b", "a"])
        ring.add("a")  # no-op
        ring.remove("missing")  # no-op
        assert ring.members == ("a", "b")
        assert len(ring) == 2 and "a" in ring and "c" not in ring

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)
        with pytest.raises(ValueError):
            HashRing([""])


class TestDeterminism:
    def test_owner_is_independent_of_insertion_order(self):
        members = ["worker-0", "worker-1", "worker-2", "worker-3"]
        forward = HashRing(members)
        backward = HashRing(reversed(members))
        for token in tokens():
            assert forward.owner(token) == backward.owner(token)
            assert (forward.preference(token)
                    == backward.preference(token))

    def test_owner_is_stable_across_ring_instances(self):
        # placement must agree across processes: sha256, not hash()
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w0", "w1", "w2"])
        assert [a.owner(t) for t in tokens()] \
            == [b.owner(t) for t in tokens()]

    def test_routing_token_is_key_identity(self):
        # same characterization key (run knobs differ) -> same token;
        # different kernels -> different tokens
        assert routing_token(workload()) == routing_token(
            workload(constraints=None))
        assert routing_token(workload("blur")) \
            != routing_token(workload("erode"))


class TestRebalanceMinimality:
    def test_removal_moves_only_the_dead_members_segments(self):
        members = ["worker-0", "worker-1", "worker-2", "worker-3"]
        ring = HashRing(members)
        sample = tokens(500)
        before = {token: ring.owner(token) for token in sample}
        ring.remove("worker-2")
        for token, owner in before.items():
            if owner == "worker-2":
                # the orphaned segment falls to the old ring successor
                assert ring.owner(token) == \
                    HashRing(members).preference(token)[1]
            else:
                # every other key keeps its owner — the consistent-hash
                # guarantee the failover design rests on
                assert ring.owner(token) == owner

    def test_addition_steals_segments_only_for_itself(self):
        ring = HashRing(["worker-0", "worker-1"])
        sample = tokens(500)
        before = {token: ring.owner(token) for token in sample}
        ring.add("worker-2")
        moved = {token for token, owner in before.items()
                 if ring.owner(token) != owner}
        assert all(ring.owner(token) == "worker-2" for token in moved)
        # with 64 replicas the newcomer takes a substantive share
        assert 0 < len(moved) < len(sample)

    def test_remove_then_readd_restores_exact_placement(self):
        ring = HashRing(["w0", "w1", "w2"])
        sample = tokens()
        before = [ring.owner(token) for token in sample]
        ring.remove("w1")
        ring.add("w1")
        assert [ring.owner(token) for token in sample] == before


class TestPreferenceAndCensus:
    def test_preference_lists_every_member_once_owner_first(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        for token in tokens(50):
            preference = ring.preference(token)
            assert preference[0] == ring.owner(token)
            assert sorted(preference) == ["w0", "w1", "w2", "w3"]

    def test_preference_count_caps_the_walk(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        assert len(ring.preference("t", count=2)) == 2

    def test_successor_failover_equals_ring_without_the_dead_member(self):
        # preference[1] before a death == owner after it: the walk the
        # router performs is exactly the post-rebalance placement
        ring = HashRing(["w0", "w1", "w2"])
        for token in tokens(100):
            owner, successor = ring.preference(token, count=2)
            survivor_ring = HashRing(["w0", "w1", "w2"])
            survivor_ring.remove(owner)
            assert survivor_ring.owner(token) == successor
