"""Tests for protection rings and ring sets."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, RingRangeError
from repro.core.rings import DEFAULT_RING_COUNT, Ring, RingSet, as_ring


class TestRing:
    def test_ring_zero_is_most_privileged(self):
        assert Ring(0).is_more_privileged_than(Ring(1))
        assert Ring(0).is_at_least_as_privileged_as(Ring(0))

    def test_higher_number_means_less_privilege(self):
        assert Ring(3).is_less_privileged_than(Ring(1))
        assert not Ring(3).is_at_least_as_privileged_as(Ring(2))

    def test_privilege_comparison_accepts_plain_ints(self):
        assert Ring(1).is_at_least_as_privileged_as(2)
        assert Ring(2).is_less_privileged_than(1)

    def test_negative_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            Ring(-1)

    def test_non_integer_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            Ring("2")  # type: ignore[arg-type]

    def test_bool_is_not_a_valid_ring_level(self):
        with pytest.raises(ConfigurationError):
            Ring(True)  # type: ignore[arg-type]

    def test_restricted_to_clamps_towards_less_privilege(self):
        assert Ring(0).restricted_to(Ring(2)) == Ring(2)
        assert Ring(3).restricted_to(Ring(2)) == Ring(3)

    def test_elevated_to_picks_more_privileged(self):
        assert Ring(3).elevated_to(Ring(1)) == Ring(1)
        assert Ring(0).elevated_to(Ring(2)) == Ring(0)

    def test_ordering_operators_follow_numeric_order(self):
        assert Ring(1) < Ring(2)
        assert Ring(2) <= 2
        assert Ring(3) > Ring(0)
        assert Ring(3) >= 3

    def test_int_conversion_and_str(self):
        assert int(Ring(2)) == 2
        assert str(Ring(2)) == "ring 2"

    def test_rings_are_hashable_and_equal_by_level(self):
        assert Ring(1) == Ring(1)
        assert len({Ring(1), Ring(1), Ring(2)}) == 2


class TestAsRing:
    def test_passes_through_ring_instances(self):
        ring = Ring(2)
        assert as_ring(ring) is ring

    def test_coerces_integers(self):
        assert as_ring(3) == Ring(3)

    def test_rejects_negative_integers(self):
        with pytest.raises(ConfigurationError):
            as_ring(-2)

    def test_rejects_non_integers(self):
        with pytest.raises(ConfigurationError):
            as_ring("0")  # type: ignore[arg-type]


class TestInterning:
    def test_as_ring_returns_one_instance_per_level(self):
        assert as_ring(2) is as_ring(2)
        assert as_ring(Ring(2)) == as_ring(2)

    def test_ring_set_hands_out_interned_rings(self):
        rings = RingSet(6)
        assert rings.most_privileged() is as_ring(0)
        assert rings.least_privileged() is as_ring(6)
        assert [ring is as_ring(ring.level) for ring in rings] == [True] * 7
        assert rings.clamp(5) is as_ring(5)
        assert rings.clamp(10**9) is as_ring(6)

    def test_combinators_return_existing_instances(self):
        one, three = as_ring(1), as_ring(3)
        assert one.restricted_to(three) is three
        assert three.restricted_to(one) is three
        assert three.restricted_to(1) is three
        assert one.elevated_to(three) is one
        assert three.elevated_to(1) is one

    def test_value_semantics_are_unchanged(self):
        import pickle

        fresh = Ring(2)
        assert fresh == as_ring(2) and hash(fresh) == hash(as_ring(2))
        assert repr(as_ring(2)) == "Ring(2)"
        assert pickle.loads(pickle.dumps(as_ring(2))) == as_ring(2)

    def test_as_ring_rejects_what_ring_rejects(self):
        for bad in (True, 1.0, -1, "1"):
            with pytest.raises(ConfigurationError):
                as_ring(bad)  # type: ignore[arg-type]


class TestRingSet:
    def test_default_matches_paper_example(self):
        rings = RingSet()
        assert rings.count == DEFAULT_RING_COUNT
        assert rings.highest_level == 3

    def test_most_and_least_privileged(self):
        rings = RingSet(5)
        assert rings.most_privileged() == Ring(0)
        assert rings.least_privileged() == Ring(5)

    def test_membership(self):
        rings = RingSet(2)
        assert Ring(2) in rings
        assert 0 in rings
        assert Ring(3) not in rings
        assert "x" not in rings

    def test_iteration_yields_every_ring(self):
        assert list(RingSet(2)) == [Ring(0), Ring(1), Ring(2)]
        assert len(RingSet(2)) == 3

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(RingRangeError):
            RingSet(2).validate(3)

    def test_validate_accepts_in_range(self):
        assert RingSet(3).validate(2) == Ring(2)

    def test_clamp_moves_towards_less_privilege(self):
        assert RingSet(3).clamp(7) == Ring(3)
        assert RingSet(3).clamp(1) == Ring(1)

    def test_parse_label_defaults_to_least_privileged(self):
        rings = RingSet(3)
        assert rings.parse_label(None) == Ring(3)
        assert rings.parse_label("") == Ring(3)
        assert rings.parse_label("not-a-number") == Ring(3)

    def test_parse_label_with_explicit_default(self):
        assert RingSet(3).parse_label(None, default=Ring(0)) == Ring(0)

    def test_parse_label_clamps_large_values(self):
        assert RingSet(3).parse_label("17") == Ring(3)

    def test_parse_label_rejects_negative_values(self):
        assert RingSet(3).parse_label("-4") == Ring(3)

    def test_parse_label_parses_valid_values(self):
        assert RingSet(3).parse_label(" 2 ") == Ring(2)

    def test_requires_at_least_ring_zero(self):
        with pytest.raises(ConfigurationError):
            RingSet(-1)

    def test_equality(self):
        assert RingSet(3) == RingSet(3)
        assert RingSet(3) != RingSet(4)

    def test_spanning_grows_to_fit(self):
        rings = RingSet(3).spanning([Ring(5), 2])
        assert rings.highest_level == 5
