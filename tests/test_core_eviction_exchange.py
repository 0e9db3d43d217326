"""Eviction policies (§IV-C) and the trusted half-view swap (§IV-B)."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.core.trusted_exchange import apply_swap, build_offer


class TestFixedEviction:
    def test_constant_rate(self):
        policy = FixedEviction(0.6)
        assert policy.rate(0.0) == policy.rate(0.5) == policy.rate(1.0) == 0.6

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FixedEviction(1.5)
        with pytest.raises(ValueError):
            FixedEviction(-0.1)

    def test_describe(self):
        assert FixedEviction(0.4).describe() == "fixed-40%"


class TestAdaptiveEviction:
    def test_paper_anchor_points(self):
        policy = AdaptiveEviction()
        assert policy.rate(0.0) == 0.8
        assert policy.rate(0.2) == 0.8
        assert policy.rate(0.8) == pytest.approx(0.2)
        assert policy.rate(1.0) == 0.2

    def test_linear_midpoint(self):
        assert AdaptiveEviction().rate(0.5) == pytest.approx(0.5)

    def test_paper_rule_equals_one_minus_share_in_linear_region(self):
        policy = AdaptiveEviction()
        for share in (0.25, 0.4, 0.6, 0.75):
            assert policy.rate(share) == pytest.approx(1.0 - share)

    @given(share=st.floats(min_value=0.0, max_value=1.0))
    def test_rate_always_within_anchors(self, share):
        rate = AdaptiveEviction().rate(share)
        assert 0.2 <= rate <= 0.8

    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotonically_non_increasing(self, a, b):
        policy = AdaptiveEviction()
        low, high = min(a, b), max(a, b)
        assert policy.rate(low) >= policy.rate(high)

    def test_out_of_range_share_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveEviction().rate(1.2)

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            AdaptiveEviction(low_share=0.8, high_share=0.2)
        with pytest.raises(ValueError):
            AdaptiveEviction(low_rate=0.9, high_rate=0.1)

    def test_custom_anchors(self):
        policy = AdaptiveEviction(low_share=0.1, high_share=0.9, low_rate=0.0, high_rate=1.0)
        assert policy.rate(0.05) == 1.0
        assert policy.rate(0.95) == 0.0
        assert policy.rate(0.5) == pytest.approx(0.5)


class TestArrayRates:
    """``rates`` (the shard engine's trusted owners in one call) is the
    scalar ``rate`` (the per-node engines), element for element."""

    @given(
        shares=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
        anchors=st.lists(st.floats(min_value=0.0, max_value=1.0),
                         min_size=2, max_size=2, unique=True).map(sorted),
        rates=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=2, max_size=2).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_eviction_rates_match_scalar(self, shares, anchors, rates):
        """Bit-equal, not approximately equal."""
        # The anchor points themselves are where the clamps switch.
        shares = np.asarray(shares + anchors + [0.0, 1.0])
        for policy in (FixedEviction(rates[0]), AdaptiveEviction(*anchors, *rates)):
            expected = [policy.rate(share) for share in shares.tolist()]
            assert policy.rates(shares).tolist() == expected

    def test_the_line_is_taken_inside_its_interval_only(self):
        """Anchors ``(0, 5e-324)`` make the slope −inf; the scalar rule
        never computes it (no share lies strictly between), so the array
        rule must not either — at a share on an anchor, −inf · 0 is a NaN
        and an ``invalid value`` warning."""
        policy = AdaptiveEviction(0.0, 5e-324, 0.0, 1.0)
        shares = np.asarray([0.0, 5e-324, 1e-300, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = policy.rates(shares).tolist()
        assert rates == [policy.rate(share) for share in shares.tolist()]
        assert rates == [1.0, 0.0, 0.0, 0.0, 0.0]


class TestTrustedExchange:
    def test_offer_half_view_with_self(self):
        rng = random.Random(0)
        view = list(range(1, 11))
        offer = build_offer(view, own_id=99, rng=rng, include_self=True)
        assert len(offer.offered) == 5  # c/2
        assert 99 in offer.offered
        assert len(offer.sent_from_view) == 4
        assert set(offer.sent_from_view) <= set(view)

    def test_offer_without_self(self):
        rng = random.Random(0)
        view = list(range(1, 11))
        offer = build_offer(view, own_id=99, rng=rng, include_self=False)
        assert len(offer.offered) == 5
        assert 99 not in offer.offered
        assert tuple(offer.sent_from_view) == offer.offered

    def test_offer_from_tiny_view(self):
        rng = random.Random(0)
        offer = build_offer([7], own_id=99, rng=rng, include_self=True)
        assert offer.offered == (99,)

    def test_swap_removes_sent_and_adds_received(self):
        rng = random.Random(1)
        view = list(range(1, 11))
        offer = build_offer(view, own_id=99, rng=rng, include_self=True)
        received = (201, 202, 203, 204, 205)
        new_view = apply_swap(view, offer, received, own_id=99)
        for sent in offer.sent_from_view:
            assert new_view.count(sent) == view.count(sent) - 1
        for peer in received:
            assert peer in new_view

    def test_swap_preserves_length(self):
        rng = random.Random(2)
        view = list(range(1, 11))
        offer = build_offer(view, own_id=99, rng=rng, include_self=False)
        received = tuple(range(100, 100 + len(offer.offered)))
        assert len(apply_swap(view, offer, received, own_id=99)) == len(view)

    def test_swap_filters_own_id(self):
        rng = random.Random(3)
        view = list(range(1, 11))
        offer = build_offer(view, own_id=99, rng=rng, include_self=True)
        new_view = apply_swap(view, offer, (99, 50), own_id=99)
        assert 99 not in new_view
        assert 50 in new_view

    def test_swap_multiset_semantics_with_duplicates(self):
        view = [1, 1, 2, 3]
        offer = build_offer([1], own_id=9, rng=random.Random(0), include_self=False)
        # offer sent_from_view == (1,): removing once keeps the second 1.
        new_view = apply_swap(view, offer, (7,), own_id=9)
        assert new_view.count(1) == 1
        assert 7 in new_view
