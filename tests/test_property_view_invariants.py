"""Property-based invariants of the trusted view swap.

The structural guarantee the §IV-B exchange relies on: an offer never
exceeds half the view plus the self link, and the swap conserves the view
as a multiset transformation.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.trusted_exchange import apply_swap, build_offer


class TestSwapProperties:
    view_strategy = st.lists(
        st.integers(min_value=1, max_value=40), min_size=1, max_size=20
    )

    @given(view=view_strategy, seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_offer_never_exceeds_half_plus_self(self, view, seed):
        offer = build_offer(view, own_id=999, rng=random.Random(seed), include_self=True)
        assert len(offer.offered) <= max(1, len(view) // 2)
        assert offer.offered[-1] == 999  # self link appended

    @given(
        view=view_strategy,
        received=st.lists(st.integers(min_value=100, max_value=140), max_size=10),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_swap_length_accounting(self, view, received, seed):
        offer = build_offer(view, own_id=999, rng=random.Random(seed), include_self=False)
        new_view = apply_swap(view, offer, tuple(received), own_id=999)
        removed = len(offer.sent_from_view)
        added = len([peer for peer in received if peer != 999])
        assert len(new_view) == len(view) - removed + added

    @given(
        view=view_strategy,
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_swap_with_empty_reception_only_removes(self, view, seed):
        offer = build_offer(view, own_id=999, rng=random.Random(seed), include_self=False)
        new_view = apply_swap(view, offer, (), own_id=999)
        # Everything left was in the original view.
        original = list(view)
        for peer in new_view:
            original.remove(peer)  # raises if multiset containment violated
