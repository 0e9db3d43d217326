"""The global adversary (§III-B).

One coordinator controls every Byzantine identity.  It has full knowledge of
the system membership (Byzantine *and* correct IDs) but cannot tell which
correct nodes are SGX-capable.  Push strategies:

* **adaptive_balanced** (default) — the strategy the Brahms analysis proves
  optimal, executed against Brahms' attack-detection defense: every correct
  node receives the same number of Byzantine pushes, and that number is
  chosen *just below the blocking threshold*.  A node blocks its view
  update when it receives more than the expected α·l1 pushes; honest nodes
  only deliver about α·l1·(1−v) pushes to correct targets when views carry
  a Byzantine fraction v (the rest land on Byzantine IDs), so the adversary
  can fill the slack ≈ α·l1·v per victim.  This creates Brahms' well-known
  death spiral — pollution frees push slack, which buys more pollution —
  and reproduces the paper's Fig. 3 collapse (81 % Byzantine IDs at
  f = 18 %).  The adversary estimates v from the pull answers its nodes
  receive (the same intelligence the §VI-A attack uses); the simulator
  hands it that estimate as a pollution probe, and the strategy refuses to
  run without one.
* **balanced** — the naive fixed-budget variant: every identity spends
  exactly its rate-limit allowance, spread evenly.

Every strategy is capped by the rate limit: total pushes per round can
never exceed (number of Byzantine identities) × per-identity limit.
"""

from __future__ import annotations

import random
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

__all__ = ["AdversaryCoordinator"]


class AdversaryCoordinator:
    """Central brain for all Byzantine identities."""

    STRATEGIES = ("adaptive_balanced", "balanced")

    #: How often the fake-view pool was reshuffled (see :meth:`fake_window`).
    #: A class-level default: a checkpoint written before the count existed
    #: restores with it at 0, which only renames the windows.
    _fake_generation = 0

    def __init__(
        self,
        byzantine_ids: Iterable[int],
        correct_ids: Iterable[int],
        push_limit: int,
        rng: random.Random,
        strategy: str = "adaptive_balanced",
        expected_pushes: Optional[int] = None,
    ):
        self.byzantine_ids: List[int] = sorted(set(byzantine_ids))
        self.correct_ids: List[int] = sorted(set(correct_ids))
        if push_limit <= 0:
            raise ValueError("push_limit must be positive")
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "adaptive_balanced" and expected_pushes is None:
            raise ValueError(
                "the adaptive_balanced strategy needs expected_pushes, the "
                "victims' blocking threshold it aims at"
            )
        self.push_limit = push_limit
        self.strategy = strategy
        #: The victims' blocking threshold α·l1 the adaptive strategy aims at.
        self.expected_pushes = expected_pushes
        self._rng = rng
        self._assignments: Dict[int, List[int]] = {}
        self._assigned_round = -1
        self._pollution_probe: Optional[Callable[[], float]] = None
        # Identification-attack intelligence (repro.adversary.identification):
        # observed pull-answer compositions, per correct node, with the
        # round they were seen in.
        self.intel: Dict[int, List[tuple]] = defaultdict(list)
        self._byzantine_set: Set[int] = set(self.byzantine_ids)
        # Rotating fake-view service (cheap per-answer slicing).
        self._fake_pool: List[int] = list(self.byzantine_ids)
        self._fake_cursor = 0

    # -- situational awareness -------------------------------------------------

    def set_pollution_probe(self, probe: Callable[[], float]) -> None:
        """Install the adversary's estimate of the current mean Byzantine
        fraction v in correct views.  The §VI-A identification attack already
        grants the adversary exactly this aggregate (its nodes average the
        pull answers they receive); the probe is the simulator's shortcut
        for that estimation."""
        self._pollution_probe = probe

    def _estimated_pollution(self) -> float:
        if self._pollution_probe is None:
            raise RuntimeError(
                "the adaptive_balanced strategy reads its pollution probe, "
                "and none is installed (set_pollution_probe)"
            )
        return max(0.0, min(1.0, self._pollution_probe()))

    # -- push scheduling ----------------------------------------------------

    @property
    def total_budget(self) -> int:
        return len(self.byzantine_ids) * self.push_limit

    def _balanced_target_multiset(self, budget: int) -> List[int]:
        """Spread ``budget`` pushes as evenly as possible over correct IDs."""
        if not self.correct_ids or budget <= 0:
            return []
        quota, remainder = divmod(budget, len(self.correct_ids))
        targets: List[int] = []
        order = list(self.correct_ids)
        self._rng.shuffle(order)
        for node in order:
            targets.extend([node] * quota)
        targets.extend(order[:remainder])
        return targets

    def _adaptive_budget(self) -> int:
        """Victim-count × per-victim slack, capped by the rate limit."""
        pollution = self._estimated_pollution()
        # Slack per victim: the blocking threshold minus the honest pushes
        # the victim is expected to receive, with one push of safety margin.
        honest_arrivals = self.expected_pushes * (1.0 - pollution)
        slack = max(0.0, self.expected_pushes - honest_arrivals - 1.0)
        wanted = int(slack * len(self.correct_ids))
        # Even with zero estimated pollution the adversary spends a minimal
        # probe budget, otherwise the spiral could never start.
        wanted = max(wanted, len(self.correct_ids) // 2)
        return min(wanted, self.total_budget)

    def _build_assignments(self, round_number: int) -> None:
        budget = (
            self._adaptive_budget()
            if self.strategy == "adaptive_balanced"
            else self.total_budget
        )
        targets = self._balanced_target_multiset(budget)

        self._rng.shuffle(targets)
        self._assignments = {}
        for index, byz_id in enumerate(self.byzantine_ids):
            chunk = targets[index * self.push_limit : (index + 1) * self.push_limit]
            self._assignments[byz_id] = chunk
        self._assigned_round = round_number

    def push_targets_for(self, byz_id: int, round_number: int) -> List[int]:
        """The pushes one Byzantine identity sends this round."""
        if round_number != self._assigned_round:
            self._build_assignments(round_number)
        return self._assignments.get(byz_id, [])

    # -- pull probing (cover traffic + intelligence) -----------------------------

    def pull_targets_for(self, byz_id: int, count: int) -> List[int]:
        """Correct nodes a Byzantine identity probes with pulls this round."""
        if not self.correct_ids or count <= 0:
            return []
        return self._rng.choices(self.correct_ids, k=count)

    def record_pull_answer(self, observed_node: int, ids: Sequence[int], round_number: int) -> None:
        """Store the Byzantine-ID fraction of one observed pull answer."""
        if not ids:
            return
        byzantine_set = self._byzantine_set
        fraction = sum(1 for peer in ids if peer in byzantine_set) / len(ids)
        self.intel[observed_node].append((round_number, fraction))

    def fake_window(self, size: int) -> Tuple[Tuple[int, int, int], List[int]]:
        """Serve one pull answer: its window's key and its ids.

        The key is ``(generation, start, size)``, the generation counting
        the pool's reshuffles: equal keys name equal ids, so a caller may
        keep what it built from an answer under its key.
        """
        pool = self._fake_pool
        start = self._fake_cursor
        key = (self._fake_generation, start, size)
        if size >= len(pool):
            return key, list(pool)
        end = start + size
        if end <= len(pool):
            view = pool[start:end]
        else:
            view = pool[start:] + pool[: end - len(pool)]
            self._rng.shuffle(pool)
            self._fake_generation += 1
        self._fake_cursor = end % len(pool)
        return key, view

    def fake_view(self, size: int) -> List[int]:
        """A pull answer: exclusively Byzantine IDs (§V-B).

        Served from a rotating shuffled pool so that, across answers, every
        Byzantine identity is advertised equally often (the adversary wants
        all of its identities represented, not a lucky few).
        """
        return self.fake_window(size)[1]

    @contextmanager
    def fake_views_kept(self) -> Iterator[None]:
        """Serve fake views in the block, then put the pool order, the
        cursor and the RNG state back: a read of every Byzantine node's
        view (:meth:`SimulationBundle.all_views`) sees what serving them
        would show, and leaves the run as it found it."""
        pool, cursor = list(self._fake_pool), self._fake_cursor
        generation, state = self._fake_generation, self._rng.getstate()
        try:
            yield
        finally:
            self._fake_pool[:] = pool
            self._fake_cursor = cursor
            self._fake_generation = generation
            self._rng.setstate(state)
