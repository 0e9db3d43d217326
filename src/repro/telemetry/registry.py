"""Metrics registry: counters, gauges and histograms with labeled families.

The registry is the one place every per-run number lives.  Components that
used to keep private ``Counter`` objects (:class:`repro.sim.network
.NetworkStats`, the fault injector's :class:`InjectionStats`, the
provisioner's attempt counters) mirror their increments here when telemetry
is wired, so experiments, drills and the ``repro trace`` CLI read one
coherent namespace instead of N private structs.

Design constraints:

* **Deterministic** — no wall clock, no randomness, and every read-out
  (:meth:`MetricsRegistry.snapshot`) is sorted by ``(name, labels)`` so two
  identical runs serialize byte-identically.
* **Pure** — the registry never performs I/O; serialization lives in
  :mod:`repro.telemetry.exporters` and file writing in the CLI layer.
* **Cheap when idle** — instruments are plain attribute bumps; the label
  lookup is one dict access on a tuple key.

Label values may be any hashable scalar (ints for rounds, strings for
causes); they are compared via ``repr`` when sorting so heterogeneous
families still snapshot deterministically.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

LabelValue = Union[str, int, float, bool]
LabelItems = Tuple[Tuple[str, LabelValue], ...]

#: Default histogram buckets: a 1-2-5 ladder wide enough for per-round
#: message counts at every scale the repo simulates.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000,
    20_000, 50_000, 100_000,
)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with running count and sum.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; observations
    above the last bound land in the implicit overflow bucket (reported as
    ``count - sum(bucket_counts)``).
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        bounds = tuple(float(bound) for bound in buckets)
        # Pairwise, so a NaN bound (which orders against nothing) is refused.
        if not all(low <= high for low, high in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be sorted ascending")
        self.buckets: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * len(bounds)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # The first bound >= value; the comparison keeps NaN (which
        # bisects to 0) in the overflow bucket.
        buckets = self.buckets
        index = bisect_left(buckets, value)
        if index < len(buckets) and value <= buckets[index]:
            self.bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


Instrument = Union[Counter, Gauge, Histogram]


@dataclass(frozen=True)
class MetricSample:
    """One instrument's state at snapshot time (flattened for export)."""

    name: str
    kind: str
    labels: LabelItems
    value: float
    count: Optional[int] = None   # histograms only
    sum: Optional[float] = None   # histograms only

    def labels_text(self) -> str:
        return ",".join(f"{key}={value}" for key, value in self.labels)


def _label_items(labels: Dict[str, LabelValue]) -> LabelItems:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Get-or-create store of labeled instrument families."""

    def __init__(self) -> None:
        self._families: Dict[str, Dict[LabelItems, Instrument]] = {}
        self._kinds: Dict[str, str] = {}

    # -- get-or-create -------------------------------------------------------

    def _instrument(
        self, name: str, kind: str, factory, labels: Dict[str, LabelValue]
    ) -> Instrument:
        known_kind = self._kinds.get(name)
        if known_kind is None:
            self._kinds[name] = kind
            self._families[name] = {}
        elif known_kind != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {known_kind}, "
                f"not a {kind}"
            )
        family = self._families[name]
        key = _label_items(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = factory()
            family[key] = instrument
        return instrument

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        return self._instrument(name, "counter", Counter, labels)

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        return self._instrument(name, "gauge", Gauge, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: LabelValue,
    ) -> Histogram:
        return self._instrument(
            name, "histogram", lambda: Histogram(buckets), labels
        )

    # -- reading -------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._families)

    def value(self, name: str, default: float = 0, **labels: LabelValue) -> float:
        """Read one instrument's value without creating it."""
        family = self._families.get(name)
        if family is None:
            return default
        instrument = family.get(_label_items(labels))
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value

    def by_label(self, name: str, key: str) -> Dict[LabelValue, float]:
        """Collapse a family to ``{label_value: value}`` for one label key.

        Instruments lacking the key are skipped; duplicates (same value for
        ``key`` under different other labels) are summed.  The conformance
        suite's fault-drop check reads ``by_label("faults.drops", "cause")``.
        """
        result: Dict[LabelValue, float] = {}
        family = self._families.get(name, {})
        for label_items, instrument in family.items():
            labels = dict(label_items)
            if key not in labels:
                continue
            value = (
                float(instrument.count)
                if isinstance(instrument, Histogram)
                else instrument.value
            )
            result[labels[key]] = result.get(labels[key], 0) + value
        return result

    def total(self, name: str) -> float:
        """Sum of every instrument in a family (histograms: total count)."""
        family = self._families.get(name, {})
        total = 0.0
        for instrument in family.values():
            if isinstance(instrument, Histogram):
                total += instrument.count
            else:
                total += instrument.value
        return total

    def snapshot(self) -> List[MetricSample]:
        """Every instrument, flattened and deterministically sorted."""
        samples: List[MetricSample] = []
        for name in sorted(self._families):
            family = self._families[name]
            for label_items in sorted(family, key=repr):
                instrument = family[label_items]
                if isinstance(instrument, Histogram):
                    samples.append(
                        MetricSample(
                            name=name,
                            kind=instrument.kind,
                            labels=label_items,
                            value=instrument.mean,
                            count=instrument.count,
                            sum=instrument.sum,
                        )
                    )
                else:
                    samples.append(
                        MetricSample(
                            name=name,
                            kind=instrument.kind,
                            labels=label_items,
                            value=instrument.value,
                        )
                    )
        return samples
