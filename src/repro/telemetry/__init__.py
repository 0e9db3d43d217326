"""Deterministic observability for the RAPTEE reproduction.

One coherent instrumentation layer instead of N private counters:

* :mod:`repro.telemetry.registry` — counters, gauges and histograms with
  labeled families; the single namespace experiments, catalog scenarios and
  the CLI read per-run numbers from;
* :mod:`repro.telemetry.trace` — structured events and phase spans keyed by
  ``(round, node, phase)``, emitted by the engine, the network, the SGX
  ECALL boundary, attestation/provisioning, fault injection and enclave
  recovery;
* :mod:`repro.telemetry.exporters` — JSONL trace / CSV metrics / human
  summary serialization (pure: strings out, no I/O);
* :mod:`repro.telemetry.harness` — :func:`wire_telemetry`, the one-call
  integration mirroring :func:`repro.faults.harness.wire_faults`.

The whole package is a *leaf* of the dependency graph: protocol layers hold
an optional ``telemetry`` handle (``None`` costs one attribute check) and
the package imports no protocol code at runtime.  Two runs of the same
scenario and seed serialize byte-identical traces and metrics whether
telemetry is wired or not — enforced by ``tests/test_telemetry_integration``.
Nothing in it reads a clock: per-layer wall time is the perf ledger's
traced mode (``benchmarks/ledger/run.py --trace 1``).
"""

from repro.telemetry.exporters import (
    metrics_to_csv,
    render_summary,
    trace_to_jsonl,
    validate_trace_jsonl,
)
from repro.telemetry.harness import TelemetryObserver, wire_telemetry
from repro.telemetry.hub import Telemetry, TelemetryConfig
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
)
from repro.telemetry.trace import TraceCollector, TraceEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryObserver",
    "TraceCollector",
    "TraceEvent",
    "metrics_to_csv",
    "render_summary",
    "trace_to_jsonl",
    "validate_trace_jsonl",
    "wire_telemetry",
]
