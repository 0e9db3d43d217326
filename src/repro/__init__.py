"""RAPTEE reproduction: TEE-hardened Byzantine-tolerant peer sampling.

Full reproduction of Pigaglio et al., "RAPTEE: Leveraging trusted execution
environments for Byzantine-tolerant peer sampling services" (ICDCS 2022),
with every substrate implemented from scratch.  See README.md for the
architecture overview and DESIGN.md for the system inventory.

Top-level convenience re-exports cover the protocol objects; the
subpackages hold the full API.  A run is a
:class:`~repro.scenario.spec.ScenarioSpec` handed to
:func:`~repro.scenario.run.run_scenario`:

>>> from repro import AdaptiveEviction, TopologySpec
>>> from repro.scenario import RapteeOptions, ScenarioSpec, run_scenario
>>> spec = ScenarioSpec(
...     name="example", protocol="raptee", seed=1, rounds=20,
...     topology=TopologySpec(n_nodes=100, byzantine_fraction=0.1,
...                           trusted_fraction=0.1),
...     raptee=RapteeOptions(eviction=AdaptiveEviction()))
>>> metrics = run_scenario(spec, telemetry=None).metrics
>>> metrics.rounds
20
"""

from repro.brahms import BrahmsConfig, BrahmsNode
from repro.core import (
    AdaptiveEviction,
    FixedEviction,
    RapteeConfig,
    RapteeEnclave,
    RapteeNode,
    TrustedInfrastructure,
)
from repro.experiments import TopologySpec
from repro.sim import Network, NodeKind, Simulation

__version__ = "1.0.0"

__all__ = [
    "BrahmsConfig",
    "BrahmsNode",
    "AdaptiveEviction",
    "FixedEviction",
    "RapteeConfig",
    "RapteeEnclave",
    "RapteeNode",
    "TrustedInfrastructure",
    "TopologySpec",
    "Network",
    "NodeKind",
    "Simulation",
    "__version__",
]
