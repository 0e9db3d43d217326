"""The declarative scenario spec: one experiment as pure data.

A :class:`ScenarioSpec` is the one description every simulation is built
from — topology, Brahms/RAPTEE parameters, adversary mix, churn plan, fault
plan, SGX cost model, membership config, and engine choice — as a frozen,
validated dataclass that also round-trips losslessly through plain
dicts/JSON (:func:`spec_from_dict` / :func:`spec_to_dict`).  CLI flags, the
``build_*_simulation`` functions and loaded dicts all construct one.

Design rules:

* **Strict loading.**  :func:`spec_from_dict` rejects unknown keys, wrong
  types and out-of-range values with a typed
  :class:`~repro.scenario.errors.ScenarioSpecError` carrying the field
  path (``"topology.n_nodes"``, ``"faults[2].kind"``) — never a bare
  ``KeyError``.
* **Canonical form.**  :func:`spec_to_dict` always emits every field, so
  ``spec_to_dict(spec_from_dict(d))`` is a fixpoint and
  :func:`canonical_spec_json` is a stable digest surface for conformance
  vectors.
* **Versioning.**  :data:`SCENARIO_SPEC_VERSION` is embedded in every
  spec and checked on load; incompatible schema changes bump it.
* **Reuse, don't mirror.**  The spec nests the existing validated config
  dataclasses (:class:`~repro.experiments.scenarios.TopologySpec`,
  :class:`~repro.brahms.config.BrahmsConfig`,
  :class:`~repro.membership.service.MembershipConfig`, the
  :mod:`repro.faults.plan` fault classes, the eviction policies) rather
  than re-declaring their fields, so a spec can never drift from what the
  builders actually accept.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.brahms.config import BrahmsConfig
from repro.core.eviction import AdaptiveEviction, EvictionPolicy, FixedEviction
from repro.faults.plan import (
    MEMBERSHIP_FAULTS,
    SGX_FAULTS,
    AttestationOutageFault,
    CrashRestartFault,
    DeviceRevocationFault,
    EclipseFault,
    EnclaveCrashFault,
    EpochRotationFault,
    Fault,
    LinkFault,
    LossBurstFault,
    OmissionFault,
    PartitionFault,
    ProvisionerReplicaCrashFault,
    ProvisioningFlakinessFault,
    RevocationStormFault,
    RoundWindow,
    SealedBlobCorruptionFault,
)
from repro.membership.service import MembershipConfig
from repro.scenario.errors import ScenarioSpecError

# TopologySpec lives with the assembly code; importing it here is safe
# (experiments.scenarios only reaches back into repro.scenario lazily).
from repro.experiments.scenarios import TopologySpec

__all__ = [
    "SCENARIO_SPEC_VERSION",
    "FAULT_KINDS",
    "ChurnSpec",
    "EngineSpec",
    "RapteeOptions",
    "ScenarioSpec",
    "spec_from_dict",
    "spec_to_dict",
    "canonical_spec_json",
]

#: Bumped whenever the spec schema changes incompatibly; loads of any
#: other version are rejected (the conformance suite is versioned data).
SCENARIO_SPEC_VERSION = 1

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Dict-form discriminator -> fault class, the loader's registry.
FAULT_KINDS: Dict[str, Type[Fault]] = {
    "link": LinkFault,
    "partition": PartitionFault,
    "eclipse": EclipseFault,
    "loss-burst": LossBurstFault,
    "crash-restart": CrashRestartFault,
    "omission": OmissionFault,
    "attestation-outage": AttestationOutageFault,
    "provisioning-flakiness": ProvisioningFlakinessFault,
    "enclave-crash": EnclaveCrashFault,
    "sealed-blob-corruption": SealedBlobCorruptionFault,
    "device-revocation": DeviceRevocationFault,
    "provisioner-replica-crash": ProvisionerReplicaCrashFault,
    "epoch-rotation": EpochRotationFault,
    "revocation-storm": RevocationStormFault,
}

_FAULT_NAMES: Dict[Type[Fault], str] = {cls: name for name, cls in FAULT_KINDS.items()}


# ---------------------------------------------------------------------------
# Typed low-level checkers (all raise ScenarioSpecError with the field path)
# ---------------------------------------------------------------------------

def _check_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioSpecError(f"expected an integer, got {value!r}", path)
    return value


def _check_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioSpecError(f"expected a number, got {value!r}", path)
    return float(value)


def _check_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioSpecError(f"expected a boolean, got {value!r}", path)
    return value


def _check_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioSpecError(f"expected a string, got {value!r}", path)
    return value


def _check_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioSpecError(f"expected a mapping, got {type(value).__name__}", path)
    for key in value:
        if not isinstance(key, str):
            raise ScenarioSpecError(f"non-string key {key!r}", path)
    return value


def _check_int_list(value: Any, path: str) -> List[int]:
    if not isinstance(value, (list, tuple)):
        raise ScenarioSpecError(f"expected a list of integers, got {value!r}", path)
    return [_check_int(item, f"{path}[{index}]") for index, item in enumerate(value)]


def _optional(checker: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    def check(value: Any, path: str) -> Any:
        return None if value is None else checker(value, path)

    return check


def _load_fields(
    data: Mapping[str, Any],
    path: str,
    checkers: Mapping[str, Callable[[Any, str], Any]],
    required: Tuple[str, ...] = (),
) -> Dict[str, Any]:
    """Strictly type-check a section dict against its field checkers."""
    data = _check_mapping(data, path)
    for key in data:
        if key not in checkers:
            raise ScenarioSpecError("unknown field", f"{path}.{key}")
    for key in required:
        if key not in data:
            raise ScenarioSpecError("required field is missing", f"{path}.{key}")
    return {
        key: checkers[key](value, f"{path}.{key}") for key, value in data.items()
    }


def _construct(cls: type, kwargs: Dict[str, Any], path: str):
    """Build a validated config dataclass, mapping its ValueError onto the
    offending field path when the message names the field (the project's
    config classes all lead with the field name)."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        first = message.split()[0] if message.split() else ""
        names = {spec_field.name for spec_field in dataclasses.fields(cls)}
        where = f"{path}.{first}" if first in names else path
        raise ScenarioSpecError(message, where) from exc


# ---------------------------------------------------------------------------
# Sub-specs with no existing dataclass to reuse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChurnSpec:
    """Protocol-membership churn plan (distinct from trusted-set churn,
    which rides on :class:`MembershipConfig.join_rate`/``leave_rate``).

    Kinds map onto :mod:`repro.sim.churn`:

    * ``none`` — static membership (the paper's evaluation setting);
    * ``uniform`` — per-round ``leave_rate`` departures / ``join_rate``
      arrivals (:class:`~repro.sim.churn.UniformChurn`);
    * ``catastrophic`` — kill ``fraction`` of the population at
      ``at_round`` (:class:`~repro.sim.churn.CatastrophicFailure`).
    """

    kind: str = "none"
    leave_rate: float = 0.0
    join_rate: float = 0.0
    at_round: int = 0
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "uniform", "catastrophic"):
            raise ScenarioSpecError(
                f"unknown churn kind {self.kind!r} "
                f"(expected none, uniform or catastrophic)",
                "churn.kind",
            )
        if self.kind == "none":
            if self.leave_rate or self.join_rate or self.at_round or self.fraction:
                raise ScenarioSpecError(
                    "churn kind 'none' takes no parameters", "churn"
                )
        elif self.kind == "uniform":
            if not 0.0 <= self.leave_rate < 1.0:
                raise ScenarioSpecError("leave_rate must be in [0, 1)", "churn.leave_rate")
            if self.join_rate < 0.0:
                raise ScenarioSpecError("join_rate must be non-negative", "churn.join_rate")
            if self.at_round or self.fraction:
                raise ScenarioSpecError(
                    "uniform churn takes leave_rate/join_rate only", "churn"
                )
        else:  # catastrophic
            if self.at_round < 1:
                raise ScenarioSpecError(
                    "catastrophic churn needs at_round >= 1", "churn.at_round"
                )
            if not 0.0 < self.fraction < 1.0:
                raise ScenarioSpecError("fraction must be in (0, 1)", "churn.fraction")
            if self.leave_rate or self.join_rate:
                raise ScenarioSpecError(
                    "catastrophic churn takes at_round/fraction only", "churn"
                )


@dataclass(frozen=True)
class EngineSpec:
    """Which clock drives the run, and its knobs.

    ``kind='rounds'`` is the classic lockstep engine.  ``kind='events'``
    selects :mod:`repro.events`; ``latency``/``load``/``straggler`` use
    the same compact string grammar as the CLI flags
    (``lognormal:40:0.6``, ``40:30``, ``0.1:8``) so specs stay plain
    JSON-typed data.  ``kind='shard'`` selects the bulk-synchronous
    struct-of-arrays engine (:mod:`repro.shard`); ``shards`` partitions
    the population — a pure performance knob, since the shard engine's
    ordering barrier makes every output byte-identical across shard
    counts (``shards`` is only meaningful there and must stay 1 for the
    other kinds).
    """

    kind: str = "rounds"
    mode: str = "continuous"
    tick_interval: float = 1.0
    latency: Optional[str] = None
    load: Optional[str] = None
    straggler: Optional[str] = None
    shards: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("rounds", "events", "shard"):
            raise ScenarioSpecError(
                f"unknown engine kind {self.kind!r} "
                f"(expected rounds, events or shard)",
                "engine.kind",
            )
        if isinstance(self.shards, bool) or not isinstance(self.shards, int) \
                or self.shards < 1:
            raise ScenarioSpecError(
                "shards must be a positive integer", "engine.shards"
            )
        if self.kind != "shard" and self.shards != 1:
            raise ScenarioSpecError(
                "shards requires the shard engine", "engine.shards"
            )
        if self.mode not in ("barrier", "continuous"):
            raise ScenarioSpecError(
                f"unknown engine mode {self.mode!r} (expected barrier or continuous)",
                "engine.mode",
            )
        if self.tick_interval <= 0:
            raise ScenarioSpecError("tick_interval must be positive", "engine.tick_interval")
        if self.kind in ("rounds", "shard"):
            # Only the event clock reads these knobs: anything but the
            # field's default would be validated and then silently ignored.
            for name in ("latency", "load", "straggler", "mode", "tick_interval"):
                if getattr(self, name) != getattr(EngineSpec, name):
                    raise ScenarioSpecError(
                        f"{name} requires the events engine", f"engine.{name}"
                    )
            return
        # Events engine: validate the compact grammars eagerly so a bad
        # spec fails at load time, not mid-run.
        from repro.events import parse_latency_model, parse_load, parse_straggler

        parsers = {
            "latency": parse_latency_model,
            "load": parse_load,
            "straggler": parse_straggler,
        }
        for name, parser in parsers.items():
            value = getattr(self, name)
            if value is None:
                continue
            try:
                parser(value)
            except ValueError as exc:
                raise ScenarioSpecError(str(exc), f"engine.{name}") from exc
        if self.mode == "barrier":
            for name in ("latency", "load", "straggler"):
                if getattr(self, name) is not None:
                    raise ScenarioSpecError(
                        f"barrier mode reproduces the round engine and "
                        f"cannot take a {name} model",
                        f"engine.{name}",
                    )


@dataclass(frozen=True)
class RapteeOptions:
    """The RAPTEE-only builder knobs (§IV mechanisms + SGX cost model).

    The keyword surface of
    :func:`~repro.experiments.scenarios.build_raptee_simulation`; see that
    function for semantics.
    ``with_cycle_accounting``/``cycle_mode`` select the SGX cycle-cost
    model of :mod:`repro.sgx.cycles` (Table 1).
    """

    eviction: EvictionPolicy = AdaptiveEviction()
    auth_mode: str = "hmac"
    probe_pulls: int = 0
    trusted_exchange_enabled: bool = True
    eviction_enabled: bool = True
    sketch_unbias_enabled: bool = False
    provisioning_key_bits: int = 384
    with_cycle_accounting: bool = False
    cycle_mode: str = "sgx"

    def __post_init__(self) -> None:
        if not isinstance(self.eviction, EvictionPolicy):
            raise ScenarioSpecError(
                f"expected an EvictionPolicy, got {type(self.eviction).__name__}",
                "raptee.eviction",
            )
        if self.auth_mode not in ("hmac", "aes-ctr"):
            raise ScenarioSpecError(
                f"unknown auth_mode {self.auth_mode!r}", "raptee.auth_mode"
            )
        if self.probe_pulls < 0:
            raise ScenarioSpecError("probe_pulls must be non-negative", "raptee.probe_pulls")
        if self.provisioning_key_bits < 128:
            raise ScenarioSpecError(
                "provisioning_key_bits must be at least 128",
                "raptee.provisioning_key_bits",
            )
        if self.cycle_mode not in ("sgx", "standard"):
            raise ScenarioSpecError(
                f"cycle_mode must be 'sgx' or 'standard', got {self.cycle_mode!r}",
                "raptee.cycle_mode",
            )


# ---------------------------------------------------------------------------
# The top-level spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative workload, ready to compile and run.

    ``rounds=0`` means "unspecified" and is only legal for in-memory specs
    created by the ``build_*_simulation`` functions (which never run the
    spec themselves); loaded and catalogued specs always carry a positive round
    count, which is also what churn/fault round validation checks against.
    """

    name: str
    protocol: str
    seed: int
    topology: TopologySpec
    rounds: int = 0
    spec_version: int = SCENARIO_SPEC_VERSION
    adversary_strategy: str = "adaptive_balanced"
    brahms: Optional[BrahmsConfig] = None
    raptee: Optional[RapteeOptions] = None
    membership: Optional[MembershipConfig] = None
    churn: ChurnSpec = ChurnSpec()
    faults: Tuple[Fault, ...] = ()
    engine: EngineSpec = EngineSpec()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_PATTERN.match(self.name):
            raise ScenarioSpecError(
                f"name must match {_NAME_PATTERN.pattern}, got {self.name!r}",
                "name",
            )
        if self.spec_version != SCENARIO_SPEC_VERSION:
            raise ScenarioSpecError(
                f"spec_version {self.spec_version!r} is not supported by this "
                f"build (expected {SCENARIO_SPEC_VERSION}); regenerate the "
                f"spec or run it with the matching version of repro",
                "spec_version",
            )
        if self.protocol not in ("brahms", "raptee"):
            raise ScenarioSpecError(
                f"unknown protocol {self.protocol!r} (expected brahms or raptee)",
                "protocol",
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ScenarioSpecError("seed must be a non-negative integer", "seed")
        if isinstance(self.rounds, bool) or not isinstance(self.rounds, int) or self.rounds < 0:
            raise ScenarioSpecError("rounds must be a non-negative integer", "rounds")
        if not isinstance(self.topology, TopologySpec):
            raise ScenarioSpecError(
                f"expected a TopologySpec, got {type(self.topology).__name__}",
                "topology",
            )
        if self.adversary_strategy not in ("adaptive_balanced", "balanced", "targeted"):
            raise ScenarioSpecError(
                f"unknown adversary strategy {self.adversary_strategy!r}",
                "adversary_strategy",
            )
        if self.brahms is not None:
            if not isinstance(self.brahms, BrahmsConfig):
                raise ScenarioSpecError(
                    f"expected a BrahmsConfig, got {type(self.brahms).__name__}",
                    "brahms",
                )
            if self.brahms.view_size >= self.topology.n_nodes:
                raise ScenarioSpecError(
                    f"view_size {self.brahms.view_size} must be smaller than "
                    f"n_nodes {self.topology.n_nodes}",
                    "brahms.view_size",
                )
        if self.protocol == "brahms":
            if self.raptee is not None:
                raise ScenarioSpecError(
                    "raptee options require protocol 'raptee'", "raptee"
                )
            if self.membership is not None:
                raise ScenarioSpecError(
                    "membership requires protocol 'raptee'", "membership"
                )
            if self.topology.trusted_fraction or self.topology.poisoned_fraction:
                raise ScenarioSpecError(
                    "trusted/poisoned fractions require protocol 'raptee'",
                    "topology.trusted_fraction",
                )
        if self.raptee is not None and not isinstance(self.raptee, RapteeOptions):
            raise ScenarioSpecError(
                f"expected RapteeOptions, got {type(self.raptee).__name__}",
                "raptee",
            )
        if self.membership is not None and not isinstance(self.membership, MembershipConfig):
            raise ScenarioSpecError(
                f"expected a MembershipConfig, got {type(self.membership).__name__}",
                "membership",
            )
        if not isinstance(self.churn, ChurnSpec):
            raise ScenarioSpecError(
                f"expected a ChurnSpec, got {type(self.churn).__name__}", "churn"
            )
        if (
            self.churn.kind == "catastrophic"
            and self.rounds
            and self.churn.at_round > self.rounds
        ):
            raise ScenarioSpecError(
                f"churn round {self.churn.at_round} is out of range for a "
                f"{self.rounds}-round scenario",
                "churn.at_round",
            )
        if not isinstance(self.engine, EngineSpec):
            raise ScenarioSpecError(
                f"expected an EngineSpec, got {type(self.engine).__name__}", "engine"
            )
        for index, fault in enumerate(self.faults):
            where = f"faults[{index}]"
            if not isinstance(fault, Fault):
                raise ScenarioSpecError(
                    f"expected a Fault, got {type(fault).__name__}", where
                )
            try:
                fault.validate()
            except ValueError as exc:
                raise ScenarioSpecError(str(exc), where) from exc
            if isinstance(fault, SGX_FAULTS) and self.protocol != "raptee":
                raise ScenarioSpecError(
                    f"{type(fault).__name__} requires protocol 'raptee'", where
                )
            if isinstance(fault, MEMBERSHIP_FAULTS) and self.membership is None:
                raise ScenarioSpecError(
                    f"{type(fault).__name__} requires a membership config", where
                )

    @property
    def raptee_options(self) -> RapteeOptions:
        """The RAPTEE knobs in force: the ``raptee`` section, or its
        defaults when the section is omitted."""
        return self.raptee or RapteeOptions()

    def describe(self) -> str:
        """A one-line human summary (the ``vectors list`` row)."""
        topo = self.topology
        parts = [
            f"{self.protocol}",
            f"N={topo.n_nodes}",
            f"f={topo.byzantine_fraction:g}",
        ]
        if topo.trusted_fraction:
            parts.append(f"t={topo.trusted_fraction:g}")
        if topo.poisoned_fraction:
            parts.append(f"poisoned={topo.poisoned_fraction:g}")
        if self.rounds:
            parts.append(f"rounds={self.rounds}")
        if self.engine.kind == "events":
            parts.append(f"engine=events/{self.engine.mode}")
        elif self.engine.kind == "shard":
            parts.append(f"engine=shard/{self.engine.shards}")
        if self.churn.kind != "none":
            parts.append(f"churn={self.churn.kind}")
        if self.faults:
            parts.append(f"faults={len(self.faults)}")
        if self.membership is not None:
            parts.append("membership")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# dict <-> spec conversion
# ---------------------------------------------------------------------------

_TOPOLOGY_CHECKERS = {
    "n_nodes": _check_int,
    "byzantine_fraction": _check_number,
    "trusted_fraction": _check_number,
    "poisoned_fraction": _check_number,
    "view_ratio": _check_number,
    "loss_rate": _check_number,
    "transport_encryption": _check_bool,
}

_BRAHMS_CHECKERS = {
    "view_size": _check_int,
    "sample_size": _check_int,
    "alpha": _check_number,
    "beta": _check_number,
    "gamma": _check_number,
    "blocking_enabled": _check_bool,
    "validation_period": _check_int,
    "push_limit": _optional(_check_int),
}

_MEMBERSHIP_CHECKERS = {
    "enabled": _check_bool,
    "replica_count": _check_int,
    "gossip_fanout": _check_int,
    "service_contacts": _check_int,
    "staleness_bound": _check_int,
    "join_rate": _check_number,
    "leave_rate": _check_number,
    "rotate_on_leave": _check_bool,
}

_CHURN_CHECKERS = {
    "kind": _check_str,
    "leave_rate": _check_number,
    "join_rate": _check_number,
    "at_round": _check_int,
    "fraction": _check_number,
}

_ENGINE_CHECKERS = {
    "kind": _check_str,
    "mode": _check_str,
    "tick_interval": _check_number,
    "latency": _optional(_check_str),
    "load": _optional(_check_str),
    "straggler": _optional(_check_str),
    "shards": _check_int,
}

_RAPTEE_CHECKERS = {
    "eviction": _check_mapping,
    "auth_mode": _check_str,
    "probe_pulls": _check_int,
    "trusted_exchange_enabled": _check_bool,
    "eviction_enabled": _check_bool,
    "sketch_unbias_enabled": _check_bool,
    "provisioning_key_bits": _check_int,
    "with_cycle_accounting": _check_bool,
    "cycle_mode": _check_str,
}


def _eviction_from_dict(data: Any, path: str) -> EvictionPolicy:
    data = _check_mapping(data, path)
    kind = _check_str(data.get("kind", ""), f"{path}.kind")
    if kind == "fixed":
        kwargs = _load_fields(
            {k: v for k, v in data.items() if k != "kind"},
            path,
            {"value": _check_number},
            required=("value",),
        )
        return _construct(FixedEviction, kwargs, path)
    if kind == "adaptive":
        kwargs = _load_fields(
            {k: v for k, v in data.items() if k != "kind"},
            path,
            {
                "low_share": _check_number,
                "high_share": _check_number,
                "low_rate": _check_number,
                "high_rate": _check_number,
            },
        )
        return _construct(AdaptiveEviction, kwargs, path)
    raise ScenarioSpecError(
        f"unknown eviction kind {kind!r} (expected fixed or adaptive)",
        f"{path}.kind",
    )


def _eviction_to_dict(policy: EvictionPolicy) -> Dict[str, Any]:
    if isinstance(policy, FixedEviction):
        return {"kind": "fixed", "value": policy.value}
    if isinstance(policy, AdaptiveEviction):
        return {
            "kind": "adaptive",
            "low_share": policy.low_share,
            "high_share": policy.high_share,
            "low_rate": policy.low_rate,
            "high_rate": policy.high_rate,
        }
    raise ScenarioSpecError(
        f"eviction policy {type(policy).__name__} has no dict form "
        f"(only fixed/adaptive policies are serializable)",
        "raptee.eviction",
    )


def _window_from_dict(data: Any, path: str) -> RoundWindow:
    kwargs = _load_fields(
        data, path, {"start": _check_int, "end": _check_int},
        required=("start", "end"),
    )
    return _construct(RoundWindow, kwargs, path)


def _fault_field_from_dict(value: Any, type_name: str, path: str) -> Any:
    if "RoundWindow" in type_name:
        return _window_from_dict(value, path)
    if "FrozenSet" in type_name:
        return frozenset(_check_int_list(value, path))
    if "Tuple" in type_name:
        return tuple(_check_int_list(value, path))
    if type_name == "bool":
        return _check_bool(value, path)
    if type_name == "int":
        return _check_int(value, path)
    if type_name == "float":
        return _check_number(value, path)
    if type_name == "str":
        return _check_str(value, path)
    raise ScenarioSpecError(f"unsupported fault field type {type_name!r}", path)


def _fault_from_dict(data: Any, path: str) -> Fault:
    data = _check_mapping(data, path)
    if "kind" not in data:
        raise ScenarioSpecError("required field is missing", f"{path}.kind")
    kind = _check_str(data["kind"], f"{path}.kind")
    if kind not in FAULT_KINDS:
        raise ScenarioSpecError(
            f"unknown fault kind {kind!r} (expected one of: "
            f"{', '.join(sorted(FAULT_KINDS))})",
            f"{path}.kind",
        )
    cls = FAULT_KINDS[kind]
    fault_fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key == "kind":
            continue
        if key not in fault_fields:
            raise ScenarioSpecError("unknown field", f"{path}.{key}")
        kwargs[key] = _fault_field_from_dict(
            value, str(fault_fields[key].type), f"{path}.{key}"
        )
    for name, spec_field in fault_fields.items():
        required = (
            spec_field.default is dataclasses.MISSING
            and spec_field.default_factory is dataclasses.MISSING
        )
        if required and name not in kwargs:
            raise ScenarioSpecError("required field is missing", f"{path}.{name}")
    fault = _construct(cls, kwargs, path)
    try:
        fault.validate()
    except ValueError as exc:
        raise ScenarioSpecError(str(exc), path) from exc
    return fault


def _fault_to_dict(fault: Fault) -> Dict[str, Any]:
    kind = _FAULT_NAMES.get(type(fault))
    if kind is None:
        raise ScenarioSpecError(
            f"fault {type(fault).__name__} has no dict form", "faults"
        )
    payload: Dict[str, Any] = {"kind": kind}
    for spec_field in dataclasses.fields(type(fault)):
        value = getattr(fault, spec_field.name)
        if isinstance(value, RoundWindow):
            value = {"start": value.start, "end": value.end}
        elif isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, tuple):
            value = list(value)
        payload[spec_field.name] = value
    return payload


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Load and strictly validate a scenario spec from a plain dict.

    Optional sections may be omitted (their defaults apply); present
    sections are checked key-by-key, and every failure raises
    :class:`ScenarioSpecError` naming the field path.
    """
    top_checkers = {
        "name": _check_str,
        "spec_version": _check_int,
        "protocol": _check_str,
        "seed": _check_int,
        "rounds": _check_int,
        "adversary_strategy": _check_str,
        "topology": _check_mapping,
        "brahms": _optional(_check_mapping),
        "raptee": _optional(_check_mapping),
        "membership": _optional(_check_mapping),
        "churn": _check_mapping,
        "engine": _check_mapping,
        "faults": lambda value, path: value,
    }
    fields = _load_fields(
        data, "spec", top_checkers,
        required=("name", "protocol", "seed", "rounds", "topology"),
    )
    if fields["rounds"] < 1:
        raise ScenarioSpecError("rounds must be a positive integer", "rounds")

    topology = _construct(
        TopologySpec,
        _load_fields(fields["topology"], "topology", _TOPOLOGY_CHECKERS),
        "topology",
    )
    brahms = None
    if fields.get("brahms") is not None:
        brahms = _construct(
            BrahmsConfig,
            _load_fields(fields["brahms"], "brahms", _BRAHMS_CHECKERS),
            "brahms",
        )
    raptee = None
    if fields.get("raptee") is not None:
        raptee_kwargs = _load_fields(fields["raptee"], "raptee", _RAPTEE_CHECKERS)
        if "eviction" in raptee_kwargs:
            raptee_kwargs["eviction"] = _eviction_from_dict(
                raptee_kwargs["eviction"], "raptee.eviction"
            )
        raptee = RapteeOptions(**raptee_kwargs)
    membership = None
    if fields.get("membership") is not None:
        membership = _construct(
            MembershipConfig,
            _load_fields(fields["membership"], "membership", _MEMBERSHIP_CHECKERS),
            "membership",
        )
    churn = ChurnSpec(**_load_fields(fields.get("churn", {}), "churn", _CHURN_CHECKERS))
    engine = EngineSpec(
        **_load_fields(fields.get("engine", {}), "engine", _ENGINE_CHECKERS)
    )
    faults_data = fields.get("faults", [])
    if not isinstance(faults_data, (list, tuple)):
        raise ScenarioSpecError(
            f"expected a list of faults, got {type(faults_data).__name__}",
            "faults",
        )
    faults = tuple(
        _fault_from_dict(entry, f"faults[{index}]")
        for index, entry in enumerate(faults_data)
    )
    return ScenarioSpec(
        name=fields["name"],
        spec_version=fields.get("spec_version", SCENARIO_SPEC_VERSION),
        protocol=fields["protocol"],
        seed=fields["seed"],
        rounds=fields["rounds"],
        adversary_strategy=fields.get("adversary_strategy", "adaptive_balanced"),
        topology=topology,
        brahms=brahms,
        raptee=raptee,
        membership=membership,
        churn=churn,
        faults=faults,
        engine=engine,
    )


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """The canonical (every-field) dict form of a spec.

    ``spec_to_dict`` and :func:`spec_from_dict` are exact inverses, and
    ``spec_to_dict`` of a loaded spec is a fixpoint — the property the
    round-trip tests pin.
    """
    return {
        "name": spec.name,
        "spec_version": spec.spec_version,
        "protocol": spec.protocol,
        "seed": spec.seed,
        "rounds": spec.rounds,
        "adversary_strategy": spec.adversary_strategy,
        "topology": dataclasses.asdict(spec.topology),
        "brahms": None if spec.brahms is None else dataclasses.asdict(spec.brahms),
        "raptee": None
        if spec.raptee is None
        else dict(
            dataclasses.asdict(spec.raptee),
            eviction=_eviction_to_dict(spec.raptee.eviction),
        ),
        "membership": None
        if spec.membership is None
        else dataclasses.asdict(spec.membership),
        "churn": dataclasses.asdict(spec.churn),
        "faults": [_fault_to_dict(fault) for fault in spec.faults],
        "engine": dataclasses.asdict(spec.engine),
    }


def canonical_spec_json(spec: ScenarioSpec) -> str:
    """Deterministic JSON form: sorted keys, compact separators."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
