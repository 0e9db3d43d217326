"""The declarative scenario spec: one experiment as pure data.

A :class:`ScenarioSpec` is the one description every simulation is built
from — topology, Brahms/RAPTEE parameters, adversary mix, churn plan, fault
plan, SGX cost model, membership config, and engine choice — as a frozen,
validated dataclass that also round-trips losslessly through plain
dicts/JSON (:func:`spec_from_dict` / :func:`spec_to_dict`).  CLI flags, the
``build_*_simulation`` functions and loaded dicts all construct one.

Design rules:

* **The dataclasses are the schema.**  :func:`spec_from_dict` and
  :func:`spec_to_dict` walk the dataclass fields: a field's annotation
  picks its checker (scalar, ``Optional``, tuple/frozenset, nested
  dataclass, or a ``{"kind": ...}`` tagged union for faults and eviction
  policies), a field without a default is required, and the dump emits
  every field.  A new spec field is one edit, to its dataclass.
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
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

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

#: Annotated base class -> ``{"kind": ...}`` discriminator -> concrete
#: class: the tagged unions of the dict form.
_UNIONS: Dict[type, Dict[str, type]] = {
    Fault: FAULT_KINDS,
    EvictionPolicy: {"fixed": FixedEviction, "adaptive": AdaptiveEviction},
}

_KIND_OF: Dict[type, str] = {
    cls: kind for kinds in _UNIONS.values() for kind, cls in kinds.items()
}


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


def _construct(cls: type, kwargs: Dict[str, Any], path: str):
    """Build a validated config dataclass, mapping its ValueError onto the
    offending field path when the message names the field (the project's
    config classes all lead with the field name)."""
    try:
        return cls(**kwargs)
    except ScenarioSpecError:
        raise  # already carries its own field path
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

    @property
    def brahms_config(self) -> BrahmsConfig:
        """The Brahms parameters in force: the ``brahms`` section, or the
        sizes the topology derives when the section is omitted."""
        return self.brahms or self.topology.brahms_config()

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
# dict <-> spec conversion: the dataclasses are the schema
# ---------------------------------------------------------------------------

_SCALARS: Dict[Any, Callable[[Any, str], Any]] = {
    int: _check_int,
    float: _check_number,
    bool: _check_bool,
    str: _check_str,
}


def _load(value: Any, hint: Any, path: str) -> Any:
    """Strictly load one value against the annotation of the field holding
    it: a scalar, ``Optional``, a tuple/frozenset, a ``{"kind": ...}``
    tagged union, or a nested dataclass."""
    origin = get_origin(hint)
    if origin is Union:  # Optional[X]
        return None if value is None else _load(value, get_args(hint)[0], path)
    if hint in _SCALARS:
        return _SCALARS[hint](value, path)
    # Only a top-level key carries the "spec." prefix; what it holds is
    # addressed from the root ("topology.n_nodes", "faults[2].kind").
    if path.startswith("spec."):
        path = path[len("spec."):]
    if origin in (tuple, frozenset):
        if not isinstance(value, (list, tuple)):
            raise ScenarioSpecError(
                f"expected a list, got {type(value).__name__}", path
            )
        item_hint = get_args(hint)[0]
        return origin(
            _load(item, item_hint, f"{path}[{index}]")
            for index, item in enumerate(value)
        )
    data = dict(_check_mapping(value, path))
    if hint in _UNIONS:
        kinds = _UNIONS[hint]
        if "kind" not in data:
            raise ScenarioSpecError("required field is missing", f"{path}.kind")
        kind = _check_str(data.pop("kind"), f"{path}.kind")
        if kind not in kinds:
            raise ScenarioSpecError(
                f"unknown kind {kind!r} (expected one of: "
                f"{', '.join(sorted(kinds))})",
                f"{path}.kind",
            )
        hint = kinds[kind]
    elif not dataclasses.is_dataclass(hint):
        raise ScenarioSpecError(f"unsupported field type {hint!r}", path)
    return _load_dataclass(data, hint, path)


def _load_dataclass(data: Dict[str, Any], cls: type, path: str) -> Any:
    """Build ``cls`` from its dict form: every key must name a field, every
    field without a default must be present, every value must load."""
    fields = {spec_field.name: spec_field for spec_field in dataclasses.fields(cls)}
    for key in data:
        if key not in fields:
            raise ScenarioSpecError("unknown field", f"{path}.{key}")
    for name, spec_field in fields.items():
        required = (
            spec_field.default is dataclasses.MISSING
            and spec_field.default_factory is dataclasses.MISSING
        )
        if required and name not in data:
            raise ScenarioSpecError("required field is missing", f"{path}.{name}")
    hints = get_type_hints(cls)
    return _construct(
        cls,
        {key: _load(item, hints[key], f"{path}.{key}") for key, item in data.items()},
        path,
    )


def _dump(value: Any) -> Any:
    """The plain-data form of a spec value: the inverse of :func:`_load`."""
    if isinstance(value, tuple(_UNIONS)) and type(value) not in _KIND_OF:
        raise ScenarioSpecError(
            f"{type(value).__name__} has no dict form (not a registered kind)"
        )
    if dataclasses.is_dataclass(value):
        payload = {
            spec_field.name: _dump(getattr(value, spec_field.name))
            for spec_field in dataclasses.fields(value)
        }
        if type(value) in _KIND_OF:
            payload["kind"] = _KIND_OF[type(value)]
        return payload
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    return value


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Load and strictly validate a scenario spec from a plain dict.

    Optional sections may be omitted (their defaults apply); present
    sections are checked key-by-key against their dataclass, and every
    failure raises :class:`ScenarioSpecError` naming the field path.
    """
    spec = _load(data, ScenarioSpec, "spec")
    if spec.rounds < 1:
        raise ScenarioSpecError("rounds must be a positive integer", "rounds")
    return spec


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """The canonical (every-field) dict form of a spec.

    ``spec_to_dict`` and :func:`spec_from_dict` are exact inverses, and
    ``spec_to_dict`` of a loaded spec is a fixpoint — the property the
    round-trip tests pin.
    """
    return _dump(spec)


def canonical_spec_json(spec: ScenarioSpec) -> str:
    """Deterministic JSON form: sorted keys, compact separators."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
