"""The committed conformance catalog: every golden vector's spec, as data.

Each entry is a plain dict in exactly the format
:func:`repro.scenario.spec.spec_from_dict` loads — the catalog *is* the
first consumer of the declarative format, so every load-path regression
shows up here before it can reach an external implementation.

The grid follows the paper's evaluation axes at test scale (§V-B/§VI):
Byzantine fraction f, trusted fraction t, poisoned injections, adversary
strategies, message loss, protocol churn, network/SGX/membership fault
drills, dynamic trusted-set membership, and all three engines (lockstep
rounds; event-driven barrier and continuous with latency, load and
straggler models; the sharded batch engine at five partition counts).
Populations are 40-80 nodes and 6 rounds (one shard entry runs 40, long
enough to reach system discovery) so the whole suite replays in seconds —
pollution *dynamics* at this scale are not the paper's numbers, but their
byte-exact reproducibility is what a conformance vector pins.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.scenario.spec import ScenarioSpec, spec_from_dict

__all__ = ["CATALOG", "catalog_specs", "get_spec"]


def _brahms(name: str, seed: int, *, n_nodes: int = 50, f: float = 0.10,
            rounds: int = 6, **extra: Any) -> Dict[str, Any]:
    topology = {"n_nodes": n_nodes, "byzantine_fraction": f, "view_ratio": 0.10}
    topology.update(extra.pop("topology", {}))
    spec = {
        "name": name,
        "protocol": "brahms",
        "seed": seed,
        "rounds": rounds,
        "topology": topology,
    }
    spec.update(extra)
    return spec


def _raptee(name: str, seed: int, *, n_nodes: int = 40, f: float = 0.10,
            t: float = 0.10, rounds: int = 6, **extra: Any) -> Dict[str, Any]:
    topology = {
        "n_nodes": n_nodes,
        "byzantine_fraction": f,
        "trusted_fraction": t,
        "view_ratio": 0.10,
    }
    topology.update(extra.pop("topology", {}))
    spec = {
        "name": name,
        "protocol": "raptee",
        "seed": seed,
        "rounds": rounds,
        "topology": topology,
    }
    spec.update(extra)
    return spec


_WINDOW_2_4 = {"start": 2, "end": 4}


def _shard(shards: int) -> Dict[str, Any]:
    """The sections every shard-engine entry shares (the balanced adversary
    is the one that engine models); the partition count differs per entry
    because it must not change a byte."""
    return {"adversary_strategy": "balanced",
            "engine": {"kind": "shard", "shards": shards}}


CATALOG: Tuple[Dict[str, Any], ...] = (
    # --- Brahms baseline: the f sweep behind Fig. 3's collapse curve ----
    _brahms("brahms-f05", 101, f=0.05),
    _brahms("brahms-f10", 102, f=0.10),
    _brahms("brahms-f20", 103, f=0.20),
    _brahms("brahms-f30", 104, f=0.30),
    _brahms("brahms-lossy", 105, topology={"loss_rate": 0.05}),
    _brahms("brahms-n80", 106, n_nodes=80, topology={"view_ratio": 0.08}),
    # --- Adversary strategy mixes --------------------------------------
    _brahms("brahms-adversary-balanced", 107, f=0.20,
            adversary_strategy="balanced"),
    # ("targeted" floods a victim list no spec field carries: run_scenario
    # refuses it at `adversary_strategy`, so the catalog covers the two
    # strategies a spec can run.)
    _brahms("brahms-adversary-balanced-f30", 108, f=0.30,
            adversary_strategy="balanced"),
    # --- Protocol churn ------------------------------------------------
    _brahms("brahms-churn-uniform", 109,
            churn={"kind": "uniform", "leave_rate": 0.02, "join_rate": 0.04}),
    _brahms("brahms-churn-leave-only", 110,
            churn={"kind": "uniform", "leave_rate": 0.05, "join_rate": 0.0}),
    _brahms("brahms-churn-catastrophic", 111,
            churn={"kind": "catastrophic", "at_round": 3, "fraction": 0.2}),
    # --- Network fault drills ------------------------------------------
    _brahms("brahms-fault-lossburst", 112,
            faults=[{"kind": "loss-burst", "window": _WINDOW_2_4,
                     "loss_rate": 0.30}]),
    _brahms("brahms-fault-partition", 113,
            faults=[{"kind": "partition", "group_a": [10, 11, 12, 13],
                     "group_b": [20, 21, 22, 23], "window": _WINDOW_2_4}]),
    _brahms("brahms-fault-eclipse", 114,
            faults=[{"kind": "eclipse", "victim": 15,
                     "window": _WINDOW_2_4, "allowed": [16, 17]},
                    # One link drops only what its two ends send each
                    # other: 30 and 27 exchange three messages inside the
                    # window under this seed (30 and 31 none).
                    {"kind": "link", "src": 30, "dst": 27,
                     "window": _WINDOW_2_4, "bidirectional": True}]),
    # --- RAPTEE core grid (§V-B mechanisms) ----------------------------
    _raptee("raptee-t10", 201),
    _raptee("raptee-t20", 202, t=0.20),
    _raptee("raptee-f20-t20", 203, f=0.20, t=0.20),
    _raptee("raptee-fixed-eviction", 204,
            raptee={"eviction": {"kind": "fixed", "value": 0.6}}),
    _raptee("raptee-encrypted-aes", 205,
            topology={"transport_encryption": True},
            raptee={"auth_mode": "aes-ctr"}),
    _raptee("raptee-poisoned-probes", 206,
            topology={"poisoned_fraction": 0.05},
            raptee={"probe_pulls": 2}),
    _raptee("raptee-unbias-cycles-sgx", 207,
            raptee={"sketch_unbias_enabled": True,
                    "with_cycle_accounting": True, "cycle_mode": "sgx"}),
    _raptee("raptee-cycles-standard", 208,
            raptee={"with_cycle_accounting": True, "cycle_mode": "standard"}),
    _raptee("raptee-churn-uniform", 209,
            churn={"kind": "uniform", "leave_rate": 0.02, "join_rate": 0.03}),
    # --- SGX fault drills ----------------------------------------------
    _raptee("raptee-fault-crash", 210,
            faults=[{"kind": "crash-restart", "node_id": 5, "at_round": 2,
                     "down_rounds": 2}]),
    # (The crash with a corrupted backup is what sends a request into the
    # outage and the flaky window; without it neither ever meets one.)
    _raptee("raptee-fault-attestation", 211,
            faults=[{"kind": "attestation-outage", "window": _WINDOW_2_4},
                    {"kind": "provisioning-flakiness", "window": _WINDOW_2_4,
                     "failure_rate": 0.5},
                    {"kind": "enclave-crash", "node_id": 5, "at_round": 2},
                    {"kind": "sealed-blob-corruption", "node_id": 5,
                     "at_round": 2}]),
    _raptee("raptee-fault-enclave", 212,
            faults=[{"kind": "enclave-crash", "node_id": 5, "at_round": 2},
                    {"kind": "sealed-blob-corruption", "node_id": 6,
                     "at_round": 3}]),
    # --- Dynamic trusted-set membership (ReplicaTEE-style) -------------
    _raptee("raptee-membership-static", 213, t=0.15,
            membership={"replica_count": 3}),
    # (Rates are per-round probabilities of one join / one leave: high
    # enough that both, and a leave-triggered re-key, happen in 6 rounds.)
    _raptee("raptee-membership-churn", 214, t=0.15,
            membership={"replica_count": 3, "join_rate": 0.5,
                        "leave_rate": 0.4}),
    _raptee("raptee-membership-rotation", 215, t=0.15,
            membership={"replica_count": 3},
            faults=[{"kind": "epoch-rotation", "at_round": 3,
                     "reason": "drill"}]),
    _raptee("raptee-membership-revocation", 216, t=0.15,
            membership={"replica_count": 3},
            faults=[{"kind": "revocation-storm", "node_ids": [4, 5],
                     "at_round": 3},
                    {"kind": "provisioner-replica-crash", "replica_id": 1,
                     "at_round": 2, "down_rounds": 2}]),
    _raptee("raptee-membership-device-revocation", 217, t=0.15,
            membership={"replica_count": 3},
            faults=[{"kind": "device-revocation", "node_id": 4,
                     "at_round": 2}]),
    # --- Event-driven engine -------------------------------------------
    _brahms("events-barrier-brahms", 301,
            engine={"kind": "events", "mode": "barrier"}),
    _brahms("events-latency-brahms", 302,
            engine={"kind": "events", "mode": "continuous",
                    "latency": "lognormal:40:0.6"}),
    _raptee("events-load-raptee", 303,
            engine={"kind": "events", "mode": "continuous",
                    "latency": "constant:20", "load": "10:30"}),
    _raptee("events-straggler-raptee", 304,
            engine={"kind": "events", "mode": "continuous",
                    "latency": "uniform:10:50", "straggler": "0.1:4"}),
    _raptee("events-faults-raptee", 305,
            engine={"kind": "events", "mode": "continuous",
                    "latency": "lognormal:30:0.5"},
            faults=[{"kind": "loss-burst", "window": _WINDOW_2_4,
                     "loss_rate": 0.25}]),
    # --- Sharded batch engine ------------------------------------------
    # (40 rounds: discovery is reached in round 36, so one shard vector
    # pins a discovery_round that is not the -1 sentinel.)
    _brahms("shard-brahms", 401, rounds=40, **_shard(1)),
    _raptee("shard-raptee-fixed-eviction", 402, t=0.20,
            raptee={"eviction": {"kind": "fixed", "value": 0.6}}, **_shard(2)),
    _raptee("shard-raptee-adaptive-eviction", 403, t=0.20,
            raptee={"eviction": {"kind": "adaptive"}}, **_shard(3)),
    # (Base loss_rate 0: every lost message is the burst's.)
    _brahms("shard-fault-lossburst", 404,
            faults=[{"kind": "loss-burst", "window": _WINDOW_2_4,
                     "loss_rate": 0.30}], **_shard(4)),
    _raptee("shard-fault-crash", 405, t=0.20,
            faults=[{"kind": "crash-restart", "node_id": 5, "at_round": 2,
                     "down_rounds": 2}], **_shard(5)),
)


def catalog_specs() -> List[ScenarioSpec]:
    """Load (and thereby validate) every catalog entry."""
    return [spec_from_dict(entry) for entry in CATALOG]


def get_spec(name: str) -> ScenarioSpec:
    """Load one catalog entry by scenario name."""
    for entry in CATALOG:
        if entry["name"] == name:
            return spec_from_dict(entry)
    raise KeyError(f"no catalog scenario named {name!r}")
