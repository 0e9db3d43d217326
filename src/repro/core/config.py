"""RAPTEE configuration: the one declaration of the RAPTEE-only settings."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.eviction import AdaptiveEviction, EvictionPolicy

__all__ = ["RapteeConfig"]


@dataclass(frozen=True)
class RapteeConfig:
    """The RAPTEE-only settings (§IV mechanisms + SGX cost model).

    A RAPTEE node runs a :class:`~repro.brahms.config.BrahmsConfig` plus
    these, and the scenario spec's ``raptee`` section is this class; each
    check's message leads with its field name (the spec loader's
    ``raptee.<field>`` path).

    Attributes:
        eviction: the trusted nodes' Byzantine-eviction policy (§IV-C).
        auth_mode: proof scheme for mutual authentication — "hmac" (fast)
            or "aes-ctr" (the paper's literal construction); see
            :mod:`repro.core.auth`.
        probe_pulls: > 0 makes Byzantine nodes issue that many pull probes
            per round, feeding the identification attack's intelligence.
        trusted_exchange_enabled: ablation switch for the §IV-B half-view
            swap between trusted nodes.
        eviction_enabled: ablation switch for §IV-C (False behaves as a
            permanent 0 % rate).
        sketch_unbias_enabled: the paper's stated future-work extension
            (§VIII, after Anceaume et al.): flatten the pulled-ID stream's
            occurrence bias with a count-min sketch before view renewal.
            See :mod:`repro.brahms.countmin`.
        provisioning_key_bits: each enclave's RSA key size for group-key
            provisioning.
        with_cycle_accounting / cycle_mode: the SGX cycle-cost model of
            :mod:`repro.sgx.cycles` (Table 1).

    Dynamic trusted-set membership is the spec's ``membership`` section,
    not a setting here.
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
            raise ValueError(
                f"eviction must be an EvictionPolicy, got "
                f"{type(self.eviction).__name__}"
            )
        if self.auth_mode not in ("hmac", "aes-ctr"):
            raise ValueError(
                f"auth_mode must be 'hmac' or 'aes-ctr', got {self.auth_mode!r}"
            )
        if self.probe_pulls < 0:
            raise ValueError("probe_pulls must be non-negative")
        if self.provisioning_key_bits < 128:
            raise ValueError("provisioning_key_bits must be at least 128")
        if self.cycle_mode not in ("sgx", "standard"):
            raise ValueError(
                f"cycle_mode must be 'sgx' or 'standard', got {self.cycle_mode!r}"
            )
