"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.brahms.config import BrahmsConfig
from repro.core.config import RapteeConfig
from repro.core.deployment import TrustedInfrastructure
from repro.crypto.prng import Sha256Prng


@pytest.fixture
def rng() -> random.Random:
    """A fast deterministic RNG for protocol-level randomness."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def prng() -> Sha256Prng:
    """The deterministic SHA-256 PRNG for key material."""
    return Sha256Prng(0xC0FFEE)


@pytest.fixture
def small_brahms_config() -> BrahmsConfig:
    return BrahmsConfig(view_size=10, sample_size=5)


@pytest.fixture
def small_raptee_config() -> RapteeConfig:
    return RapteeConfig()


@pytest.fixture
def infrastructure(prng) -> TrustedInfrastructure:
    """A trusted computing base with fast (384-bit) provisioning keys."""
    return TrustedInfrastructure(prng.spawn("tcb"), provisioning_key_bits=384)
