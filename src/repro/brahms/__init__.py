"""Brahms: Byzantine-resilient random membership sampling (Bortnikov et al.).

The substrate protocol RAPTEE builds on.  See :mod:`repro.brahms.node` for
the round structure and the mapping of the four defense mechanisms to code.
"""

from repro.brahms.config import BrahmsConfig
from repro.brahms.countmin import CountMinSketch, StreamUnbiaser
from repro.brahms.node import BrahmsNode, PulledBatch
from repro.brahms.sampler import Sampler, SamplerGroup

__all__ = [
    "BrahmsConfig",
    "CountMinSketch",
    "StreamUnbiaser",
    "BrahmsNode",
    "PulledBatch",
    "Sampler",
    "SamplerGroup",
]
