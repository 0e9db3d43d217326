"""The fast-path switch: one process-wide flag, adopted by default.

``repro.perf`` accelerates hot paths (AES T-tables, cached key schedules,
reused transport ciphers, numpy sketch kernels) under a single invariant:
**fast-path-on and fast-path-off runs are byte-identical** — same seeds
produce the same traces, views and figure metrics either way (proven by
``tests/test_perf_differential.py``).  Because equivalence is guaranteed,
the fast paths are *enabled by default* rather than hidden behind an
opt-in; the flag exists so the differential suite (and
``examples/full_scale.py --reference``) can reproduce the unaccelerated
reference behaviour on demand.

The flag is deliberately a plain module-level state object, not an
environment variable or config file: reading it is one attribute access on
hot paths, and worker processes (``repeat(workers=N)``) inherit the default
state, which keeps parallel sweeps consistent with serial ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "fastpaths_enabled",
    "set_fastpaths",
    "fastpaths",
    "resolve_use_numpy",
]


class _FastPathState:
    """Mutable holder so hot paths can cache a reference to the object."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


#: The shared state; hot paths may hold this object and read ``.enabled``.
STATE = _FastPathState()


def fastpaths_enabled() -> bool:
    """Whether the equivalence-proven fast paths are active (default True)."""
    return STATE.enabled


def set_fastpaths(enabled: bool) -> bool:
    """Set the process-wide fast-path flag; returns the previous value."""
    previous = STATE.enabled
    STATE.enabled = bool(enabled)
    return previous


@contextmanager
def fastpaths(enabled: bool) -> Iterator[None]:
    """Scoped override, used by the differential tests to run the same
    scenario in both modes."""
    previous = set_fastpaths(enabled)
    try:
        yield
    finally:
        set_fastpaths(previous)


def resolve_use_numpy(use_numpy: Optional[bool], have_numpy: bool) -> bool:
    """Resolve a ``use_numpy`` constructor flag.

    ``None`` (the default everywhere) means "numpy if it is installed and
    fast paths are on"; an explicit ``True`` demands numpy and raises when
    it is absent, so a caller pinning the kernel path fails loudly instead
    of silently measuring the wrong implementation.
    """
    if use_numpy is None:
        return have_numpy and STATE.enabled
    if use_numpy and not have_numpy:
        raise RuntimeError(
            "use_numpy=True requested but numpy is not installed; "
            "install numpy or pass use_numpy=None/False"
        )
    return bool(use_numpy)
