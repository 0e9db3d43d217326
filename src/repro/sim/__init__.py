"""Round-based distributed-system simulator.

Substrate replacing the paper's Grid'5000 deployment: a deterministic,
seeded, round-synchronous engine with message transport (loss, optional
encryption), bootstrap, churn models, and the per-round record.
"""

from repro.sim.bootstrap import UniformBootstrap
from repro.sim.churn import (
    CatastrophicFailure,
    ChurnEvent,
    ChurnModel,
    UniformChurn,
)
from repro.sim.engine import FaultController, Observer, RoundContext, Simulation
from repro.sim.messages import (
    AuthChallenge,
    AuthConfirm,
    AuthResponse,
    AuthResult,
    Message,
    PullReply,
    PullRequest,
    Push,
    TrustedSwapReply,
    TrustedSwapRequest,
)
from repro.sim.network import Network, NetworkStats
from repro.sim.node import NodeBase, NodeKind
from repro.sim.observers import RoundRecord, RoundRecorder

__all__ = [
    "UniformBootstrap",
    "CatastrophicFailure",
    "ChurnEvent",
    "ChurnModel",
    "UniformChurn",
    "FaultController",
    "Observer",
    "RoundContext",
    "Simulation",
    "AuthChallenge",
    "AuthConfirm",
    "AuthResponse",
    "AuthResult",
    "Message",
    "PullReply",
    "PullRequest",
    "Push",
    "TrustedSwapReply",
    "TrustedSwapRequest",
    "Network",
    "NetworkStats",
    "NodeBase",
    "NodeKind",
    "RoundRecord",
    "RoundRecorder",
]
