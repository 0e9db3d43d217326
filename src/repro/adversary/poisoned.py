"""View-poisoned trusted-node injection (§VI-B).

The adversary purchases genuine SGX devices and runs the *unmodified*
RAPTEE enclave on them — so attestation and provisioning succeed and the
nodes hold the real group key.  Before joining the actual network, the
adversary bootstraps them "in a network that contains only Byzantine nodes"
to fill their views (and samplers) with Byzantine identifiers, then releases
them among honest nodes hoping they spread those IDs through trusted
exchanges.

Because the enclave code is genuine, the injected nodes *behave* correctly
from the moment they join; the only adversarial leverage is their initial
state.  This module builds such nodes.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.brahms.config import BrahmsConfig
from repro.core.config import RapteeConfig
from repro.core.deployment import TrustedInfrastructure
from repro.core.node import RapteeNode
from repro.sim.node import NodeKind

__all__ = ["build_poisoned_trusted_node", "poison_initial_state"]


#: Share of the injected node's view that comes from the real network's
#: bootstrap when it joins (§VI-B: the adversary "move[s] these
#: view-poisoned trusted nodes into the actual network" — joining requires
#: contacting the bootstrap, which hands out a few genuine entries; without
#: them the node would only ever talk to Byzantine identities and the
#: attack could never reach a single trusted node).
JOIN_FRACTION = 0.1


def poison_initial_state(
    node: RapteeNode,
    byzantine_ids: Sequence[int],
    rng: random.Random,
    join_ids: Sequence[int] = (),
) -> None:
    """Simulate the Byzantine-only pre-deployment: the node's view and
    sampler stream are saturated with Byzantine identifiers, except for the
    few genuine entries obtained when (re-)joining the real network."""
    if not byzantine_ids:
        raise ValueError("cannot poison without Byzantine identifiers")
    view_size = node.config.view_size
    join_count = min(len(join_ids), max(1, int(round(view_size * JOIN_FRACTION)))) if join_ids else 0
    population = list(byzantine_ids)
    poison_count = view_size - join_count
    if len(population) >= poison_count:
        poisoned_view = rng.sample(population, poison_count)
    else:
        poisoned_view = [rng.choice(population) for _ in range(poison_count)]
    if join_count:
        poisoned_view.extend(rng.sample(list(join_ids), join_count))
    node.seed_view(poisoned_view)
    # The pre-deployment rounds also drove the samplers: everything the
    # node has ever sampled is Byzantine.
    node.samplers.update(poisoned_view)


def build_poisoned_trusted_node(
    node_id: int,
    config: BrahmsConfig,
    raptee_config: RapteeConfig,
    infrastructure: TrustedInfrastructure,
    byzantine_ids: Sequence[int],
    rng: random.Random,
    join_ids: Sequence[int] = (),
) -> RapteeNode:
    """A genuine, provisioned trusted node with an adversarial initial state."""
    enclave, _device = infrastructure.new_trusted_enclave(device_id=node_id)
    node = RapteeNode(
        node_id=node_id,
        kind=NodeKind.POISONED_TRUSTED,
        config=config,
        raptee_config=raptee_config,
        rng=rng,
        enclave=enclave,
    )
    poison_initial_state(node, byzantine_ids, rng, join_ids=join_ids)
    return node
