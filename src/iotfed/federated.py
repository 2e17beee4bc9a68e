"""Federated averaging over the router tree, and the rounds that train and average.

Aggregation follows the hierarchical collection protocol: leaf routers
push weights to their parent router, parents sum the weights of their
subtree and forward the sum to the coordinator, which divides by the
number of clients and redistributes the global model down the tree.
The result equals the flat element-wise mean of all client weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .autoencoder import AdamState, ModelWeights, ShapeMismatch, TrainConfig, save_weights, train
from .nodes import C, NodeId, Role, Topology


class EmptyRoster(ValueError):
    """Aggregation requested with no client updates."""


class MissingUpdate(KeyError):
    """A roster router supplied no weights for the round."""


@dataclass(frozen=True)
class CommsRecord:
    round: int
    sender: NodeId
    receiver: NodeId
    bytes: int


def _check_one_architecture(updates: Sequence[ModelWeights]) -> None:
    archs = {(u.dims, u.activations) for u in updates}
    if len(archs) > 1:
        raise ShapeMismatch(f"mixed architectures {sorted(archs)}")


def router_tree(tree: Topology, roster: Sequence[NodeId]) -> dict[NodeId, NodeId]:
    """Parent map over the roster: each router's next hop if that is a roster
    router, otherwise C."""
    return {r: tree[r] if tree.get(r) in roster else C for r in roster}


def hierarchical_round(tree: Topology, locals_: Mapping[NodeId, ModelWeights],
                       dtype=np.float32) -> ModelWeights:
    """Aggregate one round over the router tree; equals the flat mean.

    ``dtype`` controls accumulation width. Each router adds its children's
    subtree sums to its own weights, in router index order, and the
    coordinator adds the top-level sums in that order. A parent map in
    which some router never reaches the coordinator raises ValueError.
    """
    roster = sorted(locals_, key=NodeId.sort_key)
    if not roster:
        raise EmptyRoster("no local updates")
    parents = router_tree(tree, roster)
    for router in roster:
        if locals_[router] is None:
            raise MissingUpdate(str(router))
    _check_one_architecture([locals_[r] for r in roster])

    children = {r: [c for c in roster if parents[c] == r] for r in roster}
    top_level = [r for r in roster if parents[r] not in children]
    reached = list(top_level)
    for router in reached:  # extended while iterated: breadth first down the tree
        reached += children[router]
    stranded = [str(r) for r in roster if r not in reached]
    if stranded:
        raise ValueError(f"routers {', '.join(stranded)} never reach the coordinator")

    def subtree(router: NodeId) -> np.ndarray:
        return sum(map(subtree, children[router]), locals_[router].params.astype(dtype))

    total = sum(map(subtree, top_level[1:]), subtree(top_level[0]))
    template = locals_[roster[0]]
    return ModelWeights((total / len(roster)).astype(dtype), template.dims, template.activations)


@dataclass
class FederatedResult:
    final_global: ModelWeights
    per_round_globals: list[ModelWeights]
    ledger: list[CommsRecord]


def run_federated_training(local_cfg: TrainConfig, pretrained: ModelWeights,
                           streams: Mapping[NodeId, Sequence[np.ndarray]],
                           tree: Topology) -> FederatedResult:
    """Round-based federated training over per-router feature streams.

    The clients are the routers ``streams`` names, in its order, and
    ``streams[r][k]`` is the matrix of windows arriving at router ``r``
    between rounds ``k`` and ``k+1``: there are as many rounds as each
    list has matrices. Every round starts from the last global model (the
    first from ``pretrained``) and trains all clients in one ``train`` call,
    so the clients of a round must bring equally many rows, at least one.
    Adam state persists locally across rounds; only weights are averaged.
    The comms ledger accounts weight payload bytes on the coordinator legs
    (one uplink and one downlink per client per round).
    """
    roster = list(streams)
    if not roster:
        raise EmptyRoster("no client streams")
    rounds = max(len(chunks) for chunks in streams.values())
    for router in roster:
        if router.role is not Role.ROUTER:
            raise ValueError(f"client {router} is not a router")
        if len(streams[router]) != rounds:
            raise MissingUpdate(f"{router} has data for {len(streams[router])} "
                                f"of {rounds} rounds")
    for rnd, parts in enumerate(zip(*streams.values()), start=1):
        rows = {len(part) for part in parts}
        if len(rows) > 1 or 0 in rows:
            raise ShapeMismatch(f"round {rnd} brings {sorted(rows)} rows per client; "
                                "one stacked round needs equal counts, at least one row")
    payload = len(save_weights(pretrained))

    global_model = pretrained
    states: list[AdamState | None] = [None] * len(roster)
    per_round: list[ModelWeights] = []
    ledger: list[CommsRecord] = []

    for rnd, parts in enumerate(zip(*streams.values()), start=1):
        results = train(global_model, list(parts), local_cfg, adam_state=states)
        states = [result.adam_state for result in results]
        global_model = hierarchical_round(
            tree, {r: result.weights for r, result in zip(roster, results)})
        per_round.append(global_model)
        for router in roster:
            ledger.append(CommsRecord(rnd, router, C, payload))
        for router in roster:
            ledger.append(CommsRecord(rnd, C, router, payload))

    return FederatedResult(global_model, per_round, ledger)
