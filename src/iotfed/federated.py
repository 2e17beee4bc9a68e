"""Federated averaging over the router tree, plus transfer initialization.

Aggregation follows the hierarchical collection protocol: leaf routers
push weights to their parent router, parents accumulate (sum, count) for
their subtree and forward the totals to the coordinator, which divides
by the total count and redistributes the global model down the tree.
The result equals the flat element-wise mean of all client weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .autoencoder import (
    AdamState,
    Layer,
    ModelWeights,
    ShapeMismatch,
    TrainConfig,
    save_weights,
    train,
)
from .nodes import C, NodeId, Role, Topology


class EmptyRoster(ValueError):
    """Aggregation requested with no client updates."""


class MissingUpdate(KeyError):
    """A roster router supplied no weights for the round."""


@dataclass(frozen=True)
class FLConfig:
    local_train: TrainConfig
    rounds: int = 5
    client_roster: tuple[NodeId, ...] = ()

    def validate(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.client_roster:
            raise EmptyRoster("client roster is empty")


@dataclass(frozen=True)
class CommsRecord:
    round: int
    sender: NodeId
    receiver: NodeId
    bytes: int


def _check_tags(updates: Sequence[ModelWeights]) -> None:
    tags = {u.arch_tag for u in updates}
    if len(tags) > 1:
        raise ShapeMismatch(f"mixed architecture tags {sorted(tags)}")


def _sum_weights(updates: Sequence[ModelWeights], dtype) -> list[list[np.ndarray]]:
    acc = [[layer.weight.astype(dtype), layer.bias.astype(dtype)]
           for layer in updates[0].layers]
    for update in updates[1:]:
        for slot, layer in zip(acc, update.layers):
            slot[0] = slot[0] + layer.weight.astype(dtype)
            slot[1] = slot[1] + layer.bias.astype(dtype)
    return acc


def _mean_from_sum(template: ModelWeights, acc, count: int, dtype) -> ModelWeights:
    layers = tuple(
        Layer((w / count).astype(dtype), (b / count).astype(dtype), layer.activation)
        for (w, b), layer in zip(acc, template.layers))
    return ModelWeights(layers, template.arch_tag)


def fedavg(updates: Sequence[ModelWeights], dtype=np.float32) -> ModelWeights:
    """Unweighted element-wise mean of client weights, in client order."""
    if not updates:
        raise EmptyRoster("fedavg needs at least one update")
    _check_tags(updates)
    acc = _sum_weights(updates, dtype)
    return _mean_from_sum(updates[0], acc, len(updates), dtype)


def router_tree(tree: Topology | Mapping[NodeId, NodeId],
                roster: Sequence[NodeId]) -> dict[NodeId, NodeId]:
    """Parent map over the roster: each router's parent router, or C.

    When given a topology, a router's parent is its baseline destination
    if that destination is itself a roster router, otherwise C.
    """
    if isinstance(tree, Topology):
        roster_set = set(roster)
        return {r: (tree.normal_dest[r] if tree.normal_dest.get(r) in roster_set else C)
                for r in roster}
    return {r: tree[r] for r in roster}


def hierarchical_round(tree: Topology | Mapping[NodeId, NodeId],
                       locals_: Mapping[NodeId, ModelWeights],
                       dtype=np.float32) -> ModelWeights:
    """Aggregate one round over the router tree; equals the flat mean.

    ``dtype`` controls accumulation width; child subtrees are summed in
    router index order for reproducibility.
    """
    roster = sorted(locals_, key=NodeId.sort_key)
    if not roster:
        raise EmptyRoster("no local updates")
    parents = router_tree(tree, roster)
    for router in roster:
        if router not in locals_ or locals_[router] is None:
            raise MissingUpdate(str(router))
    _check_tags([locals_[r] for r in roster])

    children: dict[NodeId, list[NodeId]] = {r: [] for r in roster}
    top_level: list[NodeId] = []
    for router in roster:
        parent = parents[router]
        if parent in children:
            children[parent].append(router)
        else:
            top_level.append(router)

    def subtree(router: NodeId) -> tuple[list[list[np.ndarray]], int]:
        acc = _sum_weights([locals_[router]], dtype)
        count = 1
        for child in children[router]:
            child_acc, child_count = subtree(child)
            for slot, (cw, cb) in zip(acc, child_acc):
                slot[0] = slot[0] + cw
                slot[1] = slot[1] + cb
            count += child_count
        return acc, count

    total_acc = None
    total_count = 0
    for router in top_level:
        acc, count = subtree(router)
        if total_acc is None:
            total_acc = acc
        else:
            for slot, (w, b) in zip(total_acc, acc):
                slot[0] = slot[0] + w
                slot[1] = slot[1] + b
        total_count += count
    template = locals_[roster[0]]
    return _mean_from_sum(template, total_acc, total_count, dtype)


def transfer_init(pretrained: ModelWeights) -> ModelWeights:
    """Deep copy of the pretrained weights for a client's first round."""
    layers = tuple(Layer(l.weight.copy(), l.bias.copy(), l.activation)
                   for l in pretrained.layers)
    return ModelWeights(layers, pretrained.arch_tag)


@dataclass
class FederatedResult:
    final_global: ModelWeights
    per_round_globals: list[ModelWeights]
    ledger: list[CommsRecord]


def run_federated_training(cfg: FLConfig, pretrained: ModelWeights,
                           streams: Mapping[NodeId, Sequence[np.ndarray]],
                           tree: Topology | Mapping[NodeId, NodeId]) -> FederatedResult:
    """Round-based federated training over per-router feature streams.

    ``streams[r][k]`` is the matrix of windows arriving at router ``r``
    between rounds ``k`` and ``k+1``. Adam state persists locally across
    rounds; only weights are averaged. The comms ledger accounts weight
    payload bytes on the coordinator legs (one uplink and one downlink per
    client per round).
    """
    cfg.validate()
    roster = list(cfg.client_roster)
    for router in roster:
        if router not in streams:
            raise MissingUpdate(str(router))
        if router.role is not Role.ROUTER:
            raise ValueError(f"client {router} is not a router")
    payload = len(save_weights(pretrained))

    global_model = transfer_init(pretrained)
    states: dict[NodeId, AdamState | None] = {r: None for r in roster}
    per_round: list[ModelWeights] = []
    ledger: list[CommsRecord] = []

    for rnd in range(1, cfg.rounds + 1):
        locals_: dict[NodeId, ModelWeights] = {}
        for router in roster:
            data = streams[router][rnd - 1] if rnd - 1 < len(streams[router]) else None
            if data is not None and len(data) > 0:
                result = train(transfer_init(global_model), data,
                               cfg.local_train, adam_state=states[router])
                states[router] = result.adam_state
                locals_[router] = result.weights
            else:
                locals_[router] = transfer_init(global_model)
        global_model = hierarchical_round(tree, locals_)
        per_round.append(global_model)
        for router in roster:
            ledger.append(CommsRecord(rnd, router, C, payload))
        for router in roster:
            ledger.append(CommsRecord(rnd, C, router, payload))

    return FederatedResult(global_model, per_round, ledger)
