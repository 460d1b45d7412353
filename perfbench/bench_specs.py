"""The three network workloads as pure-data ``TopologySpec`` values.

Every scenario the benchmark simulates is a spec, built and run through
``repro.shard.build.build_network`` or ``repro.shard.engine.run_sharded``.
The benchmark seed only chooses inputs: the Pareto seeds of the
best-effort flows (``paper_dumbbell``) or the order in which flows are
installed (``sync_bottleneck``, ``fat_tree_2shard``). Rates, start times
and weights never depend on it.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.net.scenario import fat_tree
from repro.shard.topology import (
    FlowDecl,
    LinkSpec,
    NodeSpec,
    SourceDecl,
    TopologySpec,
)

#: Paper constants (Fig. 8): 16 kb/s weight unit, 10 Mb/s bottleneck,
#: 200-byte packets, SRR quantum of one packet.
WEIGHT_UNIT_BPS = 16_000
BOTTLENECK_BPS = 10_000_000
MTU = 200

#: Simulated seconds one timed run covers, per workload.
DUMBBELL_HORIZON_S = 2.0
SYNC_HORIZON_S = 1.0
FAT_TREE_HORIZON_S = 2.0
#: Background flow count of the synchronised single bottleneck.
SYNC_FLOWS = 600
FAT_TREE_SHARDS = 2
#: Core-link delay of the fat-tree, which is also the shards' lookahead
#: window. On a 2-vCPU virtual machine shared with other tenants, every
#: barrier waits on both vCPUs, and repetition throughput varied with a
#: coefficient of variation of 30% at the generator's default of 2 ms
#: (1000 barriers per simulated second) and ~20% at 10 ms, against 9% at
#: 50 ms (20 barriers per simulated second), measured interleaved.
FAT_TREE_CORE_DELAY_S = 0.050


def _srr_kwargs(op_counter) -> tuple:
    kwargs = [("quantum", MTU)]
    if op_counter is not None:
        kwargs.append(("op_counter", op_counter))
    return tuple(kwargs)


def _cbr(flow_id: str, rate_bps: float) -> SourceDecl:
    return SourceDecl(
        flow_id, "cbr", (("rate_bps", rate_bps), ("packet_size", MTU))
    )


def _permuted(items: Sequence, seed: Optional[int]) -> tuple:
    """``items`` in a seed-chosen order (spec order when ``seed`` is None)."""
    items = list(items)
    if seed is not None:
        random.Random(seed).shuffle(items)
    return tuple(items)


def dumbbell_spec(seed: int, op_counter=None) -> TopologySpec:
    """The paper's Fig. 8 network, as ``dumbbell_network("srr", seed=seed)``.

    SRR on both 10 Mb/s bottleneck directions, FIFO access links; f1 at
    32 kb/s, f2 at 1024 kb/s, 500 background 16 kb/s CBR flows all
    starting at t=0, two Pareto on/off best-effort flows with 400-packet
    queues whose Pareto seeds are ``seed`` and ``seed + 1``.
    """
    hosts = [f"h{i}" for i in range(5)]
    dests = [f"d{i}" for i in range(5)]
    nodes = tuple(NodeSpec(n) for n in hosts + ["R0", "R1", "R2"] + dests)
    srr = _srr_kwargs(op_counter)
    links = (
        [LinkSpec(h, "R0", 100e6, 0.001) for h in hosts]
        + [LinkSpec("R0", "R1", BOTTLENECK_BPS, 0.010, "srr", srr),
           LinkSpec("R1", "R2", BOTTLENECK_BPS, 0.010, "srr", srr)]
        + [LinkSpec("R2", d, 100e6, 0.001) for d in dests]
    )
    n_bg = 500
    flows = (
        [FlowDecl("f1", "h0", "d0", weight=2),
         FlowDecl("f2", "h1", "d1", weight=64)]
        + [FlowDecl(f"bg{i}", "h2", "d2", weight=1) for i in range(n_bg)]
        + [FlowDecl("be1", "h3", "d3", weight=1, max_queue=400),
           FlowDecl("be2", "h4", "d4", weight=1, max_queue=400)]
    )
    pareto = (("peak_rate_bps", 4_000_000), ("packet_size", MTU))
    sources = (
        [_cbr("f1", 32_000), _cbr("f2", 1_024_000)]
        + [SourceDecl(f"bg{i}", "cbr",
                      (("rate_bps", WEIGHT_UNIT_BPS), ("packet_size", MTU),
                       ("start_at", 0.0)))
           for i in range(n_bg)]
        + [SourceDecl("be1", "pareto", pareto + (("seed", seed),)),
           SourceDecl("be2", "pareto", pareto + (("seed", seed + 1),))]
    )
    return TopologySpec(
        name="paper_dumbbell", nodes=nodes, links=tuple(links),
        flows=tuple(flows), sources=tuple(sources),
        default_scheduler="fifo",
    )


def sync_bottleneck_spec(
    seed: Optional[int], op_counter=None
) -> TopologySpec:
    """E4's saturated single bottleneck, ``single_bottleneck_network("srr", 600)``.

    600 background CBR flows at 1.15x their 16 kb/s reservation plus the
    32 kb/s tagged flow, all starting at t=0. ``seed`` permutes the
    install order only (``None`` keeps the builder's order); start times
    stay synchronised.
    """
    nodes = (NodeSpec("src"), NodeSpec("R"), NodeSpec("dst"))
    links = (
        LinkSpec("src", "R", 10 * BOTTLENECK_BPS, 0.0005),
        LinkSpec("R", "dst", BOTTLENECK_BPS, 0.001, "srr",
                 _srr_kwargs(op_counter)),
    )
    pairs = [(FlowDecl("tag", "src", "dst", weight=2), _cbr("tag", 32_000))]
    pairs += [
        (FlowDecl(f"bg{i}", "src", "dst", weight=1),
         _cbr(f"bg{i}", WEIGHT_UNIT_BPS * 1.15))
        for i in range(SYNC_FLOWS)
    ]
    pairs = _permuted(pairs, seed)
    return TopologySpec(
        name="sync_bottleneck", nodes=nodes, links=links,
        flows=tuple(f for f, _ in pairs),
        sources=tuple(s for _, s in pairs),
        default_scheduler="fifo",
    )


def fat_tree_spec(seed: Optional[int]) -> TopologySpec:
    """``fat_tree(k=4, flows_per_host=3, core_delay=0.05)`` with a
    seed-chosen install order.

    Each flow keeps the rate and start offset the generator gave it: the
    generator's assignment is what keeps the spec free of the
    cross-shard timestamp ties sharding must avoid (dealing the same
    (rate, start) pairs out in another order creates one at seed 1).
    """
    base = fat_tree(k=4, flows_per_host=3, core_delay=FAT_TREE_CORE_DELAY_S)
    pairs = _permuted(list(zip(base.flows, base.sources)), seed)
    return TopologySpec(
        name=base.name, nodes=base.nodes, links=base.links,
        flows=tuple(f for f, _ in pairs),
        sources=tuple(s for _, s in pairs),
        default_scheduler=base.default_scheduler,
        default_scheduler_kwargs=base.default_scheduler_kwargs,
    )
