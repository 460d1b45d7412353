"""The four workloads: untraced end-to-end runs and traced breakdowns.

Untraced (``--trace 0``): repeat the workload's unit of work until the
measuring time is spent, verify every repetition's outputs, and report
medians. Traced (``--trace 1``): alternate one untraced and one traced
repetition of the same inputs, and report the traced layer breakdown;
the untraced twin supplies the tracing overhead and the counts the
program keeps itself.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import bench_specs as specs
from bench_checks import (
    DEFAULT_SEED,
    CheckLog,
    check_conservation,
    check_digest,
    load_expected,
)
from bench_calib import Calibrator
from bench_trace import Tracer, instrument
from repro.conformance import cli as conformance_cli
from repro.conformance.runner import VARIANTS
from repro.core.opcount import OpCounter
from repro.schedulers import create_scheduler
from repro.shard import build as shard_build
from repro.shard import engine as shard_engine
from repro.shard.digest import network_delivery_digest
from repro.shard.partition import partition_topology

clock = time.perf_counter

#: Fewest repetitions a run makes, however long each one takes.
MIN_REPS = 3
#: Slices of simulated time a network repetition is timed in.
SLICES = 40
#: The fuzz seeds every conformance_fuzz run checks, in an order the
#: workload seed permutes. Fuzz seeds differ in cost by 15x, so a fixed
#: set keeps the work of a pass the same from run to run.
FUZZ_BANK = tuple(range(1, 25))

Metrics = Dict[str, Tuple[float, str]]

NETWORKS: Dict[str, Tuple[Callable, float]] = {
    "paper_dumbbell": (specs.dumbbell_spec, specs.DUMBBELL_HORIZON_S),
    "sync_bottleneck": (specs.sync_bottleneck_spec, specs.SYNC_HORIZON_S),
}
WORKLOADS = ("paper_dumbbell", "sync_bottleneck", "fat_tree_2shard",
             "conformance_fuzz")


class Outcome:
    """What one benchmark run reports."""

    def __init__(self) -> None:
        self.log = CheckLog()
        self.metrics: Metrics = {}
        #: Workload descriptors and run details (printed, not judged).
        self.record: Dict[str, object] = {}


def _peak_rss_mb(child_processes: int = 0) -> float:
    """This process's peak RSS plus ``child_processes`` times the
    largest child's peak (an upper bound on their sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child_processes * child) / 1024.0


def _expected(workload: str, seed: int) -> Optional[str]:
    if seed != DEFAULT_SEED:
        return None
    return load_expected().get(workload)


def _best_case(rows: List[List[float]]) -> float:
    """A repetition's time with each of its timed parts (the same parts
    in every repetition) at its fastest over the repetitions."""
    return sum(min(part) for part in zip(*rows))


def _end_to_end(out: Outcome, calibrator: Calibrator, pps: float,
                checks_per_s: float, setup: List[float], repetitions: int,
                children: int = 0) -> None:
    """Rates and the median set-up time, scaled to the reference machine
    speed; the unscaled values go to the record."""
    speed = calibrator.speed
    setup_s = statistics.median(setup)
    out.metrics.update({
        "delivered_pps": (pps / speed, "pkt/s"),
        "checks_per_s": (checks_per_s / speed, "checks/s"),
        "setup_s": (setup_s * speed, "s"),
        "peak_rss_mb": (_peak_rss_mb(children), "MB"),
    })
    out.record.update({
        "repetitions": repetitions,
        "raw": {"delivered_pps": pps, "checks_per_s": checks_per_s,
                "setup_s": setup_s},
        "machine_speed": speed,
        "calibration_samples": len(calibrator.samples),
    })


# ---------------------------------------------------------------------------
# Network workloads (single process)
# ---------------------------------------------------------------------------


def _program_counts(net) -> Dict[str, float]:
    """Counts the program keeps itself, read after a run."""
    stats = net.sim.stats()
    ports = [p for node in net.nodes.values() for p in node.ports.values()]
    return {
        "events": stats["events_processed"],
        "max_depth": stats["max_heap_depth"],
        "resizes": stats.get("queue_resizes", 0),
        "port.tx": sum(p.packets_out for p in ports),
        "port.drops": sum(p.drops for p in ports),
        "node.forward": sum(n.packets_forwarded for n in net.nodes.values()),
        "sources.emit": sum(
            s.packets_emitted for f in net.flows.values() for s in f.sources
        ),
        "delivered": net.sinks.total_packets,
    }


def _network_rep(spec, horizon: float, log: CheckLog, what: str,
                 expected: Optional[str],
                 calibrator: Optional[Calibrator] = None):
    """Build one repetition, run it in ``SLICES`` slices of simulated
    time, and verify it. Returns the times of the build, of each slice
    and of the verification, the digest and the counts."""
    gc.collect()
    t0 = clock()
    net = shard_build.build_network(spec)
    times = [clock() - t0]
    for k in range(1, SLICES + 1):
        if calibrator is not None:
            calibrator.tick()
        t0 = clock()
        net.run(until=horizon * k / SLICES)
        times.append(clock() - t0)
    t0 = clock()
    totals = check_conservation(net, log)
    digest = network_delivery_digest(net)
    check_digest(log, what, digest, expected)
    times.append(clock() - t0)
    counts = _program_counts(net)
    counts.update(totals)
    return times, digest, counts


def _describe_network(out: Outcome, spec, counts: Dict[str, float]) -> None:
    delivered = max(counts["delivered"], 1)
    out.record.update({
        "flows": len(spec.flows),
        "hops_per_pkt": counts["hop_deliveries"] / delivered,
        "events_per_pkt": counts["events"] / delivered,
        "drops": counts["port.drops"],
        "delivered_per_rep": counts["delivered"],
        "queue_resizes": counts["resizes"],
    })


def run_network(workload: str, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    make, horizon = NETWORKS[workload]
    spec = make(seed)
    expected = _expected(workload, seed)
    what = f"{workload} seed {seed}"
    rows: List[List[float]] = []
    first: Optional[str] = None
    calibrator = Calibrator()
    loop0 = clock()
    while len(rows) < MIN_REPS or clock() - loop0 < seconds:
        times, digest, counts = _network_rep(
            spec, horizon, out.log, what, expected, calibrator
        )
        if first is None:
            first = digest
        out.log.check(digest == first, f"{what}: repetitions disagree")
        rows.append(times)
    # Every repetition makes the same checks and delivers the same count.
    _end_to_end(
        out, calibrator,
        pps=counts["delivered"] / _best_case([r[1:-1] for r in rows]),
        checks_per_s=out.log.attempted / len(rows) / _best_case(rows),
        setup=[r[0] for r in rows], repetitions=len(rows),
    )
    _describe_network(out, spec, counts)
    return out


def trace_network(workload: str, seed: int, seconds: float,
                  spans_path: Path) -> Outcome:
    out = Outcome()
    make, horizon = NETWORKS[workload]
    spec = make(seed)
    what = f"{workload} seed {seed}"
    rows: List[Metrics] = []
    loop0 = clock()
    while not rows or clock() - loop0 < seconds:
        times, digest, counts = _network_rep(
            spec, horizon, out.log, what, _expected(workload, seed)
        )
        ops = OpCounter()
        traced_spec = make(seed, op_counter=ops)
        tracer = Tracer()
        instrument(tracer)
        try:
            gc.collect()
            t0 = clock()
            tracer.wrap(shard_build, "build_network", "build",
                        "build.network")
            net = shard_build.build_network(traced_spec)
            net.run(until=horizon)
            wall = clock() - t0
        finally:
            tracer.restore()
        out.log.check(network_delivery_digest(net) == digest,
                      f"{what}: tracing changed the deliveries")
        _check_counts(out.log, tracer, counts)
        row = layer_metrics(tracer, wall, sum(times[:-1]), counts)
        srr_dequeues = tracer.counters["sched.srr_dequeue"]
        row["sched.ops_per_dequeue"] = (
            ops.count / srr_dequeues if srr_dequeues else 0.0, "ops")
        row["workload.flows"] = (len(spec.flows), "count")
        row["workload.hops_per_pkt"] = (
            counts["hop_deliveries"] / max(counts["delivered"], 1), "hops")
        rows.append(row)
        del net
    out.metrics = _median_rows(rows)
    _describe_network(out, spec, counts)
    out.record["eventq_tie_share"] = out.metrics["eventq.tie_share"][0]
    out.record["traced_repetitions"] = len(rows)
    tracer.write_spans(spans_path)
    return out


def _check_counts(log: CheckLog, tracer: Tracer,
                  counts: Dict[str, float]) -> None:
    """Wrapper counts must equal the counts the program keeps."""
    calls = tracer.calls
    for kind, key in (("port.tx", "port.tx"), ("node.forward", "node.forward"),
                      ("sources.emit", "sources.emit"),
                      ("sinks.record", "delivered")):
        log.check(calls[kind] == counts[key],
                  f"traced {kind} calls {calls[kind]} != program count "
                  f"{counts[key]}")
    log.check(tracer.callbacks == counts["events"],
              f"traced callbacks {tracer.callbacks} != events "
              f"{counts['events']}")


# ---------------------------------------------------------------------------
# fat_tree_2shard
# ---------------------------------------------------------------------------


def _fat_tree_reference(spec, seed: int, log: CheckLog):
    """The single-process run every sharded run must reproduce."""
    net = shard_build.build_network(spec)
    net.run(until=specs.FAT_TREE_HORIZON_S)
    totals = check_conservation(net, log)
    digest = network_delivery_digest(net)
    check_digest(log, f"fat_tree_2shard seed {seed} (1 shard)", digest,
                 _expected("fat_tree_2shard", seed))
    counts = _program_counts(net)
    counts.update(totals)
    return digest, counts


def _sharded(spec, until: float):
    t0 = clock()
    result = shard_engine.run_sharded(
        spec, until=until, shards=specs.FAT_TREE_SHARDS
    )
    return result, clock() - t0


def _check_sharded(log: CheckLog, result, digest: str, counts,
                   seed: int) -> None:
    what = f"fat_tree_2shard seed {seed}"
    log.check(result.digest == digest,
              f"{what}: 2-shard digest differs from 1 shard")
    log.check(result.delivered_packets == counts["delivered"],
              f"{what}: 2-shard delivered {result.delivered_packets} != "
              f"{counts['delivered']}")


def _describe_fat_tree(out: Outcome, spec, counts, result) -> None:
    delivered = max(counts["delivered"], 1)
    out.record.update({
        "flows": len(spec.flows),
        "hops_per_pkt": counts["hop_deliveries"] / delivered,
        "events_per_pkt": result.events / delivered,
        "drops": counts["port.drops"],
        "boundary_packets": result.boundary_packets,
        "windows": result.windows,
    })


def run_fat_tree(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    spec = specs.fat_tree_spec(seed)
    digest, counts = _fat_tree_reference(spec, seed, out.log)
    one_window = partition_topology(spec, specs.FAT_TREE_SHARDS).lookahead
    setup: List[float] = []
    pps: List[float] = []
    rates: List[float] = []
    calibrator = Calibrator()
    loop0 = clock()
    while len(pps) < MIN_REPS or clock() - loop0 < seconds:
        calibrator.tick()
        gc.collect()
        rep0, checked = clock(), out.log.attempted
        setup.append(_sharded(spec, one_window)[1])
        result, wall = _sharded(spec, specs.FAT_TREE_HORIZON_S)
        pps.append(result.delivered_packets / wall)
        _check_sharded(out.log, result, digest, counts, seed)
        rates.append((out.log.attempted - checked) / (clock() - rep0))
    _end_to_end(out, calibrator, statistics.median(pps),
                statistics.median(rates), setup, len(pps),
                children=specs.FAT_TREE_SHARDS)
    _describe_fat_tree(out, spec, counts, result)
    return out


def _instrument_coordinator(tracer: Tracer) -> None:
    """Spans on the coordinator side of a sharded run."""
    from multiprocessing import connection, process

    tracer.wrap(shard_engine, "run_sharded", "shard", "shard.run")
    tracer.wrap(shard_engine, "partition_topology", "shard",
                "shard.partition")
    for cls in connection.Connection.__mro__:
        tracer.wrap(cls, "send", "shard", "shard.send")
        tracer.wrap(cls, "recv", "shard", "shard.recv")
    tracer.wrap(connection, "wait", "shard", "shard.wait")
    tracer.wrap(process.BaseProcess, "start", "shard", "shard.spawn")
    tracer.wrap(process.BaseProcess, "join", "shard", "shard.join")


def trace_fat_tree(seed: int, seconds: float, spans_path: Path) -> Outcome:
    out = Outcome()
    spec = specs.fat_tree_spec(seed)
    digest, counts = _fat_tree_reference(spec, seed, out.log)
    rows: List[Metrics] = []
    loop0 = clock()
    while not rows or clock() - loop0 < seconds:
        gc.collect()
        result, untraced = _sharded(spec, specs.FAT_TREE_HORIZON_S)
        _check_sharded(out.log, result, digest, counts, seed)
        tracer = Tracer()
        _instrument_coordinator(tracer)
        try:
            gc.collect()
            result, wall = _sharded(spec, specs.FAT_TREE_HORIZON_S)
        finally:
            tracer.restore()
        _check_sharded(out.log, result, digest, counts, seed)
        row = layer_metrics(tracer, wall, untraced, {})
        compute = [s["engine"]["sim_wall_time_s"] for s in result.shard_stats]
        incl = tracer.incl_s
        row.update({
            "engine.events": (result.events, "count"),
            "engine.events_per_pkt": (
                result.events / max(result.delivered_packets, 1), "ratio"),
            "shard.compute_s": (max(compute), "s"),
            "shard.coord_s": (wall - max(compute), "s"),
            "shard.imbalance": (
                max(compute) / statistics.mean(compute), "ratio"),
            "shard.windows": (result.windows, "count"),
            "shard.null_ratio": (result.null_ratio, "ratio"),
            "shard.boundary_packets": (result.boundary_packets, "count"),
            "shard.spawn_s": (incl["shard.spawn"], "s"),
            "shard.wait_s": (incl["shard.wait"], "s"),
            "shard.pickle_s": (incl["shard.send"] + incl["shard.recv"], "s"),
            "workload.flows": (len(spec.flows), "count"),
            "workload.hops_per_pkt": (
                counts["hop_deliveries"] / max(counts["delivered"], 1),
                "hops"),
        })
        rows.append(row)
    out.metrics = _median_rows(rows)
    _describe_fat_tree(out, spec, counts, result)
    out.record["traced_repetitions"] = len(rows)
    tracer.write_spans(spans_path)
    return out


# ---------------------------------------------------------------------------
# conformance_fuzz
# ---------------------------------------------------------------------------


def _check_seed(seed: int) -> dict:
    """One fuzz seed: every variant, object core, the conservation, lag,
    metamorphic and bounds families. The engine-equivalence replay is
    left out: it runs both event queues, and this workload is the one
    that bypasses them."""
    return conformance_cli.check_seed(seed, quick=True, bounds=True)


def _warm_up(seed: int) -> None:
    """Fuzz ``seed`` once, untimed and unjudged (the timed loop checks it
    again), so that lazy imports and first calls are not timed."""
    _check_seed(seed)


def _judge_seed(log: CheckLog, record: dict, names: List[str],
                expected: Dict[str, str]) -> None:
    failing = {v["variant"] for v in record["violations"]}
    for name in names:
        log.check(name not in failing,
                  f"conformance seed {record['seed']}: {name} violated "
                  f"{[v['check'] for v in record['violations'] if v['variant'] == name]}")
    check_digest(log, f"conformance seed {record['seed']}", record["digest"],
                 expected.get(str(record["seed"])))


def _conformance_setup() -> float:
    """Scenario generation for the bank plus one instance of every
    variant."""
    t0 = clock()
    for s in FUZZ_BANK:
        conformance_cli.generate_scenario(s, quick=True)
    for variant in VARIANTS():
        create_scheduler(variant.scheduler, **dict(variant.kwargs))
    return clock() - t0


def _count_departures(counter: List[int]) -> Callable[[], None]:
    """Count packets the base scenario runs serve; returns an undo."""
    original = conformance_cli.run_scenario

    def counted(*args, **kwargs):
        run = original(*args, **kwargs)
        counter[0] += len(run.departures)
        return run

    conformance_cli.run_scenario = counted

    def undo() -> None:
        conformance_cli.run_scenario = original

    return undo


def _bank_order(seed: int) -> List[int]:
    """The fuzz bank in the order the workload seed gives."""
    order = list(FUZZ_BANK)
    random.Random(seed).shuffle(order)
    return order


def _describe_conformance(out: Outcome, seed: int, names: List[str],
                          passes: int) -> None:
    out.record.update({
        "passes": passes,
        "fuzz_seeds": list(FUZZ_BANK),
        "checks_per_variant": passes * len(FUZZ_BANK),
        "variants": len(names),
        "order_seed": seed,
    })


def run_conformance(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    names = [v.name for v in VARIANTS()]
    expected = load_expected().get("conformance_fuzz", {})
    order = _bank_order(seed)
    # One set-up sample before every fuzz seed, so that the samples
    # spread over the whole run as the timed seeds do; the pass times
    # exclude them.
    setup: List[float] = []
    rows: List[List[float]] = []
    _warm_up(order[0])
    departures = [0]
    undo = _count_departures(departures)
    calibrator = Calibrator()
    loop_s = 0.0
    gc.collect()
    try:
        while len(rows) < MIN_REPS or loop_s < seconds:
            times = []
            for fuzz_seed in order:
                calibrator.tick()
                setup.append(_conformance_setup())
                t0 = clock()
                _judge_seed(out.log, _check_seed(fuzz_seed), names,
                            expected)
                times.append(clock() - t0)
            loop_s += sum(times)
            rows.append(times)
    finally:
        undo()
    # Every pass fuzzes the same seeds: same departures, same checks.
    best = _best_case(rows)
    _end_to_end(out, calibrator, pps=departures[0] / len(rows) / best,
                checks_per_s=out.log.attempted / len(rows) / best,
                setup=setup, repetitions=len(rows))
    _describe_conformance(out, seed, names, len(rows))
    return out


def trace_conformance(seed: int, seconds: float,
                      spans_path: Path) -> Outcome:
    out = Outcome()
    names = [v.name for v in VARIANTS()]
    expected = load_expected().get("conformance_fuzz", {})
    order = _bank_order(seed)
    _warm_up(order[0])
    gc.collect()
    untraced: List[float] = []
    loop0 = clock()
    while not untraced or clock() - loop0 < seconds / 3:
        t0 = clock()
        for fuzz_seed in order:
            _judge_seed(out.log, _check_seed(fuzz_seed), names, expected)
        untraced.append(clock() - t0)
    tracer = Tracer()
    instrument(tracer)
    try:
        gc.collect()
        t0 = clock()
        records = [_check_seed(fuzz_seed) for fuzz_seed in order]
        wall = clock() - t0
    finally:
        tracer.restore()
    for record in records:
        _judge_seed(out.log, record, names, expected)
    row = layer_metrics(tracer, wall, statistics.median(untraced), {})
    departures = tracer.counters["conformance.departures"]
    row["sched.ops_per_dequeue"] = (
        tracer.counters["conformance.ops"] / departures if departures
        else 0.0, "ops")
    row["workload.checks_per_variant"] = (len(order), "count")
    out.metrics = _median_rows([row])
    _describe_conformance(out, seed, names, len(untraced) + 1)
    tracer.write_spans(spans_path)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("eventq.push", "count"), ("eventq.pop", "count"),
    ("eventq.self_s", "s"), ("eventq.resizes", "count"),
    ("eventq.max_depth", "count"), ("eventq.tie_share", "ratio"),
    ("engine.events", "count"), ("engine.events_per_pkt", "ratio"),
    ("engine.schedule", "count"), ("engine.self_s", "s"),
    ("port.enqueue", "count"), ("port.tx", "count"),
    ("port.drops", "count"), ("port.self_s", "s"),
    ("node.receive", "count"), ("node.forward", "count"),
    ("node.self_s", "s"),
    ("sources.emit", "count"), ("sources.self_s", "s"),
    ("sched.enqueue", "count"), ("sched.dequeue", "count"),
    ("sched.empty_share", "ratio"), ("sched.ops_per_dequeue", "ops"),
    ("sched.max_backlog", "count"), ("sched.self_s", "s"),
    ("sinks.record", "count"), ("sinks.self_s", "s"),
    ("build.add_flow_s", "s"), ("build.compute_routes_s", "s"),
    ("build.attach_source_s", "s"), ("build.self_s", "s"),
    ("shard.compute_s", "s"), ("shard.coord_s", "s"),
    ("shard.imbalance", "ratio"), ("shard.windows", "count"),
    ("shard.null_ratio", "ratio"), ("shard.boundary_packets", "count"),
    ("shard.spawn_s", "s"), ("shard.wait_s", "s"),
    ("shard.pickle_s", "s"), ("shard.self_s", "s"),
    ("conformance.run_s", "s"), ("conformance.conservation_s", "s"),
    ("conformance.lag_s", "s"), ("conformance.metamorphic_s", "s"),
    ("conformance.bounds_s", "s"),
    ("conformance.checks", "count"), ("conformance.self_s", "s"),
    ("netcalc.calls", "count"), ("netcalc.self_s", "s"),
    ("workload.flows", "count"), ("workload.hops_per_pkt", "hops"),
    ("workload.checks_per_variant", "count"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
)


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float,
                  counts: Dict[str, float]) -> Metrics:
    """The per-layer metrics of one traced repetition.

    ``counts`` holds the counts the program keeps (from the untraced
    twin); where present they are reported instead of wrapper counts,
    which :func:`_check_counts` has compared with them.
    """
    calls = tracer.calls
    incl = tracer.incl_s
    counters = tracer.counters
    layers = tracer.layer_self_s()
    pops = calls["eventq.pop"]
    dequeues = calls["sched.dequeue"]
    events = counts.get("events", tracer.callbacks)
    delivered = counts.get("delivered", calls["sinks.record"])
    values: Dict[str, float] = {
        "eventq.push": calls["eventq.push"],
        "eventq.pop": pops,
        "eventq.resizes": counts.get("resizes", counters["eventq.resizes"]),
        "eventq.max_depth": counts.get(
            "max_depth", counters["eventq.max_depth"]),
        "eventq.tie_share": counters["eventq.ties"] / pops if pops else 0.0,
        "engine.events": events,
        "engine.events_per_pkt": events / delivered if delivered else 0.0,
        "engine.schedule": calls["engine.schedule"],
        "port.enqueue": calls["port.enqueue"],
        "port.tx": counts.get("port.tx", calls["port.tx"]),
        "port.drops": counts.get("port.drops", 0),
        "node.receive": calls["node.receive"],
        "node.forward": counts.get("node.forward", calls["node.forward"]),
        "sources.emit": counts.get("sources.emit", calls["sources.emit"]),
        "sched.enqueue": calls["sched.enqueue"],
        "sched.dequeue": dequeues,
        "sched.empty_share": (
            counters["sched.empty"] / dequeues if dequeues else 0.0),
        "sched.max_backlog": counters["sched.max_backlog"],
        "sinks.record": delivered,
        "build.add_flow_s": incl["build.add_flow"],
        "build.compute_routes_s": incl["build.compute_routes"],
        "build.attach_source_s": incl["build.attach_source"],
        "conformance.run_s": incl["conformance.run"],
        "conformance.conservation_s": incl["conformance.conservation"],
        "conformance.lag_s": incl["conformance.lag"],
        "conformance.metamorphic_s": incl["conformance.metamorphic"],
        "conformance.bounds_s": incl["conformance.bounds"],
        "conformance.checks": calls["conformance.check"],
        "netcalc.calls": calls["netcalc"],
        "trace.overhead": wall / untraced_wall,
        "trace.coverage": sum(layers.values()) / wall,
    }
    for layer in ("eventq", "engine", "port", "node", "sources", "sched",
                  "sinks", "build", "shard", "conformance", "netcalc"):
        values[f"{layer}.self_s"] = layers.get(layer, 0.0)
    units = dict(LAYER_METRICS)
    return {name: (value, units[name]) for name, value in values.items()}


def _median_rows(rows: List[Metrics]) -> Metrics:
    """Per-metric medians over traced repetitions, with every per-layer
    metric present (0 where the workload never reaches the layer)."""
    out: Metrics = {}
    for name, unit in LAYER_METRICS:
        values = [row[name][0] for row in rows if name in row]
        out[name] = (statistics.median(values) if values else 0.0, unit)
    return out
