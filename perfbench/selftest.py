"""The benchmark's own checks.

Run from the root of a checkout::

    python3 perfbench/selftest.py equivalence   # spec builds == builders
    python3 perfbench/selftest.py sensitivity   # planted costs register
    python3 perfbench/selftest.py record        # rewrite expected.json

``equivalence`` confirms that the spec-built ``paper_dumbbell`` and
``sync_bottleneck`` deliver exactly what ``dumbbell_network("srr",
seed=1)`` and ``single_bottleneck_network("srr", 600)`` deliver.

``sensitivity`` runs the benchmark with a fixed cost planted in one
layer's public function (``bench_plants.py``) and checks, for each plant,
that the workloads named for that layer move beyond their bound, that
the planted layer's self time rises more than any other layer's, and
that the bypass workloads stay within their bound.

``record`` stores the default seed's delivery digests and the
``check_seed`` digests that the benchmark verifies outputs against.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Seeds of the paired base/planted runs, and their length (a
#: conformance_fuzz run still makes three full passes over its fuzz
#: bank, ~10 s).
SENSITIVITY_SEEDS = (1, 2, 3, 4, 5)
SENSITIVITY_SECONDS = 3.0
#: Conformance seeds whose check_seed digests are recorded.
RECORDED_FUZZ_SEEDS = 500

#: plant -> (workloads it must move, workloads it must not move,
#:           workload traced to locate it, layer it is planted in)
PLANT_EXPECTATIONS = {
    "eventq.pop": (("sync_bottleneck", "paper_dumbbell"),
                   ("conformance_fuzz",), "sync_bottleneck", "eventq"),
    "conformance.lag": (("conformance_fuzz",), ("paper_dumbbell",),
                        "conformance_fuzz", "conformance"),
    "sched.srr_dequeue": (("sync_bottleneck", "paper_dumbbell"), (),
                          "sync_bottleneck", "sched"),
}
LAYERS = ("eventq", "engine", "port", "node", "sources", "sched", "sinks",
          "build", "shard", "conformance", "netcalc")


def _bench(workload: str, seed: int, trace: int, plant=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SENSITIVITY_SECONDS),
           "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{cmd}: outputs failed their checks")
    return result["metrics"]


def _headline(workload: str) -> str:
    return "checks_per_s" if workload == "conformance_fuzz" else "delivered_pps"


def _bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _change(workload: str, plant: str) -> float:
    """Relative drop of the workload's headline metric under ``plant``.

    Base and planted runs alternate in pairs (base first, then planted
    first) and the median of the per-pair ratios is taken, so a machine
    whose speed drifts between runs does not read as an effect.
    """
    metric = _headline(workload)
    ratios = []
    for i, seed in enumerate(SENSITIVITY_SEEDS):
        order = (None, plant) if i % 2 == 0 else (plant, None)
        got = {p: _bench(workload, seed, 0, p)[metric]["value"] for p in order}
        ratios.append(got[plant] / got[None])
    return 1.0 - statistics.median(ratios)


def sensitivity() -> bool:
    bounds = _bounds()
    ok = True
    for plant, (moved, bypassed, traced, layer) in PLANT_EXPECTATIONS.items():
        for workload in moved + bypassed:
            change = _change(workload, plant)
            bound = bounds[_headline(workload)]
            want_move = workload in moved
            passed = change > bound if want_move else abs(change) <= bound
            ok &= passed
            print(f"{plant:18s} {workload:17s} {_headline(workload)} "
                  f"-{change:7.1%} (bound {bound:.0%}, must "
                  f"{'move' if want_move else 'stay'}): "
                  f"{'ok' if passed else 'FAIL'}", flush=True)
        before = _bench(traced, SENSITIVITY_SEEDS[0], 1)
        after = _bench(traced, SENSITIVITY_SEEDS[0], 1, plant)
        rise = {name: after[f"{name}.self_s"]["value"]
                - before[f"{name}.self_s"]["value"] for name in LAYERS}
        top = max(rise, key=rise.get)
        passed = top == layer
        ok &= passed
        print(f"{plant:18s} traced {traced}: largest self-time rise "
              f"{top} (+{rise[top]:.3f} s; {layer} +{rise[layer]:.3f} s): "
              f"{'ok' if passed else 'FAIL'}", flush=True)
    return ok


def equivalence() -> bool:
    import bench_specs as specs
    from repro.bench.scenarios import (
        dumbbell_network,
        single_bottleneck_network,
    )
    from repro.shard.build import build_network
    from repro.shard.digest import network_delivery_digest

    ok = True
    for name, spec, builder, horizon in (
        ("paper_dumbbell", specs.dumbbell_spec(1),
         dumbbell_network("srr", seed=1), specs.DUMBBELL_HORIZON_S),
        ("sync_bottleneck", specs.sync_bottleneck_spec(None),
         single_bottleneck_network("srr", specs.SYNC_FLOWS),
         specs.SYNC_HORIZON_S),
    ):
        net = build_network(spec)
        net.run(until=horizon)
        builder.run(until=horizon)
        same = network_delivery_digest(net) == network_delivery_digest(builder)
        ok &= same
        print(f"{name}: spec build {'matches' if same else 'DIFFERS FROM'} "
              f"the imperative builder "
              f"({net.sinks.total_packets} packets)")
    return ok


def record() -> bool:
    import bench_specs as specs
    from bench_checks import DEFAULT_SEED, EXPECTED_PATH
    from repro.conformance.cli import check_seed
    from repro.shard.build import build_network
    from repro.shard.digest import network_delivery_digest

    expected = {}
    for name, spec, horizon in (
        ("paper_dumbbell", specs.dumbbell_spec(DEFAULT_SEED),
         specs.DUMBBELL_HORIZON_S),
        ("sync_bottleneck", specs.sync_bottleneck_spec(DEFAULT_SEED),
         specs.SYNC_HORIZON_S),
        ("fat_tree_2shard", specs.fat_tree_spec(DEFAULT_SEED),
         specs.FAT_TREE_HORIZON_S),
    ):
        net = build_network(spec)
        net.run(until=horizon)
        expected[name] = network_delivery_digest(net)
    fuzz = {}
    for seed in range(DEFAULT_SEED, DEFAULT_SEED + RECORDED_FUZZ_SEEDS):
        verdict = check_seed(seed, quick=True, bounds=True)
        if verdict["violations"]:
            print(f"fuzz seed {seed} has violations; not recorded")
            return False
        fuzz[str(seed)] = verdict["digest"]
    expected["conformance_fuzz"] = fuzz
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return True


def main(argv) -> int:
    sys.path.insert(0, str(HERE))
    commands = {"equivalence": equivalence, "sensitivity": sensitivity,
                "record": record}
    if len(argv) != 1 or argv[0] not in commands:
        print(f"usage: selftest.py {{{','.join(commands)}}}", file=sys.stderr)
        return 2
    return 0 if commands[argv[0]]() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
