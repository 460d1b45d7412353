"""Repository benchmark: four workloads, untraced end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_dumbbell --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records provenance and the workload's descriptors. See README.md.

The benchmark imports ``repro`` from this checkout's ``src/`` and
refuses to run (exit 2, no result) when it resolves anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"


def import_checkout_repro():
    """Import ``repro`` from ``<checkout>/src``; exit 2 if that fails."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: repro resolves to {origin}, not under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return repro


def _git(*args: str) -> str:
    # The ceiling keeps git from looking for a repository above the
    # checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip()


def _source_digest() -> str:
    """sha256 over the ``src/`` tree (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance() -> dict:
    from repro.net.eventq import ENGINE_ENV_VAR, default_kind

    commit = _git("rev-parse", "HEAD") or None
    dirty = None
    if commit is not None:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "eventq_default": default_kind(),
        "engine_env": os.environ.get(ENGINE_ENV_VAR),
    }


def main(argv=None) -> int:
    import_checkout_repro()
    import bench_workloads as wl
    from bench_plants import PLANTS, install_plant

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=PLANTS, default=None,
                        help="add a fixed cost per call to one layer "
                             "(sensitivity check only)")
    args = parser.parse_args(argv)

    if args.plant:
        install_plant(args.plant)
    spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.workload in wl.NETWORKS:
        if args.trace:
            out = wl.trace_network(args.workload, args.seed, args.seconds,
                                   spans)
        else:
            out = wl.run_network(args.workload, args.seed, args.seconds)
    elif args.workload == "fat_tree_2shard":
        if args.trace:
            out = wl.trace_fat_tree(args.seed, args.seconds, spans)
        else:
            out = wl.run_fat_tree(args.seed, args.seconds)
    elif args.trace:
        out = wl.trace_conformance(args.seed, args.seconds, spans)
    else:
        out = wl.run_conformance(args.seed, args.seconds)

    for message in out.log.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "plant": args.plant, "provenance": provenance(),
        "descriptors": out.record,
    }))
    print(json.dumps({
        "correct": out.log.failed == 0,
        "attempted": out.log.attempted,
        "failed": out.log.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
