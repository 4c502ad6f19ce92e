"""The repo benchmark: one command, four workloads, one JSON result line.

    python3 perfbench/run.py --workload release-serial --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; scratch files, spans and temporary directories go to
``.perfbench-out/`` there.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separately traced iteration.  The
exit code is 0 only when every correctness check passed.

``--reference`` runs one short iteration, computes the release reference
for ``--seed`` instead of reading ``references.json``, and prints it (to
refresh the pins after an intended change of output).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metric name -> unit (every untraced run reports all of them).
E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "sample_records_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this run started one, and
    wait for it to exit.

    Spawned process pools and shared memory start it as a child of this
    process.  Left alone it exits only after this process has, so it would
    outlive the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    out = ROOT / ".perfbench-out"
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Fleet spools and any other temporary directory stay inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ctx = workloads.Context(
        seed=args.seed,
        seconds=0.0 if args.reference else args.seconds,
        trace=bool(args.trace) and not args.reference,
        out=out,
        use_pins=not args.reference,
    )
    # SIGTERM unwinds like an error, so the finally blocks that stop the
    # server, the pools and the fleet still run.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
    if args.reference:
        print(json.dumps({args.workload: outcome.reference}))
        return 0 if outcome.reference is not None and outcome.failed == 0 else 1
    if args.trace:
        from layers import LAYER_UNITS

        units, values = LAYER_UNITS, outcome.layers
    else:
        units, values = E2E_UNITS, outcome.metrics
    for note in outcome.notes:
        print(note, file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}", file=sys.stderr)
    print(
        f"{args.workload} failed_share = {outcome.failed}/{outcome.attempted}", file=sys.stderr
    )
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
