"""Fit scaling: private-phase marginal throughput across exact-count executors.

The fit hot path — the InDif scan over all d(d-1)/2 pairs plus the published
contingency tables — is deterministic exact-count work, so it fans out
across ``config.fit_engine`` workers while every noise draw stays serial on
the fit stream; fits are bit-identical whatever the executor.  This
benchmark records what that buys on a wide (12-encoded-attribute, 66-pair)
ToN workload at paper scale (1M records), using the per-stage
instrumentation in ``synth.fit_report``.

Acceptance gates (full scale, >= 500k fit records):

- process-4 shows >= 1.5x marginal-phase (selection + publish stage) speedup
  over the serial reference fit;
- the serial fit reproduces the pre-refactor published-marginal golden
  digest bit for bit;
- every executor configuration publishes the identical digest;
- a save()/load() round trip samples bit-identically to the fitted instance.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the workload and skips
the speedup gate — parallel overhead dominates at toy sizes.

Runnable standalone: ``python benchmarks/bench_fit_scaling.py [out.json]``.
"""

import json
import sys

from conftest import SMOKE, _env_int, attach, fmt

from repro.experiments import fit_scaling
from repro.experiments.runner import ExperimentScale

#: Full-scale default: wide-workload fit at 1M records (the paper's largest
#: trace size); smoke mode drops to 2k so CI stays fast.
DEFAULT_RECORDS = 2_000 if SMOKE else 1_000_000

#: Below this many fit records, executor overhead dominates the marginal
#: phase and the speedup assertion is skipped (numbers still recorded).
FULL_SCALE_THRESHOLD = 500_000


def fit_scale() -> ExperimentScale:
    return ExperimentScale(
        n_records=_env_int("REPRO_BENCH_FIT_RECORDS", DEFAULT_RECORDS),
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    repetitions = 1 if SMOKE else _env_int("REPRO_BENCH_FIT_REPS", 3)
    result = fit_scaling.run(scale, repetitions=repetitions)
    rows = result["rows"]

    for key, row in rows.items():
        binning = row["fit_report"]["stage_seconds"]["binning"]
        print(
            f"[fit] {key:<10s} binning={fmt(binning)}s "
            f"marginal={fmt(row['marginal_seconds'])}s "
            f"fit={fmt(row['fit_seconds'])}s  "
            f"speedup={fmt(row['marginal_speedup'])} "
            f"(fit {fmt(row['fit_speedup'])})"
        )
    print(f"[fit] golden fit identity: {result['fit_identity']['matches']}")
    print(f"[fit] save/load round trip: {result['save_load']['matches']}")

    # Serial fit output is bit-identical to the pre-refactor pipeline.
    assert result["fit_identity"]["matches"], result["fit_identity"]

    # Executors only move exact-count work: every config publishes the same
    # marginals bit for bit.
    digests = {row["digest"] for row in rows.values()}
    assert len(digests) == 1, {k: r["digest"] for k, r in rows.items()}

    # Fit-once/sample-anywhere: the persisted model samples identically.
    assert result["save_load"]["matches"], result["save_load"]

    if result["n_records"] >= FULL_SCALE_THRESHOLD:
        speedup = rows["process-4"]["marginal_speedup"]
        assert speedup >= 1.5, (
            f"process-4 marginal-phase speedup {speedup:.2f}x < 1.5x over serial"
        )
    return result


def test_fit_scaling(benchmark):
    scale = fit_scale()
    result = benchmark.pedantic(
        lambda: run_and_check(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    payload = run_and_check(fit_scale())
    out_path = sys.argv[1] if len(sys.argv) > 1 else None
    text = json.dumps(payload, indent=2, default=float)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out_path}")
    else:
        print(text)
