"""Metric maths shared by the workloads (and checked by test_perfbench.py)."""

from __future__ import annotations

import math
import statistics

#: Latency limit of the serving SLO, on p99 from each request's due time.
SLO_P99_MS = 20.0
#: A step is invalid when the generator's own p99 lateness exceeds this: a
#: generator that late would by itself spend half the latency limit.
GENERATOR_LATE_MS = SLO_P99_MS / 2
#: A step's backlog grows when the last fifth of its requests waited this much
#: longer (send minus due) than the first fifth.
BACKLOG_GROWTH_MS = 5.0


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100); ``inf`` counts as a miss."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - _rank(n, q)


def latency_summary(latencies_ms) -> dict:
    """p50, p95 and p99 with the sample count and how many lie beyond p99."""
    n = len(latencies_ms)
    return {
        "n": n,
        "p50_ms": percentile(latencies_ms, 50.0),
        "p95_ms": percentile(latencies_ms, 95.0),
        "p99_ms": percentile(latencies_ms, 99.0),
        "p99_beyond": samples_beyond(n, 99.0),
    }


def lateness(records) -> dict:
    """Generator lateness and backlog of one open-loop step.

    Each record is ``(due, ready, sent)``: when the request was due, when
    both it was due and a connection was free for it, and when it was sent.
    ``sent - ready`` is the generator's own lateness (its loop was busy);
    ``sent - due`` is the backlog the server imposed by holding connections.
    """
    own = [(sent - ready) * 1e3 for _due, ready, sent in records]
    backlog = [(sent - due) * 1e3 for due, _ready, sent in records]
    k = max(1, len(backlog) // 5)
    growth = statistics.fmean(backlog[-k:]) - statistics.fmean(backlog[:k])
    return {
        "generator_p99_ms": percentile(own, 99.0),
        "backlog_growth_ms": growth,
    }


def rate_summary(rate: int, instances: list) -> dict:
    """One rate step pooled over its instances (one per ladder).

    Each instance is a list of load-generator records ``[due, ready, sent,
    done, status, body]``.  Latency counts from the due time; a failed or
    refused request is an infinite latency, so it always misses the limit.
    """
    latencies = []
    failed = 0
    achieved = []
    growth = []
    for records in instances:
        ok = [r for r in records if r[4] == 200]
        failed += len(records) - len(ok)
        latencies += [(r[3] - r[0]) * 1e3 if r[4] == 200 else math.inf for r in records]
        span = max(r[3] for r in ok) - records[0][0] if ok else 0.0
        achieved.append(len(ok) / span if span > 0 else 0.0)
        growth.append(lateness([(r[0], r[1], r[2]) for r in records])["backlog_growth_ms"])
    pooled = [(r[0], r[1], r[2]) for records in instances for r in records]
    summary = latency_summary(latencies)
    summary.update(
        rate=rate,
        failed=failed,
        achieved_qps=statistics.median(achieved),
        generator_p99_ms=lateness(pooled)["generator_p99_ms"],
        backlog_growth_ms=max(growth),
    )
    summary["valid"] = summary["generator_p99_ms"] <= GENERATOR_LATE_MS
    return summary


def step_passes(step: dict) -> bool:
    """One rate step meets the SLO: p99 in limit, nothing failed, no backlog
    growth, and the generator (not the server) kept its schedule."""
    return (
        step["valid"]
        and step["failed"] == 0
        and step["p99_ms"] <= SLO_P99_MS
        and step["backlog_growth_ms"] <= BACKLOG_GROWTH_MS
    )


def qps_at_slo(steps: list[dict]) -> float:
    """The rate at which p99 reaches the SLO limit, from the rate ladder.

    Walks the steps upwards to the first one that does not pass.  Below it,
    the last passing step's achieved q/s; when the failing step broke the
    p99 limit, the crossing is interpolated between the two steps on
    log(p99) over log(rate), so the figure moves smoothly with latency
    instead of jumping a whole step.  0 when even the lowest step fails.
    """
    last = None
    for step in sorted(steps, key=lambda s: s["rate"]):
        if step_passes(step):
            last = step
            continue
        if last is None:
            return 0.0
        y1, y2 = max(last["p99_ms"], 1e-9), step["p99_ms"]
        if not (SLO_P99_MS < y2 < math.inf) or y1 >= SLO_P99_MS:
            return last["achieved_qps"]
        frac = (math.log(SLO_P99_MS) - math.log(y1)) / (math.log(y2) - math.log(y1))
        return last["achieved_qps"] * (step["rate"] / last["rate"]) ** frac
    return 0.0 if last is None else last["achieved_qps"]
