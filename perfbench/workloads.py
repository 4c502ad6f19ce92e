"""The four workloads.  Each returns a :class:`Outcome` for one invocation.

Timed regions call only the library's public API on inputs generated from
the workload seed.  Every correctness reference is computed outside them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import benchstats
import layers
from calibration import Calibration
from loadgen import OpenLoopClient
from tracer import Tracer, load_spans

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
#: The seed whose references are pinned in ``references.json``.
DEFAULT_SEED = 0

EPSILON = 2.0
#: GUM runs a fixed number of iterations (early stopping off).  With early
#: stopping the count moves with the seed (14-28 at 50k records), and with
#: it the sampling time by about 30%, which no usable bound absorbs.
GUM_ITERATIONS = 20
SERIAL_RECORDS = 50_000
PUBLISH_RECORDS = 1_000_000
SAMPLE_N = 100_000
PUBLISH_CHUNK = 25_000
FLEET_SHARDS = 8
WORKERS = 2
HOT_SET = 48
RATES = (200, 400, 800, 1600)
#: Share of each ladder's seconds per rate step (the 400 q/s step carries
#: the reported latency percentiles, so it gets the most samples).
RATE_SHARES = (0.07, 0.75, 0.09, 0.09)
LATENCY_RATE = 400
#: The rate ladder runs this many times per run; every serving metric is the
#: median over ladders, so one burst of CPU steal cannot flip a whole run.
LADDERS = 3


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    #: The release reference the outputs were checked against.
    reference: str | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    out: Path
    #: Check against ``references.json`` when it pins this seed.
    use_pins: bool = True
    #: Machine speed over the run; every end-to-end time is scaled by it.
    cal: Calibration = field(default_factory=Calibration)

    @property
    def fit_seed(self) -> int:
        return 1_000 + self.seed

    @property
    def sample_seed(self) -> int:
        return 2_000 + self.seed

    def pinned(self, workload: str) -> str | None:
        if not self.use_pins or self.seed != DEFAULT_SEED or not REFERENCES.exists():
            return None
        return json.loads(REFERENCES.read_text()).get(workload)

    def spans_path(self, workload: str, side: str = "client") -> Path:
        return self.out / f"spans-{workload}-seed{self.seed}-{side}.jsonl"


def synthesis_config(**kwargs):
    from repro import SynthesisConfig
    from repro.synthesis.gum import GumConfig

    gum = GumConfig(iterations=GUM_ITERATIONS, patience=GUM_ITERATIONS + 1)
    return SynthesisConfig(epsilon=EPSILON, gum=gum, **kwargs)


def extra_fits(ctx: Context, repeats: int = 4) -> list[float]:
    """Fit times outside any set-up, so workloads that fit only during
    set-up still report ``fit_s`` as a median of several fits."""
    from repro import NetDPSyn, load_dataset

    table = load_dataset("ton", SERIAL_RECORDS, seed=ctx.seed)
    times = []
    for _ in range(repeats):
        t0 = now()
        NetDPSyn(synthesis_config(), rng=ctx.fit_seed).fit(table)
        times.append(now() - t0)
    return times


def now() -> float:
    return time.perf_counter()


def median(values) -> float:
    return statistics.median(values)


def spans(tracer: Tracer | None):
    """``tracer.span``, or a span factory that records nothing."""
    return tracer.span if tracer is not None else (lambda _name: nullcontext())


def peak_rss_mb() -> float:
    """This process's RSS high-water mark plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def calibration_note(cal: Calibration) -> str:
    return f"slowdown {cal.slowdown:.3f} from calibration samples (ms): " + " ".join(
        f"{s * 1e3:.1f}" for s in cal.samples
    )


def release_metrics(out: Outcome, cal: Calibration, setup, fit, records_per_s, ops_s):
    """The end-to-end metrics of a release workload, scaled by ``cal``."""
    out.notes.append(calibration_note(cal))
    out.notes.append(
        "unscaled ops (s): " + " ".join(f"{s:.3f}" for s in ops_s)
        + " | fit (s): " + " ".join(f"{s:.3f}" for s in fit)
        + " | setup (s): " + " ".join(f"{s:.3f}" for s in setup)
    )
    out.metrics.update(
        setup_s=cal.seconds(median(setup)),
        fit_s=cal.seconds(median(fit)),
        sample_records_per_s=cal.rate(median(records_per_s)),
        peak_rss_mb=peak_rss_mb(),
    )


def check_all(out: Outcome, values: list, reference: str, what: str) -> None:
    out.reference = reference
    for value in values:
        out.check(value == reference, what)


def finish_trace(ctx: Context, workload: str, tracer: Tracer, extra: dict) -> dict:
    tracer.dump(ctx.spans_path(workload))
    return layers.layer_metrics(tracer.spans, tracer.counters, extra)


# ----------------------------------------------------------- release-serial
#: Untraced releases run in this many fresh processes, one after another.
#: Speed is a per-process draw on this kind of VM (a 50k fit takes 0.24 or
#: 0.33 s depending on the process, steady within one), so one process per
#: run would make every figure bimodal across runs.
SERIAL_PROCESSES = 3


def _serial_release(table, ctx: Context, tracer: Tracer | None = None):
    """One release-serial release: ``(fit_s, sample_s, digest, iterations)``."""
    from repro import NetDPSyn

    span = spans(tracer)
    t0 = now()
    with span("op.fit"):
        synth = NetDPSyn(synthesis_config(), rng=ctx.fit_seed).fit(table)
    t1 = now()
    with span("op.sample"):
        trace = synth.sample(SAMPLE_N, rng=ctx.sample_seed, shards=1, backend="serial", kernel="auto")
    t2 = now()
    return t1 - t0, t2 - t1, trace.content_digest(), synth.gum_result.iterations_run


def _serial_releases(ctx: Context, seconds: float, at_least: int = 1):
    """Releases for ``seconds`` (and at least ``at_least``) in this process,
    and the calibration samples taken around them."""
    from repro import load_dataset

    table = load_dataset("ton", SERIAL_RECORDS, seed=ctx.seed)
    cal = Calibration()
    cal.measure()
    results = []
    start = now()
    while len(results) < at_least or now() - start < seconds:
        results.append(_serial_release(table, ctx))
        cal.measure()
    return results, cal.samples


def release_serial(ctx: Context) -> Outcome:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    from repro import NetDPSyn, load_dataset

    out = Outcome()
    setup = []
    ctx.cal.measure()
    # A load takes about 30 ms, so the median is taken over many.
    for _ in range(15):
        t0 = now()
        table = load_dataset("ton", SERIAL_RECORDS, seed=ctx.seed)
        setup.append(now() - t0)

    if ctx.trace:
        # Two untraced releases: the first in a process is the slowest, and
        # the tracing overhead is taken against the second.
        measured = [_serial_releases(ctx, 0.0, at_least=2)]
    else:
        measured = []
        for _ in range(SERIAL_PROCESSES):
            with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
                measured.append(
                    pool.submit(_serial_releases, ctx, ctx.seconds / SERIAL_PROCESSES).result()
                )
    runs = [run for run, _samples in measured]
    for _run, samples in measured:
        ctx.cal.samples.extend(samples)
    digests = [r[2] for run in runs for r in run]
    ops = [r[0] + r[1] for run in runs for r in run]
    # Each process's median, averaged over the processes.
    fits = [statistics.fmean(median(r[0] for r in run) for run in runs)]
    rates = [statistics.fmean(median(SAMPLE_N / r[1] for r in run) for run in runs)]
    release_metrics(out, ctx.cal, setup, fits, rates, ops)

    if ctx.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            fit_s, sample_s, digest, iterations = _serial_release(table, ctx, tracer)
        finally:
            tracer.restore()
        digests.append(digest)
        decode = sum(s[3] - s[2] for s in tracer.spans if s[1] == "synthesis.decode")
        out.layers = finish_trace(
            ctx,
            "release-serial",
            tracer,
            {
                "synthesis.gum_iterations": iterations,
                "synthesis.decode_us_per_record": decode / SAMPLE_N * 1e6,
                "trace.overhead_s": (fit_s + sample_s) - ops[-1],
            },
        )

    reference = ctx.pinned("release-serial")
    if reference is None:
        synth = NetDPSyn(synthesis_config(), rng=ctx.fit_seed).fit(table)
        reference = synth.sample(
            SAMPLE_N, rng=ctx.sample_seed, shards=1, kernel="reference"
        ).content_digest()
    check_all(out, digests, reference, "release-serial digest != kernel='reference' digest")
    return out


# --------------------------------------------------------------- publish-1m
def publish_1m(ctx: Context) -> Outcome:
    from repro import NetDPSyn, load_dataset
    from repro.engine import EngineConfig

    out = Outcome()
    setup = []
    ctx.cal.measure()
    for _ in range(3):
        table = None
        gc.collect()
        t0 = now()
        table = load_dataset("ton", PUBLISH_RECORDS, seed=ctx.seed)
        setup.append(now() - t0)
    csv_path = ctx.out / f"publish-seed{ctx.seed}.csv"
    config = synthesis_config(fit_engine=EngineConfig(backend="shared", max_workers=WORKERS))

    def release(tracer: Tracer | None = None):
        span = spans(tracer)
        t0 = now()
        with span("op.fit"):
            synth = NetDPSyn(config, rng=ctx.fit_seed).fit(table)
        t1 = now()
        pool = synth.pool(backend="shared", max_workers=WORKERS)
        with span("op.sample"):
            pool.__enter__()
            try:
                t2 = now()
                synth.sample_to(csv_path, n=SAMPLE_N, chunk=PUBLISH_CHUNK, rng=ctx.sample_seed)
                t3 = now()
            except BaseException:
                pool.__exit__(*sys.exc_info())
                raise
        with span("op.teardown"):
            pool.__exit__(None, None, None)
        return synth, t1 - t0, SAMPLE_N / (t3 - t2), t3 - t0

    fits, rates, ops, hashes = [], [], [], []
    ctx.cal.measure()
    start = now()
    while not ops or (not ctx.trace and now() - start < ctx.seconds):
        synth, fit_s, rate, op_s = release()
        fits.append(fit_s)
        rates.append(rate)
        ops.append(op_s)
        hashes.append(file_sha256(csv_path))
        ctx.cal.measure()
    release_metrics(out, ctx.cal, setup, fits, rates, ops)

    if ctx.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            synth, _fit, _rate, op_s = release(tracer)
        finally:
            tracer.restore()
        hashes.append(file_sha256(csv_path))
        out.layers = finish_trace(
            ctx,
            "publish-1m",
            tracer,
            {
                "data.sink_bytes": csv_path.stat().st_size,
                "synthesis.gum_iterations": synth.gum_result.iterations_run,
                "trace.overhead_s": op_s - ops[-1],
            },
        )

    reference = ctx.pinned("publish-1m")
    if reference is None:
        # Same model, serial backend, same shard count (n / chunk): the CSV
        # must not depend on the pool, shared memory or the worker count.
        ref_path = ctx.out / f"publish-seed{ctx.seed}-reference.csv"
        synth.sample_to(
            ref_path, n=SAMPLE_N, chunk=PUBLISH_CHUNK, rng=ctx.sample_seed, backend="serial"
        )
        reference = file_sha256(ref_path)
        ref_path.unlink()
    csv_path.unlink()
    check_all(out, hashes, reference, "publish-1m CSV sha256 != serial reference")
    return out


# ------------------------------------------------------------ fleet-release
def fleet_release(ctx: Context) -> Outcome:
    from repro import NetDPSyn, load_dataset
    from repro.fleet import LocalCluster

    out = Outcome()
    model_path = ctx.out / f"fleet-seed{ctx.seed}.ndpsyn"
    setup, rates, ops, digests = [], [], [], []
    ctx.cal.measure()
    fits = extra_fits(ctx)
    ctx.cal.measure()
    cycles = 1 if ctx.trace else 2
    budget = ctx.seconds / cycles

    def cycle(tracer: Tracer | None = None):
        span = spans(tracer)
        t0 = now()
        table = load_dataset("ton", SERIAL_RECORDS, seed=ctx.seed)
        t_fit = now()
        NetDPSyn(synthesis_config(), rng=ctx.fit_seed).fit(table).save(model_path)
        fit_s = now() - t_fit
        model = NetDPSyn.load(model_path)
        cluster = LocalCluster(workers=WORKERS).__enter__()
        try:
            # Warm-up release: ships the plan to every worker once per cluster.
            model.sample(4_000, rng=ctx.sample_seed + 1, shards=FLEET_SHARDS, backend="fleet")
            setup_s = now() - t0
            cycle_start = now()
            timed = []
            while not timed or (tracer is None and now() - cycle_start < budget):
                t1 = now()
                with span("op.sample"):
                    trace = model.sample(
                        SAMPLE_N, rng=ctx.sample_seed, shards=FLEET_SHARDS, backend="fleet"
                    )
                timed.append(now() - t1)
                digests.append(trace.content_digest())
                del trace
                # The workers are idle here, between releases.
                ctx.cal.measure()
            lost = WORKERS - cluster.stats()["registry"]["by_state"].get("alive", 0)
        finally:
            with span("op.teardown"):
                cluster.__exit__(None, None, None)
        return model, setup_s, fit_s, timed, lost

    for _ in range(cycles):
        model, setup_s, fit_s, timed, _lost = cycle()
        setup.append(setup_s)
        fits.append(fit_s)
        ops.extend(timed)
        rates.extend(SAMPLE_N / s for s in timed)
    release_metrics(out, ctx.cal, setup, fits, rates, ops)

    if ctx.trace:
        tracer = Tracer()
        results: list = []
        layers.install(tracer, fleet_results=results)
        try:
            model, _setup, _fit, timed, lost = cycle(tracer)
        finally:
            tracer.restore()
        work_s = sum(r.seconds for _spool, shard_results in results for r in shard_results)
        shards = sum(len(shard_results) for _spool, shard_results in results)
        out.layers = finish_trace(
            ctx,
            "fleet-release",
            tracer,
            {
                "fleet.shard_work_s": work_s,
                "fleet.overhead_per_shard_ms": (timed[0] * WORKERS - work_s) / shards * 1e3,
                "fleet.spool_bytes": layers.fleet_spool_bytes(results),
                "fleet.workers_lost": lost,
                "synthesis.gum_iterations": model.gum_result.iterations_run,
                "trace.overhead_s": timed[0] - ops[-1],
            },
        )

    reference = ctx.pinned("fleet-release")
    if reference is None:
        reference = model.sample(
            SAMPLE_N, rng=ctx.sample_seed, shards=FLEET_SHARDS, backend="serial"
        ).content_digest()
    model_path.unlink()
    check_all(out, digests, reference, "fleet digest != serial digest at the same shard count")
    return out


# --------------------------------------------------------------- serve-http
def _raw_value(column, row: int):
    value = column[row]
    return value.item() if hasattr(value, "item") else value


class ServeInputs:
    """Hot set, cache-warming query and distinct misses for one model."""

    def __init__(self, model, table, seed: int) -> None:
        from repro.experiments.http_serving import build_http_workload
        from repro.serving import QueryEngine, count, query_to_wire, topk

        self._topk, self._wire = topk, query_to_wire
        self.engine = QueryEngine(model)
        self.table = table
        self.rng = np.random.default_rng(seed)
        self.hot = build_http_workload(model, n_distinct=HOT_SET, seed=seed)
        plan = model.plan()
        names = [a for a in plan.original_schema.names if a in plan.domain]
        covered = set()
        for m in plan.published:
            covered.update((a, b) for a in m.attrs for b in m.attrs if a != b)
        pairs = [(a, b) for a in names for b in names if a != b]
        self.sample_pairs = [p for p in pairs if p not in covered]
        self.marginal_pairs = [p for p in pairs if p in covered]
        a, b = self.sample_pairs[0]
        self.warm = count(where={a: self._value(a), b: self._value(b)})
        self._next_k = 1_000

    def _value(self, attr: str):
        return _raw_value(self.table.column(attr), int(self.rng.integers(self.table.n_records)))

    def miss(self, sample_path: bool):
        """A query no earlier request asked (unique ``k``) on the given path."""
        self._next_k += 1
        pairs = self.sample_pairs if sample_path else self.marginal_pairs
        a, b = pairs[int(self.rng.integers(len(pairs)))]
        query = self._topk(a, k=self._next_k, where={b: self._value(b)})
        want = "sample" if sample_path else "marginal"
        assert self.engine.resolve(query)[0] == want, (query, want)
        return query

    def body(self, query) -> bytes:
        return json.dumps({"query": self._wire(query)}).encode()


def _post(url_host: str, port: int, path: str, body: bytes) -> tuple[int, bytes]:
    from http.client import HTTPConnection

    conn = HTTPConnection(url_host, port, timeout=60)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``serve-http`` subprocess over a model directory."""

    def __init__(self, root: Path, spans_out: Path | None) -> None:
        env = dict(os.environ)
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.serving.http"]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"), str(spans_out), "--"]
        self.proc = subprocess.Popen(
            cmd + [str(root), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.port = None
        lines = []
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"serve-http exited before serving: {lines}")
            lines.append(line)
            if " at http://" in line:
                self.port = int(line.rsplit(":", 1)[1].strip())
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> float:
        """Probe ``/healthz`` on a fresh connection, then SIGTERM; returns the
        seconds from the signal to the process having exited.

        The probe's accept restarts the serve loop's poll, so every stop
        starts from the same point of that loop instead of a random one.
        """
        from http.client import HTTPConnection

        conn = HTTPConnection("127.0.0.1", self.port, timeout=10)
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        conn.close()
        t0 = now()
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=60)
        return now() - t0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


#: Idle gap between rate steps, so one step's backlog never leaks into the next.
STEP_GAP_S = 0.25


def _schedule(inputs: ServeInputs, rate: int, seconds: float, bodies, queries):
    """Fixed-rate send schedule of one step: 80% hot-set bodies, 20% fresh
    misses (half sample-path, half marginal-path), drawn before sending."""
    schedule = []
    for i in range(max(1, int(rate * seconds))):
        if inputs.rng.random() < 0.8:
            index = int(inputs.rng.integers(HOT_SET))
        else:
            query = inputs.miss(sample_path=len(queries) % 2 == 0)
            queries.append(query)
            bodies.append(inputs.body(query))
            index = len(bodies) - 1
        schedule.append((i / rate, index))
    return schedule


QUERY_PATH = "/v1/models/ton/query"


def _run_steps(server: Server, inputs: ServeInputs, seconds: float):
    """Every ladder's rate steps over one set of keep-alive connections;
    returns ``([(ladder, rate, schedule, records), ...], queries)`` with
    request ids counting from 1 in send order."""
    bodies = [inputs.body(q) for q in inputs.hot]
    queries = list(inputs.hot)
    client = OpenLoopClient("127.0.0.1", server.port, min(os.cpu_count() or 1, 2))
    steps = []
    rid = 1
    try:
        for ladder in range(LADDERS):
            for rate, share in zip(RATES, RATE_SHARES):
                schedule = _schedule(inputs, rate, seconds / LADDERS * share, bodies, queries)
                records = client.run(QUERY_PATH, bodies, schedule, rid_base=rid)
                rid += len(schedule)
                steps.append((ladder, rate, schedule, records))
                time.sleep(STEP_GAP_S)
    finally:
        client.close()
    return steps, queries


def _serving_summary(steps) -> dict:
    """Per-rate summaries pooled over ladders, and the reported figures.

    ``p50_ms``/``p99_ms`` are the medians over ladders of the 400 q/s
    step's percentiles, and ``qps_at_slo`` the median of each ladder's
    crossing: a burst of CPU steal spoils one ladder, not the run.
    """
    pooled = [
        benchstats.rate_summary(rate, [recs for _l, r, _s, recs in steps if r == rate])
        for rate in RATES
    ]
    ladders = [
        [benchstats.rate_summary(r, [recs]) for lad, r, _s, recs in steps if lad == ladder]
        for ladder in range(LADDERS)
    ]
    at_rate = [next(s for s in lad if s["rate"] == LATENCY_RATE) for lad in ladders]
    return {
        "rates": pooled,
        "p50_ms": median(s["p50_ms"] for s in at_rate),
        "p95_ms": median(s["p95_ms"] for s in at_rate),
        "p99_ms": median(s["p99_ms"] for s in at_rate),
        "latency_samples": [s["n"] for s in at_rate],
        "qps_at_slo": median(benchstats.qps_at_slo(lad) for lad in ladders),
    }


def serve_http(ctx: Context) -> Outcome:
    from repro import NetDPSyn, load_dataset
    from repro.serving import QueryEngine, answer_from_wire, answers_equal

    out = Outcome()
    # The served model is a fixed fixture; the seed varies only the request
    # stream.  Models fitted on other seeds differ in server RSS by up to 25%
    # and in sample-cache build speed by about 20%, which would swamp the
    # serving figures.
    fixture = replace(ctx, seed=DEFAULT_SEED)
    root = ctx.out / f"models-seed{ctx.seed}"
    root.mkdir(exist_ok=True)
    model_path = root / "ton.ndpsyn"
    setup, rates, stops = [], [], []
    fits: list = []
    loaded = None
    traced_run = None

    def cache_build() -> float:
        """Records per second of one sample-cache build: the first
        sample-path query a freshly loaded model answers."""
        t_build = now()
        status, _ = _post("127.0.0.1", server.port, QUERY_PATH, inputs.body(inputs.warm))
        out.check(status == 200, "sample-cache build query answered")
        return inputs.engine.sample_records / (now() - t_build)

    for i in range(3):
        spans_out = ctx.spans_path("serve-http", "server") if ctx.trace and i == 1 else None
        ctx.cal.measure()
        t0 = now()
        table = load_dataset("ton", SERIAL_RECORDS, seed=fixture.seed)
        t_fit = now()
        NetDPSyn(synthesis_config(), rng=fixture.fit_seed).fit(table).save(model_path)
        fits.append(now() - t_fit)
        if i == 0:
            model = NetDPSyn.load(model_path)
            inputs = ServeInputs(model, table, ctx.seed)
        server = Server(root, spans_out)
        try:
            rates.append(cache_build())
            if spans_out is not None:
                warm_s = inputs.engine.sample_records / rates[-1]
            for query in inputs.hot:
                status, _ = _post("127.0.0.1", server.port, QUERY_PATH, inputs.body(query))
                out.check(status == 200, "hot-set warming query answered")
            setup.append(now() - t0)
            if i == 0 or spans_out is not None:
                steps, queries = _run_steps(server, inputs, ctx.seconds)
                if i == 0:
                    loaded = (steps, queries, server.peak_rss_mb())
                else:
                    traced_run = (steps, queries, warm_s)
            # More samples, spread over the run, for the two noisiest figures:
            # a hot reload (new mtime) makes the server load the model and
            # build its sample cache again; and one more fit.
            os.utime(model_path)
            rates.append(cache_build())
            fits.extend(extra_fits(fixture, repeats=1))
        finally:
            try:
                stops.append(server.stop())
            finally:
                server.kill()

    ctx.cal.measure()
    steps, queries, server_rss = loaded
    serving = _serving_summary(steps)
    out.metrics.update(
        setup_s=ctx.cal.seconds(median(setup)),
        fit_s=ctx.cal.seconds(median(fits)),
        sample_records_per_s=ctx.cal.rate(median(rates)),
        peak_rss_mb=server_rss,
    )
    out.notes.append(calibration_note(ctx.cal))
    out.notes.append(
        f"at {LATENCY_RATE} q/s, median over ladders of n={serving['latency_samples']}: "
        f"p50 {serving['p50_ms']:.2f} ms, p95 {serving['p95_ms']:.2f} ms, "
        f"p99 {serving['p99_ms']:.2f} ms; qps_at_slo {serving['qps_at_slo']:.1f} q/s; "
        f"stop (s): {' '.join(f'{t:.3f}' for t in stops)}; "
        f"unscaled setup (s): {' '.join(f'{t:.3f}' for t in setup)}; "
        f"unscaled fit (s): {' '.join(f'{t:.3f}' for t in fits)}; "
        f"unscaled cache build (records/s): {' '.join(f'{r:.0f}' for r in rates)}"
    )
    for s in serving["rates"]:
        out.notes.append(
            "step {rate} q/s: n={n} p50={p50_ms:.2f} ms p99={p99_ms:.2f} ms "
            "({p99_beyond} beyond) failed={failed} achieved={achieved_qps:.1f} q/s "
            "generator p99 late={generator_p99_ms:.2f} ms backlog growth="
            "{backlog_growth_ms:.2f} ms valid={valid}".format(**s)
        )

    # Correctness: every answer on the wire equals a direct QueryEngine
    # answer over the same model file (outside all timing).
    direct = QueryEngine(NetDPSyn.load(model_path))
    expected: dict = {}
    runs = [(steps, queries)] + ([traced_run[:2]] if traced_run else [])
    for run_steps, queries in runs:
        for _ladder, _rate, schedule, records in run_steps:
            for (_due, index), record in zip(schedule, records):
                ok = record[4] == 200
                if ok:
                    key = (index, record[5])
                    if key not in expected:
                        answer = direct.run(queries[index])
                        expected[key] = answers_equal(
                            answer_from_wire(json.loads(record[5])), answer
                        )
                    ok = expected[key]
                out.check(ok, f"wire answer for query {index} (status {record[4]})")

    if ctx.trace:
        t_steps, _q, warm_s = traced_run
        spans, counters = load_spans(ctx.spans_path("serve-http", "server"))
        client = {}
        rid = 1
        for _ladder, _rate, _schedule, records in t_steps:
            for record in records:
                if record[4] == 200:
                    client[str(rid)] = record[3] - record[2]
                rid += 1
        t_serving = _serving_summary(t_steps)
        extra = layers.serving_metrics(spans, counters, client)
        extra.update(
            {
                "serving.sample_cache_build_s": warm_s,
                "serving.qps_at_slo": serving["qps_at_slo"],
                "serving.p50_ms": serving["p50_ms"],
                "serving.p95_ms": serving["p95_ms"],
                "serving.p99_ms": serving["p99_ms"],
                "serving.stop_s": median(stops),
                "trace.overhead_s": (t_serving["p50_ms"] - serving["p50_ms"]) / 1e3,
            }
        )
        out.layers = layers.layer_metrics([], {}, extra)
        out.layers["trace.spans"] = len(spans)
    model_path.unlink()
    root.rmdir()
    return out


WORKLOADS = {
    "release-serial": release_serial,
    "publish-1m": publish_1m,
    "fleet-release": fleet_release,
    "serve-http": serve_http,
}
