"""Per-layer spans: where the wrappers go and how spans become metrics.

:func:`install` wraps the library's layer boundaries for one traced
iteration; :func:`layer_metrics` folds the recorded spans into the named
per-layer metrics.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import os
import pickle

from tracer import Tracer, self_times

#: Per-layer metric name -> unit (every traced run reports all of them).
LAYER_UNITS = {
    "pipeline.binning_s": "s",
    "pipeline.selection_s": "s",
    "pipeline.combine_s": "s",
    "pipeline.publish_s": "s",
    "pipeline.consistency_s": "s",
    "engine.fit_tasks_s": "s",
    "engine.fit_tasks": "count",
    "synthesis.init_s": "s",
    "synthesis.gum_prepare_s": "s",
    "synthesis.gum_step_ms": "ms",
    "synthesis.gum_steps": "count",
    "synthesis.gum_iterations": "count",
    "synthesis.decode_us_per_record": "us",
    "engine.shard_wait_s": "s",
    "engine.shm_import_s": "s",
    "data.concat_s": "s",
    "data.sink_write_s": "s",
    "data.sink_bytes": "bytes",
    "engine.pool_open_s": "s",
    "engine.pool_close_s": "s",
    "fleet.run_tasks_s": "s",
    "fleet.shard_work_s": "s",
    "fleet.overhead_per_shard_ms": "ms",
    "fleet.spool_bytes": "bytes",
    "fleet.close_s": "s",
    "fleet.shard_retries": "count",
    "fleet.workers_lost": "count",
    "io.load_model_s": "s",
    "serving.sample_cache_build_s": "s",
    "serving.qps_at_slo": "1/s",
    "serving.p50_ms": "ms",
    "serving.p95_ms": "ms",
    "serving.p99_ms": "ms",
    "serving.stop_s": "s",
    "serving.parse_us": "us",
    "serving.handle_us": "us",
    "serving.batch_wait_us": "us",
    "serving.engine_us": "us",
    "serving.batch_size": "count",
    "serving.render_us": "us",
    "serving.cache_hit_ratio": "ratio",
    "http.transport_us": "us",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.unaccounted_share": "ratio",
}

def install(tracer: Tracer, fleet_results: list | None = None) -> None:
    """Wrap the release-side layers (fit pipeline, engine, synthesis, data,
    io, fleet).  ``fleet_results`` collects each fleet release's shard
    results so their transport size can be measured after timing."""
    from repro.data import sinks, table
    from repro.engine import backends, plan
    from repro.fleet import cluster, queue
    from repro.io import model
    from repro.pipeline import stages
    from repro.synthesis.kernels import get_kernel, resolve_kernel_name

    for stage in (
        stages.BinningStage,
        stages.SelectionStage,
        stages.CombineStage,
        stages.PublishStage,
        stages.ConsistencyStage,
    ):
        tracer.wrap(stage, "run", f"pipeline.{stage.name}")

    def count_tasks(_span, args, _result):
        if tracer.inside("op.fit"):
            tracer.count("engine.fit_tasks", len(args[2]))

    for backend in (backends.SerialBackend, backends.ThreadBackend, backends.ProcessBackend):
        tracer.wrap(backend, "run_tasks", "engine.run_tasks", on_result=count_tasks)
        tracer.wrap_generator(backend, "imap_tasks", "engine.shard_wait")
    tracer.wrap(backends.ProcessBackend, "open", "engine.pool_open")
    tracer.wrap(backends.SharedMemoryBackend, "close", "engine.pool_close")
    tracer.wrap(backends, "import_result", "engine.shm_import")
    tracer.wrap(table.TraceTable, "concat_all", "data.concat")
    tracer.wrap(sinks.TraceSink, "write", "data.sink_write")

    tracer.wrap(plan, "marginal_initialization", "synthesis.init")
    tracer.wrap(plan, "run_gum", "synthesis.gum")
    kernel_cls = type(get_kernel(resolve_kernel_name("auto")))
    tracer.wrap(kernel_cls, "prepare", "synthesis.gum_prepare")
    tracer.wrap(kernel_cls, "step", "synthesis.gum_step")
    tracer.wrap(plan.SynthesisPlan, "finalize", "synthesis.decode")

    tracer.wrap(model, "load_model", "io.load_model")

    def keep_results(_span, args, result):
        tracer.count("fleet.tasks", len(args[2]))
        if fleet_results is not None and tracer.inside("op.sample"):
            fleet_results.append((args[0].spool, result))

    tracer.wrap(cluster.LocalCluster, "run_tasks", "fleet.run_tasks", on_result=keep_results)
    tracer.wrap(cluster.LocalCluster, "close", "fleet.close")

    def count_lease(_span, _args, result):
        # Leases happen on the cluster's dispatcher thread, so they are
        # counted for every release of the cycle, warm-up included.
        if result is not None:
            tracer.count("fleet.leases")

    tracer.wrap(queue.ShardQueue, "lease", "fleet.lease", on_result=count_lease)


def fleet_spool_bytes(fleet_results: list) -> int:
    """Bytes a fleet release moved through its spool: the shipped payload
    files still in the spool plus every shard result as the worker pickles it."""
    total = 0
    for spool, results in fleet_results:
        if os.path.isdir(spool):
            total += sum(entry.stat().st_size for entry in os.scandir(spool))
        total += sum(len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results)
    return total


def _ancestors(spans: list) -> dict:
    by_id = {s[0]: s for s in spans}
    names: dict = {}
    for span in spans:
        chain = set()
        parent = span[4]
        while parent is not None and parent in by_id:
            chain.add(by_id[parent][1])
            parent = by_id[parent][4]
        names[span[0]] = chain
    return names


def _scoped(name: str, above: set) -> str:
    """A span's name, suffixed when it ran outside the phase its metric covers."""
    if name.startswith("engine.pool_") and "op.fit" in above:
        return name + ".fit"  # the fit executor's own pool
    if name == "engine.run_tasks" and "op.fit" not in above:
        return name + ".release"
    if name in ("fleet.run_tasks", "fleet.lease") and "op.sample" not in above:
        return name + ".setup"  # the warm-up release, or the dispatcher thread
    return name


def layer_metrics(spans: list, counters: dict, extra: dict | None = None) -> dict:
    """Every per-layer metric (``{name: value}``) from one traced iteration.

    ``spans`` carry the benchmark's own ``op.fit`` / ``op.sample`` /
    ``op.teardown`` roots; ``extra`` supplies values measured outside the
    spans (iteration counts, byte sizes, serving joins, overhead).
    """
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    selfs = self_times(spans)
    above = _ancestors(spans)
    total: dict = {}
    count: dict = {}
    for span in spans:
        span_id, name, start, end = span[:4]
        name = _scoped(name, above[span_id])
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
    for stage in ("binning", "selection", "combine", "publish", "consistency"):
        out[f"pipeline.{stage}_s"] = total.get(f"pipeline.{stage}", 0.0)
    out["engine.fit_tasks_s"] = total.get("engine.run_tasks", 0.0)
    out["engine.fit_tasks"] = counters.get("engine.fit_tasks", 0)
    out["synthesis.init_s"] = total.get("synthesis.init", 0.0)
    out["synthesis.gum_prepare_s"] = total.get("synthesis.gum_prepare", 0.0)
    steps = count.get("synthesis.gum_step", 0)
    out["synthesis.gum_steps"] = steps
    out["synthesis.gum_step_ms"] = total.get("synthesis.gum_step", 0.0) / steps * 1e3 if steps else 0.0
    for key, name in (
        ("engine.shard_wait_s", "engine.shard_wait"),
        ("engine.shm_import_s", "engine.shm_import"),
        ("data.concat_s", "data.concat"),
        ("data.sink_write_s", "data.sink_write"),
        ("engine.pool_open_s", "engine.pool_open"),
        ("engine.pool_close_s", "engine.pool_close"),
        ("fleet.run_tasks_s", "fleet.run_tasks"),
        ("fleet.close_s", "fleet.close"),
        ("io.load_model_s", "io.load_model"),
    ):
        out[key] = total.get(name, 0.0)
    tasks = counters.get("fleet.tasks", 0)
    out["fleet.shard_retries"] = max(0, counters.get("fleet.leases", 0) - tasks)
    out["trace.spans"] = len(spans)
    ops = [s for s in spans if s[1] in ("op.fit", "op.sample")]
    if ops:
        unaccounted = sum(selfs[s[0]] for s in ops)
        wall = sum(s[3] - s[2] for s in ops)
        out["trace.unaccounted_s"] = unaccounted
        out["trace.unaccounted_share"] = unaccounted / wall if wall else 0.0
    out.update(extra or {})
    return out


def serving_metrics(spans: list, counters: dict, client: dict) -> dict:
    """Server-side spans joined to client requests by request id.

    ``client`` maps request id -> client-observed seconds from send to
    answer; ``http.transport_us`` is that minus the server's
    ``handle_query`` time for the same request.
    """
    loads = sorted((start, end) for _id, name, start, end, _p, _r in spans if name == "io.load_model")
    load_s = loads[0][1] - loads[0][0] if loads else 0.0  # the set-up load, not a hot reload
    # Only the load generator's requests carry a request id; set-up queries
    # (cache builds, hot-set warming) stay out of the per-request figures.
    spans = [s for s in spans if s[5] is not None]
    selfs = self_times(spans)
    durations: dict = {}
    handle_by_rid: dict = {}
    for span_id, name, start, end, _parent, rid in spans:
        value = selfs[span_id] if name == "serving.batch_submit" else end - start
        durations.setdefault(name, []).append(value)
        if name == "serving.handle" and rid is not None:
            handle_by_rid[str(rid)] = end - start

    def mean_us(name: str) -> float:
        values = durations.get(name, [])
        return sum(values) / len(values) * 1e6 if values else 0.0

    joined = [client[rid] - handle for rid, handle in handle_by_rid.items() if rid in client]
    hits = counters.get("serving.cache_hits", 0)
    lookups = hits + counters.get("serving.cache_misses", 0)
    batches = counters.get("serving.batches", 0)
    return {
        "serving.parse_us": mean_us("serving.parse"),
        "serving.handle_us": mean_us("serving.handle"),
        "serving.batch_wait_us": mean_us("serving.batch_submit"),
        "serving.engine_us": mean_us("serving.engine"),
        "serving.batch_size": counters.get("serving.batched_queries", 0) / batches
        if batches
        else 0.0,
        "serving.render_us": mean_us("serving.render"),
        "serving.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "http.transport_us": sum(joined) / len(joined) * 1e6 if joined else 0.0,
        "io.load_model_s": load_s,
    }
