"""Run the ``serve-http`` CLI with server-side spans installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_OUT -- <serve-http args>``.

Wraps the serving layers where the handler and service look them up, reads
the load generator's ``X-Bench-Rid`` header in ``do_POST`` so every span of
one request shares its id, then calls :func:`repro.serving.http.main`
unchanged.  Spans are written to ``SPANS_OUT`` after the server has shut
down.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import RID_HEADER  # noqa: E402
from tracer import Tracer  # noqa: E402


def install(tracer: Tracer) -> None:
    from repro.io import model
    from repro.serving import engine, http, service

    handler = http.ServingRequestHandler
    original_post = handler.do_POST

    def do_post(self):
        tracer.set_request(self.headers.get(RID_HEADER))
        try:
            with tracer.span("http.do_POST"):
                original_post(self)
        finally:
            tracer.set_request(None)

    tracer.replace(handler, "do_POST", do_post)
    tracer.wrap(service, "query_from_wire", "serving.parse")
    tracer.wrap(service, "answer_to_wire", "serving.render")
    tracer.wrap(service.QueryService, "handle_query", "serving.handle")
    tracer.wrap(service.MicroBatcher, "submit", "serving.batch_submit")

    def record_batch(span_id, args, result):
        tracer.count("serving.batches")
        tracer.count("serving.batched_queries", len(result) if isinstance(result, list) else 1)

    tracer.wrap(engine.QueryEngine, "run_batch", "serving.engine", on_result=record_batch)
    tracer.wrap(engine.QueryEngine, "run", "serving.engine", on_result=record_batch)

    def record_hit(span_id, args, result):
        tracer.count("serving.cache_misses" if result is None else "serving.cache_hits")

    tracer.wrap(service.AnswerCache, "get", "serving.cache_get", on_result=record_hit)
    tracer.wrap(model, "load_model", "io.load_model")


def main() -> int:
    spans_out = sys.argv[1]
    argv = sys.argv[3:] if sys.argv[2:3] == ["--"] else sys.argv[2:]
    from repro.serving import http

    tracer = Tracer()
    install(tracer)
    try:
        code = http.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
