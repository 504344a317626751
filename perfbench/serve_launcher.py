"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py SUMMARY.json serve --port 0 ...

Installs :class:`tracer.LayerTracer` in this process, then runs
``repro.__main__.main`` with the remaining arguments.  Each ``GET /v1/healthz`` marks a time; when the server
exits, the spans between the last two marks (the caller's timed phase)
are summarised into SUMMARY.json together with the import time and
``read_s``, the summed time of the service's HTTP request reads inside
that window.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from repro.__main__ import main as repro_main  # noqa: E402
from repro.evaluation.service import EvaluationService  # noqa: E402

from tracer import LayerTracer  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START


def launch(summary_path: str, argv: list[str]) -> int:
    tracer = LayerTracer()
    tracer.install()
    marks: list[float] = []
    healthz = EvaluationService.healthz

    def marked_healthz(self):
        marks.append(time.perf_counter())
        return healthz(self)

    reads: list[tuple[float, float]] = []
    read_request = EvaluationService._read_request

    async def timed_read_request(reader):
        start = time.perf_counter()
        try:
            return await read_request(reader)
        finally:
            reads.append((start, time.perf_counter()))

    EvaluationService.healthz = marked_healthz
    EvaluationService._read_request = staticmethod(timed_read_request)
    try:
        return repro_main(argv)
    finally:
        window = marks[-2:] if len(marks) >= 2 else [float("-inf"), float("inf")]
        summary = tracer.summary(*window)
        summary["import_s"] = IMPORT_S
        summary["read_s"] = sum(
            end - start for start, end in reads if window[0] <= start <= window[1]
        )
        with open(summary_path, "w", encoding="utf-8") as out:
            json.dump(summary, out)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1], sys.argv[2:]))
