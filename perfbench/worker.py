"""In-process workloads: one worker process, one closed-loop caller.

    python3 perfbench/worker.py --workload sweep-designs --seed 1 \
        --seconds 30 --trace 0 [--setup-only]

``run.py`` starts this with pinned BLAS threads.  The worker prints
``READY <monotonic seconds>`` once imports and one-time construction
are done (``--setup-only`` exits there).  It then discards warm-up ops,
runs the timed closed loop and prints one JSON line of raw results.

With ``--trace 1`` each of a fixed number of ops runs twice, once with
:class:`tracer.LayerTracer` recording and once without, giving the
per-layer numbers and the tracing overhead (see :func:`traced_pairs`).
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from repro.evaluation.engine import SweepEngine  # noqa: E402
from repro.evaluation.sweep import enumerate_designs  # noqa: E402
from repro.evaluation.timeline import default_time_grid  # noqa: E402
from repro.observability import REGISTRY  # noqa: E402
from repro.patching.campaign import PatchCampaign  # noqa: E402

from common import (  # noqa: E402
    HostProbe,
    min_ops,
    program_counts,
    registry_delta,
    registry_values,
    vmhwm_mb,
)
from tracer import LayerTracer  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

TABLE_VI_LABEL = "1 DNS + 2 WEB + 2 APP + 1 DB"
TABLE_VI_COA = 0.997072


class SweepDesigns:
    """A fresh serial ``SweepEngine().evaluate`` over the 81-design space.

    The space is ``dns,web,app,db`` with at most three replicas per
    tier; the seed shuffles the design order of every op.
    """

    name = "sweep-designs"
    #: Discarded warm-up ops (a fixed count, so the timed ops a seed
    #: draws never depend on host speed), about 2 s of work.
    warmup_ops = 3
    #: Typical op seconds, which sizes the traced run.
    nominal_op_s = 0.7

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.designs = list(enumerate_designs(["dns", "web", "app", "db"], 3))
        self.reference: str | None = None

    def next_op(self):
        order = list(self.designs)
        self.rng.shuffle(order)
        return order

    @staticmethod
    def items(op) -> int:
        return len(op)

    @staticmethod
    def run(op):
        engine = SweepEngine()
        return engine.evaluate(op), engine

    def check(self, op, evaluations) -> bool:
        """Table VI's COA, and bytes identical to the first op's."""
        rows = []
        table_vi_ok = False
        for evaluation in sorted(evaluations, key=lambda e: e.label):
            rows.append(
                (
                    evaluation.label,
                    evaluation.before.coa.hex(),
                    evaluation.after.coa.hex(),
                    sorted(evaluation.before.security.as_dict().items()),
                    sorted(evaluation.after.security.as_dict().items()),
                )
            )
            if evaluation.label == TABLE_VI_LABEL:
                table_vi_ok = round(evaluation.after.coa, 6) == TABLE_VI_COA
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        if self.reference is None:
            self.reference = digest
        return table_vi_ok and len(rows) == len(op) and digest == self.reference


class TimelineCampaign:
    """A fresh serial ``SweepEngine().timeline`` under a 3-phase campaign.

    Each op takes the next 9 designs of a seeded permutation of the
    27-design ``dns,web,app`` (at most three replicas) space, so three
    ops cover the space once, on a 40-point grid whose horizon the seed
    draws from 360-1440 h.
    """

    name = "timeline-campaign"
    warmup_ops = 5
    nominal_op_s = 0.37
    BLOCK = 9
    CAMPAIGN = "canary:0.1:48:1,ramp:0.5:50%,fleet:1.0"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.designs = list(enumerate_designs(["dns", "web", "app"], 3))
        self.campaign = PatchCampaign.parse(self.CAMPAIGN)
        self.pending: list = []
        self.reference: dict | None = None

    def next_op(self):
        if not self.pending:
            self.pending = list(self.designs)
            self.rng.shuffle(self.pending)
        block = self.pending[: self.BLOCK]
        self.pending = self.pending[self.BLOCK :]
        horizon = self.rng.uniform(360.0, 1440.0)
        return block, default_time_grid(horizon, 40)

    @staticmethod
    def items(op) -> int:
        return len(op[0])

    def run(self, op):
        engine = SweepEngine()
        return engine.timeline(op[0], op[1], campaign=self.campaign), engine

    def check(self, op, timelines) -> bool:
        """Curve invariants, and ``steady_coa`` bit-equal to ``evaluate``'s.

        The reference COAs are computed at the first check, which falls
        in the untimed warm-up.
        """
        if self.reference is None:
            self.reference = {
                e.design: e.after.coa.hex()
                for e in SweepEngine().evaluate(self.designs)
            }
        ok = len(timelines) == len(op[0])
        for timeline in timelines:
            completion = timeline.completion_probability
            ok = ok and (
                timeline.coa[0] == 1.0
                and completion[0] == 0.0
                and tuple(timeline.phase_starts[:2]) == (0.0, 48.0)
                and all(b >= a for a, b in zip(completion, completion[1:]))
                and timeline.steady_coa.hex() == self.reference[timeline.design]
            )
        return ok


WORKLOADS = {cls.name: cls for cls in (SweepDesigns, TimelineCampaign)}


def run_op(workload, op) -> tuple[float, bool, object]:
    """One timed op and its output check (untimed).

    An op that raises, or whose check raises, fails; the loop goes on.
    """
    engine = None
    start = time.perf_counter()
    try:
        result, engine = workload.run(op)
        latency = time.perf_counter() - start
        ok = workload.check(op, result)
    except Exception:
        latency = time.perf_counter() - start
        ok = False
        traceback.print_exc()
    return latency, ok, engine


def timed_loop(workload, seconds: float, probe: HostProbe):
    """Closed loop for *seconds*: ``(latencies, items, oks, marks)``.

    The loop goes on past *seconds* until it holds the workload's
    :func:`common.min_ops`, so its tail percentile is always supported.
    *items* counts the items of ops that passed their check; *marks*
    holds, per op, the host probe reading taken right after it.
    """
    latencies, oks, marks = [], [], []
    items = 0
    floor = min_ops(workload.name)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < floor:
        op = workload.next_op()
        latency, ok, _ = run_op(workload, op)
        marks.append(probe.maybe())
        latencies.append(latency)
        oks.append(ok)
        items += workload.items(op) if ok else 0
    return latencies, items, oks, marks


def traced_pairs(workload, seconds: float, probe: HostProbe):
    """Each of a fixed number of ops once untraced and once traced.

    The op count depends only on *seconds* (about half of it per side
    at the nominal op time), so a seed and a run length give the same
    ops, and the program's per-op counts repeat exactly.  Alternating
    which side goes first keeps slow host drift and cache warmth out of
    ``trace.overhead_ratio``.
    """
    count = max(2, round(seconds / 2.0 / workload.nominal_op_s))
    ops = [workload.next_op() for _ in range(count)]
    tracer = LayerTracer()
    tracer.install()
    tracer.enabled = False
    before = registry_values(REGISTRY.to_dict())
    latencies, traced_latencies, op_starts, oks = [], [], [], []
    items = 0
    memo_entries = 0
    for index, op in enumerate(ops):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            tracer.enabled = traced
            if traced:
                op_starts.append(time.perf_counter())
            latency, ok, engine = run_op(workload, op)
            probe.maybe()
            (traced_latencies if traced else latencies).append(latency)
            oks.append(ok)
            items += workload.items(op) if ok and not traced else 0
            memo_entries = engine.cache_info["size"] if engine else memo_entries
    tracer.enabled = False
    delta = registry_delta(before, registry_values(REGISTRY.to_dict()))
    return latencies, items, oks, {
        "traced_latencies": traced_latencies,
        "traced_items": sum(workload.items(op) for op in ops),
        "trace": tracer.summary(op_starts=op_starts),
        "counts": program_counts(delta),
        "counted_ops": 2 * count,
        "memo_entries": memo_entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    probe = HostProbe()
    for _ in range(workload.warmup_ops):
        run_op(workload, workload.next_op())
        probe.maybe()
    result: dict = {"import_s": IMPORT_S}
    if not args.trace:
        latencies, items, oks, marks = timed_loop(workload, args.seconds, probe)
        result.update(peak_rss_mb=vmhwm_mb(), probe_marks=marks)
    else:
        latencies, items, oks, traced = traced_pairs(workload, args.seconds, probe)
        result.update(traced)
    result.update(
        latencies=latencies,
        items=items,
        attempted=len(oks),
        failed=oks.count(False),
        ref_ms=probe.ref_ms(),
        probe_ms=probe.samples,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
