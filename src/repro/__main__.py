"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``
    Print every table/figure of the paper (the full pipeline).
``bundle --out DIR``
    Write the experiment artifacts (tables, figure data, CSV) to DIR.
``designs``
    Print the five paper designs with their after-patch metrics and the
    Eq. (3)/(4) region selections.
``sweep``
    Evaluate a whole design space through the sweep engine, as a table
    or JSON.  The default space is roles x
    replica counts; ``--variants`` switches to the heterogeneous
    (software-diversity) space, enumerating variant-count assignments
    from the paper's variant pools and the diversity database.
``timeline``
    Patch-timeline curves over a design space: transient COA, patch
    completion probability, expected unpatched fraction, mean time to
    completion and security-exposure curves on a shared time grid, all
    in closed form.  Takes the same space options as ``sweep`` plus
    the time grid (``--horizon``/``--points`` or an explicit
    ``--times`` list) and an optional staged rollout: ``--campaign
    FILE`` (JSON spec) or ``--phases name:mult[:trigger[:canary]],...``
    shorthand.  A staged
    campaign carries the state across phase boundaries; a single-phase
    multiplier-1 campaign is byte-identical to the stationary timeline.
``serve``
    Resident evaluation service: a bounded pool of warm sweep-engine
    *lanes* (solved evaluators and result caches), one per evaluation
    context, behind a versioned
    HTTP/JSON API.  ``POST /v1/sweep`` and ``POST /v1/timeline`` take
    one request envelope (space / options / priority / deadline_ms /
    stream) and answer with exactly the corresponding ``--json``
    payload — or stream it chunk by chunk as newline-delimited JSON;
    ``GET /v1/healthz`` reports liveness, per-lane state and request
    counters.  Every other path answers 404.
``shard``
    Coordinator for horizontal scale-out: partition a design space
    across several running ``serve`` processes by the stable design
    cache-key hash, fan the requests out with retry/failover, and
    merge the partial payloads byte-identically to a single-process
    run.
``cache``
    Maintain a ``--cache`` sqlite file: ``stats``, ``purge``
    (everything, one scope or one context fingerprint) and ``trim``
    (LRU-evict down to entry/size bounds).

Observability
-------------
Every command accepts a global ``-v``/``--verbose`` flag (repeat for
debug level) that turns on the module loggers — evaluator builds,
cache writes.  ``sweep`` and ``timeline`` accept ``--trace FILE``:
span tracing is enabled for the run and a Chrome trace-event JSON file
(open it in Perfetto or ``chrome://tracing``) is written on success.
``serve`` exposes the process-wide metrics registry on ``GET /metrics``
— JSON by default, Prometheus text exposition when the ``Accept``
header asks for ``text/plain`` — and emits a structured JSON access
log line per request on stderr.  Results are byte-identical with
instrumentation on or off.

Resilience
----------
``sweep`` and ``timeline`` accept ``--deadline MS`` (wall-clock budget,
checked between chunk dispatches; exceeded deadlines exit 3) and
``--metrics FILE`` (JSON snapshot of the process metrics registry after
the run).  Cache lock contention is retried, then degraded to
memory-only, and a failed iterative solve falls back to the direct
one, rather than failing the run; ``REPRO_FAULTS`` injects
deterministic faults to exercise those paths (see the ``--help``
epilog).  ``serve`` sheds load with 503 + ``Retry-After`` once
``--max-queue`` distinct computations are in flight, and drains
gracefully on SIGTERM (``--drain-grace``).

Both space commands accept ``--cache PATH``: a sqlite file that
persists results across invocations, so re-running a sweep or timeline
only pays for designs not seen before.  COA comes from the closed form
of the independent per-server chains (no upper-layer state space); the
lower-layer aggregates are solved once per distinct server stack.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Sequence

__all__ = ["main"]


def _reproduce(_: argparse.Namespace) -> int:
    from repro.enterprise import example_network_design, paper_case_study
    from repro.evaluation import AvailabilityEvaluator, SecurityEvaluator
    from repro.evaluation.report import (
        aggregated_rates_table,
        security_metrics_table,
        vulnerability_table,
    )
    from repro.patching import CriticalVulnerabilityPolicy

    case_study = paper_case_study()
    policy = CriticalVulnerabilityPolicy()
    example = example_network_design()
    print("[Table I]")
    print(vulnerability_table(case_study))
    security = SecurityEvaluator(case_study)
    print("\n[Table II]")
    print(
        security_metrics_table(
            security.before_patch(example),
            security.after_patch(example, policy),
        )
    )
    availability = AvailabilityEvaluator(case_study, policy)
    print("\n[Table V]")
    print(aggregated_rates_table(availability.aggregates_for(example)))
    print("\n[Table VI]")
    coa = availability.network_model(example).capacity_oriented_availability()
    print(f"COA({example.label}) = {coa:.6f}")
    return 0


def _designs(_: argparse.Namespace) -> int:
    from repro.enterprise import paper_designs
    from repro.evaluation import evaluate_designs, satisfying_designs
    from repro.evaluation.report import design_comparison_table
    from repro.evaluation.requirements import (
        PAPER_REGION_1_MULTI_METRIC,
        PAPER_REGION_1_TWO_METRIC,
        PAPER_REGION_2_MULTI_METRIC,
        PAPER_REGION_2_TWO_METRIC,
    )

    evaluations = evaluate_designs(paper_designs())
    print(design_comparison_table(evaluations))
    for label, region in (
        ("Eq.3 region 1", PAPER_REGION_1_TWO_METRIC),
        ("Eq.3 region 2", PAPER_REGION_2_TWO_METRIC),
        ("Eq.4 region 1", PAPER_REGION_1_MULTI_METRIC),
        ("Eq.4 region 2", PAPER_REGION_2_MULTI_METRIC),
    ):
        names = [e.label for e in satisfying_designs(evaluations, region)]
        print(f"{label}: {', '.join(names) if names else '(none)'}")
    return 0


def _fields(args: argparse.Namespace, timeline: bool) -> dict:
    """The flat ``/v1`` request fields of ``sweep``, ``timeline`` or ``shard``.

    :func:`repro.evaluation.api.envelope` wraps them and
    :func:`~repro.evaluation.api.parse_request` checks them, exactly as
    ``repro serve`` checks a request body.  A ``--scaled`` space sends
    no roles (its tiers name them).
    """
    from repro.errors import ValidationError

    fields: dict = {
        "max_replicas": args.max_replicas,
        "max_total": args.max_total,
        "variants": args.variants,
    }
    if args.scaled:
        fields["scaled"] = args.scaled
    else:
        fields["roles"] = args.roles
    if not timeline:
        return fields
    if args.times:
        try:
            fields["times"] = [
                float(part) for part in args.times.split(",") if part.strip()
            ]
        except ValueError as exc:
            raise ValidationError(f"bad time grid ({exc})") from None
    else:
        fields["horizon"] = args.horizon
        fields["points"] = args.points
    if getattr(args, "campaign", None):
        from repro.patching import PatchCampaign

        fields["campaign"] = PatchCampaign.from_json_file(args.campaign).to_dict()
    if args.phases:
        fields["phases"] = args.phases
    return fields


def _start_trace(args: argparse.Namespace) -> bool:
    """Enable span tracing when ``--trace FILE`` was given."""
    if not getattr(args, "trace", None):
        return False
    from repro.observability import tracing

    tracing.enable()
    tracing.drain()  # a fresh trace per invocation
    return True


def _finish_trace(args: argparse.Namespace) -> None:
    """Write the accumulated spans as Chrome trace-event JSON."""
    from repro.observability import tracing, write_chrome_trace

    count = write_chrome_trace(args.trace)
    tracing.disable()
    print(f"trace: wrote {count} span(s) to {args.trace}", file=sys.stderr)


def _deadline_from_args(args: argparse.Namespace):
    """The ``--deadline MS`` budget as a started clock, or ``None``.

    The clock starts here — immediately before the engine call — so the
    budget covers evaluation, not argument parsing or imports.
    """
    if args.deadline is None:
        return None
    from repro.errors import ValidationError
    from repro.resilience import Deadline

    try:
        return Deadline.after_ms(args.deadline)
    except ValueError as exc:
        raise ValidationError(f"--deadline: {exc}") from None


def _dump_metrics(args: argparse.Namespace) -> None:
    """Write the process metrics registry as JSON (``--metrics FILE``)."""
    path = getattr(args, "metrics", None)
    if not path:
        return
    from repro.observability import REGISTRY

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(REGISTRY.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"metrics: wrote registry snapshot to {path}", file=sys.stderr)


def _evaluate_space(args: argparse.Namespace) -> int:
    """``sweep`` and ``timeline``: one ``/v1`` request, evaluated here.

    The request is parsed, enumerated and answered by the same code as
    a ``repro serve`` lane, so ``--json`` prints the service's payload.
    """
    from repro.errors import DeadlineExceeded, ReproError
    from repro.evaluation import api
    from repro.evaluation.engine import SweepEngine

    timeline = args.timeline
    command = "timeline" if timeline else "sweep"
    tracing_on = _start_trace(args)
    try:
        req = api.parse_request(
            api.envelope(_fields(args, timeline), timeline), timeline
        )
        designs = api.enumerate_space(req.space)
        with SweepEngine.for_space(req.space, cache_path=args.cache) as engine:
            deadline = _deadline_from_args(args)
            if timeline:
                results = engine.timeline(
                    designs, req.times, campaign=req.campaign, deadline=deadline
                )
            else:
                results = engine.evaluate(designs, deadline=deadline)
    except DeadlineExceeded as exc:
        print(f"{command} failed: {exc}", file=sys.stderr)
        _dump_metrics(args)
        return 3
    except ReproError as exc:
        print(f"{command} failed: {exc}", file=sys.stderr)
        return 2
    if tracing_on:
        _finish_trace(args)
    _dump_metrics(args)
    if args.json:
        header = api.header(req.space, designs)
        if timeline:
            payload = api.timeline_response(
                *header, req.campaign, req.times, results
            )
        else:
            payload = api.sweep_response(*header, results)
        print(json.dumps(payload, indent=2))
    elif timeline:
        _print_timelines(req.campaign, req.times, results)
    else:
        from repro.evaluation.report import design_comparison_table
        from repro.evaluation.sweep import pareto_front

        front = {id(e) for e in pareto_front(results)}
        print(design_comparison_table(results))
        labels = [e.label for e in results if id(e) in front]
        print(f"\nPareto front (after patch): {', '.join(labels)}")
    return 0


def _print_timelines(campaign, times, timelines) -> None:
    """The ``timeline`` table: one line per design."""
    if campaign is not None:
        print(f"campaign {campaign}")
    print(
        f"{'design':<42} {'srv':>3} {'MTTPC (h)':>10} {'min COA':>9} "
        f"{'COA(end)':>9} {'P(done)':>8}"
    )
    for timeline in timelines:
        mttc = timeline.mean_time_to_completion
        mttc_text = f"{mttc:10.1f}" if mttc != float("inf") else "       inf"
        print(
            f"{timeline.label:<42} {timeline.design.total_servers:>3} "
            f"{mttc_text} {timeline.min_coa:9.6f} "
            f"{timeline.coa[-1]:9.6f} {timeline.completion_probability[-1]:8.4f}"
        )
    print(f"\n{len(timelines)} designs, grid 0..{times[-1]:g} h x {len(times)} points")


def _cache(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.evaluation.cache import PersistentEvaluationCache

    try:
        with PersistentEvaluationCache(args.cache) as cache:
            if args.cache_command == "stats":
                stats = cache.stats()
                if args.json:
                    print(json.dumps(stats, indent=2))
                else:
                    print(f"cache {stats['path']}")
                    print(
                        f"  {stats['entries']} entries, "
                        f"{stats['bytes'] / 1e6:.2f} MB"
                    )
                    for scope, info in stats["scopes"].items():
                        print(
                            f"  {scope:<12} {info['entries']:>6} entries  "
                            f"{info['bytes'] / 1e6:8.2f} MB"
                        )
            elif args.cache_command == "purge":
                removed = cache.purge(
                    fingerprint=args.fingerprint, scope=args.scope
                )
                print(f"purged {removed} entries")
            elif args.cache_command == "trim":
                if args.max_entries is None and args.max_mb is None:
                    print(
                        "trim needs --max-entries and/or --max-mb",
                        file=sys.stderr,
                    )
                    return 2
                removed = cache.trim(
                    max_entries=args.max_entries,
                    max_bytes=(
                        int(args.max_mb * 1e6)
                        if args.max_mb is not None
                        else None
                    ),
                )
                print(f"evicted {removed} least-recently-used entries")
    except ReproError as exc:
        print(f"cache failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.evaluation.service import EvaluationService

    try:
        service = EvaluationService(
            cache_path=args.cache,
            lanes=args.lanes,
            max_designs=args.max_designs,
            max_queue=args.max_queue if args.max_queue > 0 else None,
            retry_after=args.retry_after,
            drain_grace=args.drain_grace,
        )
    except ReproError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 2
    try:
        with service:
            service.run(host=args.host, port=args.port)
    except KeyboardInterrupt:
        pass
    except (ReproError, OSError) as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _shard(args: argparse.Namespace) -> int:
    from repro.errors import DeadlineExceeded, ReproError
    from repro.evaluation.sharding import ShardCoordinator

    endpoints = [
        part.strip() for part in args.endpoints.split(",") if part.strip()
    ]
    try:
        fields = {**_fields(args, args.timeline), "priority": args.priority}
        if args.deadline is not None:
            fields["deadline_ms"] = args.deadline
        coordinator = ShardCoordinator(endpoints, timeout=args.timeout)
        if args.timeline:
            payload = coordinator.timeline(**fields)
        else:
            payload = coordinator.sweep(**fields)
    except ReproError as exc:
        print(f"shard failed: {exc}", file=sys.stderr)
        # A blown deadline_ms keeps the CLI deadline exit-code contract.
        return 3 if isinstance(exc, DeadlineExceeded) else 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        front = [d["label"] for d in payload["designs"] if d.get("pareto")]
        print(
            f"{payload['design_count']} designs merged from "
            f"{coordinator.shard_count} shard(s)"
        )
        if front:
            print(f"Pareto front (after patch): {', '.join(front)}")
    return 0


def _bundle(args: argparse.Namespace) -> int:
    from repro.evaluation import write_experiment_bundle

    paths = write_experiment_bundle(args.out)
    for path in paths:
        print(path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI dispatcher; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of Ge, Kim & Kim (DSN-W 2017): security and "
            "availability of redundancy designs under security patching."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "closed-form COA:\n"
            "  'sweep' and 'timeline' compute COA in closed form: the upper-\n"
            "  layer SRN is a product of independent per-server up/down\n"
            "  chains, so COA factorises per tier and needs no state space\n"
            "  (the SRN stays the oracle behind 'reproduce').  The per-role\n"
            "  Table V aggregates are solved once per distinct server stack\n"
            "  and reused across the whole design space.  Persistent result\n"
            "  caches (--cache PATH) are maintained with\n"
            "  'python -m repro cache stats|purge|trim'.\n"
            "\n"
            "staged rollouts:\n"
            "  'timeline' models staged patch campaigns (canary -> ramp ->\n"
            "  fleet) with --campaign FILE (JSON spec) or --phases\n"
            "  name:mult[:trigger[:canary]],...: each phase scales every\n"
            "  patch rate by its multiplier and ends after a fixed duration\n"
            "  (trigger '48' = 48 h) or once the expected patched fraction\n"
            "  reaches a threshold (trigger '25%' ); the final phase must\n"
            "  omit its trigger (it runs forever).\n"
            "  A canary host count caps concurrent patching fleet-wide.\n"
            "  Every curve carries each server's state across boundaries in\n"
            "  closed form; '--phases fleet:1.0' is byte-identical to the\n"
            "  stationary timeline.\n"
            "\n"
            "large state spaces:\n"
            "  --scaled HxT generates a chain enterprise of T tiers with H\n"
            "  replicas each ((H+1)^T availability states; 9x4 = 10,000) and\n"
            "  evaluates that single design through the same engine stack.\n"
            "  Security metrics are computed over classes of identical\n"
            "  replicas, so their cost does not depend on replica counts:\n"
            "  9x7's 4,782,969 attack paths are one weighted class path.\n"
            "  A spec with more attack paths (H^T) than a float can count\n"
            "  exits 2.\n"
            "  Steady solves of the SRN oracles above 5000 states use a\n"
            "  preconditioned iterative path, falling back to the direct\n"
            "  factorisation if it fails.\n"
            "\n"
            "observability:\n"
            "  -v/--verbose logs engine decisions (evaluator builds, cache\n"
            "  writes) to stderr; repeat for debug.\n"
            "  'sweep'/'timeline' --trace FILE writes a Chrome\n"
            "  trace-event JSON of the run's spans (Perfetto-viewable).\n"
            "  'serve' reports the process-wide metrics registry\n"
            "  on GET /metrics (JSON, or Prometheus text with Accept:\n"
            "  text/plain) and logs one JSON access line per request.\n"
            "  Results are byte-identical with instrumentation on or off.\n"
            "\n"
            "resilience:\n"
            "  'sweep'/'timeline' --deadline MS bounds the wall clock of a\n"
            "  run: the budget is checked between chunk dispatches and an\n"
            "  exceeded deadline exits with code 3 (other domain errors\n"
            "  stay 2).  Transient faults are retried with deterministic\n"
            "  exponential backoff: a locked sqlite cache retries, then\n"
            "  degrades to memory-only for the rest of the process\n"
            "  (repro_cache_degraded gauge) instead of failing the run.\n"
            "  'serve' answers 503 + Retry-After when saturated\n"
            "  (--max-queue) or draining, and on SIGTERM finishes in-flight\n"
            "  requests (up to --drain-grace seconds) before exiting 0;\n"
            "  GET /v1/healthz reports draining/queue/cache state.\n"
            "  'shard' retries a failed shard request against the other\n"
            "  endpoints (deterministic backoff) and, when the services\n"
            "  share a --cache file, a survivor serves the dead shard's\n"
            "  finished designs from the shared sqlite result tier.\n"
            "  REPRO_FAULTS='point:action@n;...' injects deterministic\n"
            "  faults for chaos testing (points: cache.read, cache.write,\n"
            "  solver.iterative, solver.transient, shard.request;\n"
            "  actions: error, fail) — each fault fires exactly once per\n"
            "  process, at the n-th hit of its point, and recovered runs\n"
            "  are byte-identical to clean ones.  --metrics FILE snapshots\n"
            "  the registry (degradations, injected faults) for\n"
            "  assertions in CI."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help=(
            "log engine and cache decisions to stderr "
            "(-v: info, -vv: debug)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "reproduce", help="print the paper's tables for the example network"
    ).set_defaults(handler=_reproduce)
    commands.add_parser(
        "designs", help="score the five paper designs and the Eq.3/4 regions"
    ).set_defaults(handler=_designs)
    bundle = commands.add_parser(
        "bundle", help="write the experiment artifacts to a directory"
    )
    bundle.add_argument("--out", default="artifacts", help="output directory")
    bundle.set_defaults(handler=_bundle)
    def add_space_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--roles",
            default="dns,web,app,db",
            help="comma-separated role names (default: dns,web,app,db)",
        )
        command.add_argument(
            "--max-replicas",
            type=int,
            default=2,
            help="replica cap per role (default: 2)",
        )
        command.add_argument(
            "--max-total",
            type=int,
            default=None,
            help="optional cap on total server count",
        )
        command.add_argument(
            "--variants",
            action="store_true",
            help=(
                "use the heterogeneous space: enumerate variant-count "
                "assignments from the paper's diversity stacks instead of "
                "plain replica counts"
            ),
        )
        command.add_argument(
            "--cache",
            default=None,
            metavar="PATH",
            help=(
                "sqlite file persisting results across invocations; "
                "repeated runs only pay for designs not cached yet "
                "(maintain it with 'python -m repro cache')"
            ),
        )
        command.add_argument(
            "--scaled",
            default=None,
            metavar="HxT",
            help=(
                "evaluate one generated chain enterprise of TIERS tiers "
                "with HOSTS replicas each (e.g. 9x4: a 10,000-state "
                "availability model) instead of enumerating --roles; the "
                "paper's role stacks are reused cyclically"
            ),
        )
        command.add_argument(
            "--json", action="store_true", help="emit JSON instead of a table"
        )
        command.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help=(
                "record span tracing for the run and write a Chrome "
                "trace-event JSON file (viewable in Perfetto)"
            ),
        )
        command.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="MS",
            help=(
                "abort the run once this many milliseconds of wall "
                "clock are spent (checked between chunk dispatches); "
                "an exceeded deadline exits with code 3 instead of 2"
            ),
        )
        command.add_argument(
            "--metrics",
            default=None,
            metavar="FILE",
            help=(
                "write the process metrics registry (counters, gauges, "
                "histograms — cache degradation, injected faults) as "
                "JSON after the run"
            ),
        )

    sweep = commands.add_parser(
        "sweep", help="evaluate a whole design space through the sweep engine"
    )
    add_space_options(sweep)
    sweep.set_defaults(handler=_evaluate_space, timeline=False)

    timeline = commands.add_parser(
        "timeline",
        help=(
            "patch-timeline curves (transient COA, completion probability, "
            "security exposure) over a design space"
        ),
    )
    add_space_options(timeline)
    timeline.add_argument(
        "--horizon",
        type=float,
        default=720.0,
        help="time-grid end in hours (default: 720, the monthly cycle)",
    )
    timeline.add_argument(
        "--points",
        type=int,
        default=24,
        help="number of evenly spaced grid points (default: 24)",
    )
    timeline.add_argument(
        "--times",
        default=None,
        help="explicit comma-separated times in hours (overrides the grid)",
    )
    timeline.add_argument(
        "--campaign",
        default=None,
        metavar="FILE",
        help=(
            "staged-rollout JSON spec: {'name': ..., 'phases': [{'name', "
            "'rate_multiplier', 'duration_hours' | 'completion_fraction', "
            "'canary_hosts'}, ...]}"
        ),
    )
    timeline.add_argument(
        "--phases",
        default=None,
        metavar="SPEC",
        help=(
            "inline campaign shorthand name:mult[:trigger[:canary]],... — "
            "a plain trigger is a duration in hours, a %%-suffixed one a "
            "completion fraction (e.g. canary:0.1:48,fleet:1.0)"
        ),
    )
    timeline.set_defaults(handler=_evaluate_space, timeline=True)

    serve = commands.add_parser(
        "serve",
        help=(
            "resident evaluation service: warm sweep engines (solved "
            "evaluators + result caches) behind an HTTP/JSON API"
        ),
        description=(
            "Serve POST /v1/sweep, POST /v1/timeline, GET /v1/healthz and "
            "GET /v1/metrics over HTTP/1.1 (any other path answers 404).  "
            "Request bodies use one envelope "
            "({'space': {...}, 'options': {...}, 'priority', "
            "'deadline_ms', 'stream'}).  "
            "Responses are byte-identical to the corresponding --json "
            "output.  Requests run on a bounded pool of warm engine "
            "lanes keyed by evaluation context (--lanes), interactive "
            "requests preempt batch ones at chunk boundaries, stream: "
            "true answers newline-delimited JSON chunk by chunk, and "
            "options.shard serves one hash partition of the space (the "
            "server half of 'repro shard').  Identical in-flight "
            "requests share one computation, repeats are answered from "
            "a response memory, and every lane's engine stays warm "
            "across requests."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8351,
        help="TCP port (default: 8351; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--executor",
        choices=("serial",),
        default="serial",
        help="engine executor; every lane evaluates in-process "
        "(default and only choice: serial)",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="sqlite file persisting results across restarts",
    )
    serve.add_argument(
        "--lanes",
        type=int,
        default=4,
        help=(
            "bound on concurrently-warm engine lanes (one per "
            "evaluation context: case study, scaled space or campaign "
            "fingerprint); least-recently-used idle lanes are evicted "
            "to admit new contexts (default: 4)"
        ),
    )
    serve.add_argument(
        "--max-designs",
        type=int,
        default=512,
        help="per-request design-count budget (default: 512)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help=(
            "saturation bound: new computations beyond this many "
            "distinct in-flight keys are answered 503 + Retry-After "
            "instead of queueing; 0 means unbounded (default: 64)"
        ),
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint sent with 503 rejections (default: 1)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "on SIGTERM, stop admitting new computations and wait up "
            "to this long for in-flight requests before exiting "
            "(default: 30)"
        ),
    )
    serve.set_defaults(handler=_serve)

    shard = commands.add_parser(
        "shard",
        help=(
            "fan a design space out across running 'repro serve' "
            "processes and merge the partial results byte-identically"
        ),
        description=(
            "Partition the enumerated design space across N service "
            "processes by the stable design cache-key hash (one /v1 "
            "request per shard with options.shard = {index, count}), "
            "fail over to surviving endpoints on errors, and merge the "
            "partial payloads into the exact single-process payload "
            "(designs re-interleaved in enumeration order, the Pareto "
            "front recomputed over the merged set).  Point the services "
            "at one shared --cache file to serve a killed shard's "
            "finished designs from the shared result tier."
        ),
    )
    shard.add_argument(
        "--endpoints",
        required=True,
        metavar="HOST:PORT,...",
        help=(
            "comma-separated service endpoints; the shard count is the "
            "endpoint count"
        ),
    )
    shard.add_argument(
        "--roles",
        default="dns,web,app,db",
        help="comma-separated role names (default: dns,web,app,db)",
    )
    shard.add_argument(
        "--max-replicas",
        type=int,
        default=2,
        help="replica cap per role (default: 2)",
    )
    shard.add_argument(
        "--max-total",
        type=int,
        default=None,
        help="optional cap on total server count",
    )
    shard.add_argument(
        "--variants",
        action="store_true",
        help="the heterogeneous variant space (see sweep --help)",
    )
    shard.add_argument(
        "--scaled",
        default=None,
        metavar="HxT",
        help="one generated chain enterprise (see sweep --help)",
    )
    shard.add_argument(
        "--timeline",
        action="store_true",
        help="sharded timeline curves instead of a sweep",
    )
    shard.add_argument(
        "--horizon",
        type=float,
        default=720.0,
        help="timeline grid end in hours (default: 720)",
    )
    shard.add_argument(
        "--points",
        type=int,
        default=24,
        help="timeline grid points (default: 24)",
    )
    shard.add_argument(
        "--times",
        default=None,
        help="explicit comma-separated times in hours (overrides the grid)",
    )
    shard.add_argument(
        "--phases",
        default=None,
        metavar="SPEC",
        help="inline campaign shorthand (see timeline --help)",
    )
    shard.add_argument(
        "--priority",
        choices=("interactive", "batch"),
        default="interactive",
        help="request priority on each shard (default: interactive)",
    )
    shard.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "deadline_ms sent with every shard request (each shard "
            "gets the full budget; they run concurrently); an exceeded "
            "deadline exits with code 3"
        ),
    )
    shard.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-request socket timeout (default: 300)",
    )
    shard.add_argument(
        "--json", action="store_true", help="emit the merged JSON payload"
    )
    shard.set_defaults(handler=_shard)

    cache = commands.add_parser(
        "cache",
        help="maintain a persistent evaluation cache (stats, purge, trim)",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_path(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--cache",
            required=True,
            metavar="PATH",
            help="the sqlite cache file to maintain",
        )

    cache_stats = cache_commands.add_parser(
        "stats", help="entry and size counts, total and per scope"
    )
    add_cache_path(cache_stats)
    cache_stats.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    cache_purge = cache_commands.add_parser(
        "purge",
        help="delete entries (all, one scope, or one context fingerprint)",
    )
    add_cache_path(cache_purge)
    cache_purge.add_argument(
        "--fingerprint",
        default=None,
        help="only entries of this evaluation-context fingerprint",
    )
    cache_purge.add_argument(
        "--scope",
        default=None,
        choices=("evaluation", "timeline"),
        help="only entries of this record kind",
    )
    cache_trim = cache_commands.add_parser(
        "trim", help="evict least-recently-used entries down to bounds"
    )
    add_cache_path(cache_trim)
    cache_trim.add_argument(
        "--max-entries", type=int, default=None, help="keep at most N entries"
    )
    cache_trim.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="keep at most this many megabytes of payload",
    )
    cache.set_defaults(handler=_cache)

    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
