"""Command-line interface: quick demos and evaluations from a terminal.

Usage::

    python -m repro demo                 # one fix + ASCII likelihood map
    python -m repro evaluate -n 40      # BLoc vs baselines over a dataset
    python -m repro floorplan           # render the default testbed
    python -m repro throughput          # Section 6 airtime budget
    python -m repro diag fix.npz        # inspect / replay a fix bundle
    python -m repro lint src            # repo-specific static analysis
    python -m repro obs runs            # list the run ledger
    python -m repro obs diff -2 -1     # metric-by-metric run diff
    python -m repro obs slo             # evaluate the SLO gate
    python -m repro serve               # warm-pool localization service
    python -m repro loadtest --self-host   # drive it and record latency

Each command imports what it runs inside its handler, so ``repro
serve`` never loads the lint engine, the run ledger or the evaluation
runner, and can pin BLAS threads before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.constants import DEFAULT_SERVICE_RESOLUTION_M

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs import RunLedger
    from repro.service import LocalizationService, LocalizerPool

#: BLAS thread pools ``repro serve`` pins to one thread before numpy
#: loads: requests already run in parallel on server threads, and a
#: two-thread OpenBLAS pool turns a ~1 ms fix into 7-12 ms.
BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def _ledger_path(args: argparse.Namespace) -> Optional[Union[str, Path]]:
    """The run-ledger target for this invocation, or None when off.

    ``--no-ledger`` disables; ``--ledger PATH`` overrides; otherwise
    commands that opt into the ledger (evaluate) append to
    ``$REPRO_RUNS_LEDGER`` or ``./runs.ndjson``.
    """
    if getattr(args, "no_ledger", False):
        return None
    if not getattr(args, "_ledger_default_on", False) and not getattr(
        args, "ledger", None
    ):
        return None
    from repro.obs import default_ledger_path

    explicit = getattr(args, "ledger", None)
    return explicit if explicit else default_ledger_path()


def _maybe_observed(
    args: argparse.Namespace, body: Callable[[], int]
) -> int:
    """Run ``body`` under observability when the flags ask for it.

    With ``--trace PATH`` the run's spans and metrics are exported as
    NDJSON to PATH; with ``--metrics`` (or ``--trace``) the span-timing
    and metrics summary tables are printed after the command output.
    With ``--profile PREFIX`` (or ``REPRO_PROFILE=PREFIX``) a sampling
    profiler runs for the duration and writes ``PREFIX.folded``.
    Commands wired to the run ledger also append a RunRecord -- which
    needs a live observer, so the ledger alone is enough to enable one.
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    profile_prefix = getattr(args, "profile", None) or os.environ.get(
        "REPRO_PROFILE"
    )
    ledger_target = _ledger_path(args)
    if not any([trace_path, want_metrics, profile_prefix, ledger_target]):
        return body()
    from repro.obs import (
        RunLedger,
        SamplingProfiler,
        build_run_record,
        export_folded,
        export_ndjson,
        observed,
        summary,
    )

    if trace_path and not Path(trace_path).parent.is_dir():
        print(
            f"error: --trace directory does not exist: "
            f"{Path(trace_path).parent}",
            file=sys.stderr,
        )
        return 2
    artifacts = []
    profile_snapshot = None
    with observed() as obs:
        profiler = (
            SamplingProfiler(obs.tracer).start()
            if profile_prefix
            else None
        )
        try:
            status = body()
        finally:
            if profiler is not None:
                profile_snapshot = profiler.stop().snapshot()
    if trace_path:
        lines = export_ndjson(trace_path, obs, command=args.command)
        artifacts.append(trace_path)
        print(f"[obs] wrote {lines} NDJSON lines to {trace_path}")
    if profiler is not None:
        folded_path = f"{profile_prefix}.folded"
        export_folded(folded_path, profiler.report)
        artifacts.append(folded_path)
        print(
            f"[obs] profiler: {profiler.report.samples_total} samples "
            f"-> {folded_path}"
        )
    if ledger_target is not None and status == 0:
        record = build_run_record(
            command=args.command,
            observer=obs,
            config=_command_config(args),
            results=getattr(args, "_ledger_results", None),
            artifacts=artifacts,
            profile=profile_snapshot,
        )
        RunLedger(ledger_target).append(record)
        print(f"[obs] run {record.run_id} appended to {ledger_target}")
    if want_metrics or trace_path:
        print(summary(obs))
    return status


def _command_config(args: argparse.Namespace) -> dict:
    """The fingerprintable configuration of a CLI invocation."""
    keep = (
        "command", "num", "seed", "x", "y",
        "bundle_worst", "scenario", "clients",
        "per_client", "resolution", "port",
    )
    return {
        key: getattr(args, key)
        for key in keep
        if getattr(args, key, None) is not None
    }


def cmd_demo(args: argparse.Namespace) -> int:
    return _maybe_observed(args, lambda: _run_demo(args))


def _run_demo(args: argparse.Namespace) -> int:
    from repro import (
        BlocLocalizer,
        ChannelMeasurementModel,
        Point,
        vicon_testbed,
    )
    from repro.viz import render_map

    testbed = vicon_testbed()
    model = ChannelMeasurementModel(testbed=testbed, seed=args.seed)
    tag = Point(args.x, args.y)
    observations = model.measure(tag)
    result = BlocLocalizer().locate(observations)
    print(
        f"true ({tag.x:+.2f}, {tag.y:+.2f})  "
        f"estimate ({result.position.x:+.2f}, {result.position.y:+.2f})  "
        f"error {result.error_m(tag) * 100:.0f} cm"
    )
    print(
        render_map(
            result.likelihood.combined,
            result.likelihood.grid,
            width=66,
            markers=[(tag, "T"), (result.position, "E")],
        )
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    return _maybe_observed(args, lambda: _run_evaluate(args))


def _run_evaluate(args: argparse.Namespace) -> int:
    from repro import (
        AoaLocalizer,
        BlocLocalizer,
        build_dataset,
        evaluate,
        shortest_distance_localizer,
        vicon_testbed,
    )

    testbed = vicon_testbed()
    dataset = build_dataset(testbed, num_positions=args.num, seed=args.seed)
    schemes = {
        "BLoc": BlocLocalizer(),
        "AoA baseline": AoaLocalizer(),
        "shortest-distance": shortest_distance_localizer(),
    }
    bundle_dir = getattr(args, "bundle_dir", None)
    for name, localizer in schemes.items():
        capture = None
        if bundle_dir and name == "BLoc":
            from repro.obs import AnchorHealthMonitor
            from repro.sim import DiagnosticsCapture

            capture = DiagnosticsCapture(
                directory=bundle_dir,
                worst_n=getattr(args, "bundle_worst", 0),
                capture_failures=True,
                health=AnchorHealthMonitor(),
            )
        run = evaluate(
            localizer,
            dataset,
            label=name,
            capture=capture,
        )
        stats = run.stats()
        print(f"{name:<18} {stats.summary()}")
        # Headline numbers for the run ledger (keys are slugged per
        # scheme so a diff lines BLoc up against BLoc across runs).
        slug = name.lower().replace(" ", "_").replace("-", "_")
        results = getattr(args, "_ledger_results", None) or {}
        results[f"{slug}.median_m"] = stats.median_m()
        results[f"{slug}.p95_m"] = stats.percentile_m(95)
        results[f"{slug}.failed"] = run.num_failed
        args._ledger_results = results
        if capture is not None:
            print(
                f"[diag] wrote {len(capture.written)} fix bundle(s) "
                f"to {bundle_dir}"
            )
            for event in capture.health.events:
                print(f"[health] {event.kind}: {event.message}")
    return 0


def cmd_diag(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs import load_fix_bundle, render_bundle

    try:
        bundle = load_fix_bundle(args.bundle)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_bundle(bundle, bands=args.bands, explain=args.explain))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def cmd_obs(args: argparse.Namespace) -> int:
    """Observability tooling (``repro obs runs|diff|slo|trace``)."""
    from repro.errors import ConfigurationError
    from repro.obs import RunLedger, default_ledger_path

    try:
        # trace reads an NDJSON export directly; only the ledger-backed
        # subcommands construct a RunLedger.
        if args.obs_command == "trace":
            return _obs_trace(args)
        ledger = RunLedger(args.ledger or default_ledger_path())
        if args.obs_command == "runs":
            return _obs_runs(args, ledger)
        if args.obs_command == "diff":
            return _obs_diff(args, ledger)
        return _obs_slo(args, ledger)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _obs_trace(args: argparse.Namespace) -> int:
    """Reconstruct one request's span tree from an NDJSON export."""
    from repro.obs import load_ndjson, render_trace, resolve_trace_id

    records = load_ndjson(args.export)
    trace_id = resolve_trace_id(records, args.trace_id)
    print(render_trace(records, trace_id))
    return 0


def _obs_runs(args: argparse.Namespace, ledger: "RunLedger") -> int:
    from repro.obs import render_runs

    print(render_runs(ledger.last(args.num)))
    return 0


def _obs_diff(args: argparse.Namespace, ledger: "RunLedger") -> int:
    from repro.obs import render_diff

    record_a = ledger.resolve(args.a)
    record_b = ledger.resolve(args.b)
    print(render_diff(record_a, record_b, min_pct=args.min_change))
    return 0


def _obs_slo(args: argparse.Namespace, ledger: "RunLedger") -> int:
    """Evaluate the SLO gate; exit 1 on violation (the CI contract)."""
    import json
    from pathlib import Path

    from repro.obs import (
        evaluate_slos,
        load_slo_spec,
        render_slo_results,
        slo_exit_code,
    )

    spec = load_slo_spec(args.spec)
    # --bench is repeatable so one gate invocation can evaluate rules
    # against several benchmark payloads (BENCH_localize.json and
    # BENCH_service.json carry disjoint top-level sections, so a shallow
    # merge is lossless).
    bench_args = (
        args.bench if args.bench is not None else ["BENCH_localize.json"]
    )
    bench = None
    for bench_arg in bench_args:
        if not bench_arg:
            continue
        bench_path = Path(bench_arg)
        if not bench_path.exists():
            print(
                f"error: bench payload not found: {bench_path}",
                file=sys.stderr,
            )
            return 2
        payload = json.loads(bench_path.read_text(encoding="utf-8"))
        bench = payload if bench is None else {**bench, **payload}
    results = evaluate_slos(
        spec, bench=bench, ledger_records=ledger.load()
    )
    print(f"[slo] spec {spec.path}, {len(spec.rules)} rule(s)")
    print(render_slo_results(results))
    return slo_exit_code(results)


def _service_from_args(
    args: argparse.Namespace,
) -> "tuple[LocalizerPool, LocalizationService]":
    """Build a (pool, service) pair from serve/loadtest flags."""
    from repro.service import (
        LocalizationService,
        LocalizerPool,
        ServiceConfig,
    )

    pool = LocalizerPool(grid_resolution_m=args.resolution)
    config = ServiceConfig(
        rate_per_s=args.rate,
        burst=args.burst,
        api_keys=(
            frozenset(args.api_key) if args.api_key else None
        ),
        access_log_path=getattr(args, "access_log", None),
    )
    max_bytes = getattr(args, "access_log_max_bytes", None)
    if max_bytes is not None:
        config = replace(config, access_log_max_bytes=max_bytes)
    return pool, LocalizationService(pool=pool, config=config)


def cmd_serve(args: argparse.Namespace) -> int:
    # Takes effect only while numpy is not yet loaded, which holds for
    # `python -m repro serve`; a value set in the environment wins.
    for name in BLAS_THREAD_ENV:
        os.environ.setdefault(name, "1")
    return _maybe_observed(args, lambda: _run_serve(args))


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import make_server

    pool, service = _service_from_args(args)
    if not args.no_prewarm:
        print(f"[serve] prewarming {', '.join(pool.names())} ...")
        pool.prewarm()
        for name, info in sorted(pool.info()["warm"].items()):
            print(
                f"[serve] {name}: {info['num_anchors']} anchors, "
                f"warm in {info['warmup_s']:.2f}s"
            )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"[serve] listening on http://{host}:{port} "
        f"(POST /v1/locate, GET /v1/health, GET /v1/stats, GET /metrics)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("[serve] shutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    return _maybe_observed(args, lambda: _run_loadtest(args))


def _run_loadtest(args: argparse.Namespace) -> int:
    import threading

    from repro.errors import ReproError
    from repro.service import (
        fetch_grid_resolution_m,
        fetch_metrics,
        make_server,
        run_loadtest,
        update_bench_service_json,
    )

    server = None
    service = None
    host, port = args.host, args.port
    if args.self_host:
        pool, service = _service_from_args(args)
        pool.prewarm()
        server = make_server(service, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        threading.Thread(
            target=server.serve_forever, daemon=True
        ).start()
        print(f"[loadtest] self-hosted server on {host}:{port}")
    try:
        result = run_loadtest(
            host,
            port,
            scenario=args.scenario,
            clients=args.clients,
            requests_per_client=args.per_client,
            seed=args.seed,
            api_key=args.api_key[0] if args.api_key else None,
        )
        # Ask the server for its grid and scrape /metrics while it is
        # still up (before the self-hosted one is torn down below).
        grid_resolution_m = fetch_grid_resolution_m(host, port)
        if getattr(args, "metrics_out", None):
            exposition = fetch_metrics(host, port)
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(exposition)
            print(f"[loadtest] wrote {args.metrics_out}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        if service is not None:
            service.close()
    print(
        f"[loadtest] {result.requests} requests, {args.clients} "
        f"client(s): p50 {result.p50_s * 1000:.1f} ms, "
        f"p95 {result.p95_s * 1000:.1f} ms, "
        f"p99 {result.p99_s * 1000:.1f} ms, "
        f"{result.throughput_rps:.1f} req/s, {result.errors} error(s)"
    )
    if result.slowest_trace_id:
        print(
            f"[loadtest] slowest request trace {result.slowest_trace_id}"
            f" (repro obs trace {result.slowest_trace_id[:12]} ...)"
        )
    if result.median_error_m is not None:
        print(
            f"[loadtest] median localization error "
            f"{result.median_error_m * 100:.0f} cm; providers "
            f"{result.providers}"
        )
    if args.bench_out:
        update_bench_service_json(
            args.bench_out,
            result,
            scenario=args.scenario,
            clients=args.clients,
            grid_resolution_m=grid_resolution_m,
        )
        print(f"[loadtest] wrote {args.bench_out}")
    results = getattr(args, "_ledger_results", None) or {}
    results.update(
        {
            "service.p50_s": result.p50_s,
            "service.p95_s": result.p95_s,
            "service.p99_s": result.p99_s,
            "service.throughput_rps": result.throughput_rps,
            "service.requests": result.requests,
            "service.errors": result.errors,
        }
    )
    if result.median_error_m is not None:
        results["service.median_error_m"] = result.median_error_m
    args._ledger_results = results
    return 1 if result.errors else 0


def cmd_floorplan(args: argparse.Namespace) -> int:
    from repro.sim.testbed import vicon_testbed
    from repro.viz import render_testbed

    print(render_testbed(vicon_testbed(), width=args.width))
    print("M = master anchor, A = anchors, # = reflectors/clutter")
    return 0


def cmd_throughput(args: argparse.Namespace) -> int:
    from repro.ble.throughput import throughput_with_localization

    report = throughput_with_localization(
        sweeps_per_second=args.sweeps
    )
    print(
        f"localization packet: {report.localization_packet_us:.0f} us on air"
    )
    print(
        f"{args.sweeps} sweep(s)/s costs "
        f"{report.localization_airtime_fraction * 100:.1f}% of airtime; "
        f"{report.data_throughput_bps / 1000:.0f} kbps of data remain"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="BLoc (CoNEXT 2018) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="export spans + metrics of the run as NDJSON to PATH",
        )
        command.add_argument(
            "--metrics",
            action="store_true",
            help="print the span-timing and metrics summary tables",
        )
        command.add_argument(
            "--profile",
            metavar="PREFIX",
            default=None,
            help="run the sampling profiler and write PREFIX.folded "
            "(collapsed stacks for flamegraph viewers; "
            "env REPRO_PROFILE=PREFIX does the same)",
        )

    def add_ledger_flags(
        command: argparse.ArgumentParser, default_on: bool
    ) -> None:
        command.add_argument(
            "--ledger",
            metavar="PATH",
            default=None,
            help="append this run's RunRecord to PATH "
            "(default: $REPRO_RUNS_LEDGER or ./runs.ndjson)",
        )
        command.add_argument(
            "--no-ledger",
            action="store_true",
            help="do not append a RunRecord for this run",
        )
        command.set_defaults(_ledger_default_on=default_on)

    demo = sub.add_parser("demo", help="localize one simulated tag")
    demo.add_argument("-x", type=float, default=0.8)
    demo.add_argument("-y", type=float, default=0.4)
    demo.add_argument("--seed", type=int, default=42)
    add_obs_flags(demo)
    demo.set_defaults(func=cmd_demo)

    ev = sub.add_parser("evaluate", help="compare schemes over a dataset")
    ev.add_argument("-n", "--num", type=int, default=30)
    ev.add_argument("--seed", type=int, default=2018)
    ev.add_argument(
        "--bundle-dir",
        metavar="DIR",
        default=None,
        help="capture per-fix diagnostics for the BLoc run and write "
        "replayable fix bundles (failures + worst-N) into DIR",
    )
    ev.add_argument(
        "--bundle-worst",
        type=int,
        default=3,
        metavar="N",
        help="with --bundle-dir: also bundle the N worst successful "
        "fixes (default: 3)",
    )
    add_obs_flags(ev)
    # Every evaluate run lands in the persistent ledger unless opted out.
    add_ledger_flags(ev, default_on=True)
    ev.set_defaults(func=cmd_evaluate)

    diag = sub.add_parser(
        "diag", help="inspect and replay a captured fix bundle"
    )
    diag.add_argument("bundle", help="path to a fix-bundle .npz")
    diag.add_argument(
        "--explain",
        action="store_true",
        help="replay the fix offline and re-derive the winning peak, "
        "comparing it against the recorded estimate",
    )
    diag.add_argument(
        "--bands",
        action="store_true",
        help="include the per-band / per-anchor SNR table",
    )
    diag.set_defaults(func=cmd_diag)

    lint = sub.add_parser(
        "lint", help="run the RPR rule set (repo-specific static analysis)"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    obs = sub.add_parser(
        "obs",
        help="observability tooling (runs/diff/slo/trace)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def add_obs_ledger_arg(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--ledger",
            metavar="PATH",
            default=None,
            help="ledger file (default: $REPRO_RUNS_LEDGER or "
            "./runs.ndjson)",
        )

    obs_runs = obs_sub.add_parser("runs", help="list recorded runs")
    obs_runs.add_argument(
        "-n", "--num", type=int, default=20,
        help="show the most recent N runs (default: 20)",
    )
    add_obs_ledger_arg(obs_runs)

    obs_diff = obs_sub.add_parser(
        "diff", help="metric-by-metric diff of two runs"
    )
    obs_diff.add_argument(
        "a", nargs="?", default="-2",
        help="run_id prefix or index (default: -2, the previous run)",
    )
    obs_diff.add_argument(
        "b", nargs="?", default="-1",
        help="run_id prefix or index (default: -1, the latest run)",
    )
    obs_diff.add_argument(
        "--min-change", type=float, default=0.0, metavar="FRAC",
        help="hide rows whose relative change is below FRAC",
    )
    add_obs_ledger_arg(obs_diff)

    obs_slo = obs_sub.add_parser(
        "slo", help="evaluate the SLO gate (exit 1 on violation)"
    )
    obs_slo.add_argument(
        "--spec", metavar="PATH", default=None,
        help="slo.toml spec (default: the repository slo.toml)",
    )
    obs_slo.add_argument(
        "--bench", metavar="PATH", action="append", default=None,
        help="bench payload for source='bench' rules; repeatable, later "
        "payloads shallow-merge over earlier ones "
        "(default: BENCH_localize.json; pass '' to skip)",
    )
    add_obs_ledger_arg(obs_slo)

    obs_trace = obs_sub.add_parser(
        "trace",
        help="reconstruct one request's span tree from an NDJSON export",
    )
    obs_trace.add_argument(
        "trace_id",
        help="trace id (or unique prefix) from a response body, "
        "traceparent header or access-log line",
    )
    obs_trace.add_argument(
        "export",
        help="span NDJSON written by --trace or observed() export",
    )

    obs.set_defaults(func=cmd_obs)

    def add_service_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--resolution",
            type=float,
            default=DEFAULT_SERVICE_RESOLUTION_M,
            metavar="M",
            help="grid resolution of the warm localizers "
            f"(default: {DEFAULT_SERVICE_RESOLUTION_M} m)",
        )
        command.add_argument(
            "--rate", type=float, default=50.0, metavar="R",
            help="token-bucket refill rate per API key (default: 50/s)",
        )
        command.add_argument(
            "--burst", type=int, default=20, metavar="B",
            help="token-bucket burst capacity per API key (default: 20)",
        )
        command.add_argument(
            "--api-key",
            action="append",
            default=None,
            metavar="KEY",
            help="allowlisted API key; repeatable (default: accept any "
            "key, one bucket each)",
        )

    serve = sub.add_parser(
        "serve", help="run the warm-pool localization HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--access-log",
        metavar="PATH",
        default=None,
        help="append one NDJSON line per request to PATH",
    )
    serve.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the access log to PATH.1 when it would exceed N "
        "bytes (default: 16 MiB)",
    )
    serve.add_argument(
        "--no-prewarm",
        action="store_true",
        help="build scenarios lazily on first request instead of at "
        "startup",
    )
    add_service_flags(serve)
    add_obs_flags(serve)
    serve.set_defaults(func=cmd_serve)

    lt = sub.add_parser(
        "loadtest",
        help="drive a live locate endpoint and record p50/p95/p99",
    )
    lt.add_argument("--host", default="127.0.0.1")
    lt.add_argument("--port", type=int, default=8080)
    lt.add_argument(
        "--self-host",
        action="store_true",
        help="start an in-process server on an ephemeral port for the "
        "duration of the run (ignores --host/--port)",
    )
    lt.add_argument(
        "--scenario", default="vicon",
        help="scenario key to post against (default: vicon)",
    )
    lt.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent client threads (default: 4)",
    )
    lt.add_argument(
        "--per-client", type=int, default=8, metavar="N",
        help="requests per client (default: 8)",
    )
    lt.add_argument("--seed", type=int, default=2018)
    lt.add_argument(
        "--bench-out",
        metavar="PATH",
        default="BENCH_service.json",
        help="write the latency summary here (default: "
        "BENCH_service.json; pass '' to skip)",
    )
    lt.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="after the run, scrape GET /metrics and write the "
        "OpenMetrics exposition to PATH",
    )
    lt.add_argument(
        "--access-log",
        metavar="PATH",
        default=None,
        help="with --self-host: write the server's NDJSON access log "
        "to PATH",
    )
    add_service_flags(lt)
    add_obs_flags(lt)
    add_ledger_flags(lt, default_on=True)
    lt.set_defaults(func=cmd_loadtest)

    plan = sub.add_parser("floorplan", help="render the default testbed")
    plan.add_argument("--width", type=int, default=66)
    plan.set_defaults(func=cmd_floorplan)

    tp = sub.add_parser("throughput", help="Section 6 airtime budget")
    tp.add_argument("--sweeps", type=float, default=1.0)
    tp.set_defaults(func=cmd_throughput)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
