"""Command-line interface.

Core subcommands::

    repro generate --family planted --n 60 --m 200 --pattern churn \\
                   --batch-size 16 --out trace.txt
    repro run      --trace trace.txt --mode both --eps 0.35
    repro run      --trace trace.txt --phase-tree --bench-out . --name smoke \\
                   --check
    repro exact    --trace trace.txt
    repro verify   --n 40 --batches 200 --batch-size 3 --deep-every 50
    repro verify   --scenario all --scale ci --structure balanced \\
                   --faults 2 --trials 2 --artifact-out repros/
    repro verify   --replay repros/repro_ladders_churn.json
    repro scenarios
    repro generate --scenario sliding-window-churn --scale large \\
                   --out window.trace
    repro serve    --data-dir state/ --port 9090 --serve-metrics 0

``generate`` writes a batch-update trace (see repro.graphs.tracefile),
or spills a catalog scenario's stream out-of-core with ``--scenario``;
``run`` replays it through the batch-dynamic structures and reports the
maintained estimates plus work/depth metrics (``--telemetry`` streams a
JSONL span/event log, ``--progress K`` logs every K-th batch,
``--phase-tree`` prints the phase tree (docs/OBSERVABILITY.md),
``--bench-out`` writes ``BENCH_<name>.json`` and ``--check`` re-replays
disarmed to prove telemetry left the cost model bit-identical);
``exact`` replays it into a plain graph and reports the exact measures
for comparison; ``verify`` is the one verdict command — one stream
(a trace, a catalog scenario or a generated churn) through the
differential panel, or through seeded fault-injection trials with
``--faults``, with red runs shrunk to replayable artifacts and
``--replay`` re-running one (docs/VERIFICATION.md, docs/ROBUSTNESS.md);
``scenarios`` lists the adversarial catalog (docs/SCENARIOS.md);
``serve`` runs the long-lived coreness service —
per-tenant ladders behind an asyncio JSON-lines protocol with
WAL-before-apply durability and epoch-snapshot queries
(docs/SERVICE.md).

``run`` streams its trace through the bounded-memory
:func:`~repro.graphs.tracefile.iter_trace` reader (one upfront
:func:`~repro.graphs.tracefile.scan_trace` validation pass, one
``iter_trace`` drain per replay), so replaying
a multi-million-edge trace holds only the live structures in memory —
never the op list.
"""

from __future__ import annotations

import argparse
import errno
import pathlib
import sys
import threading
from typing import NoReturn, Optional, Sequence

from .baselines import core_numbers, exact_density, greedy_peeling_density
from .config import Constants, check_eps, check_height
from .core import CorenessDecomposition, DensityEstimator
from .errors import ParameterError, ReproError
from .graphs import DynamicGraph, generators, streams
from .graphs.tracefile import (
    iter_trace,
    read_trace,
    scan_trace,
    validate_trace,
    write_stream,
    write_trace,
)
from .instrument import BatchTimer, CostModel, render_table
from .instrument import trace as _trace
from .instrument.export import (
    BENCH_NAME,
    JsonlSink,
    bench_payload,
    prometheus_text,
    render_phase_tree,
    write_bench_json,
)
from .instrument.telemetry import REGISTRY, Tracer

CONSTANTS = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


def _make_edges(args) -> tuple[int, list]:
    if args.family == "er":
        return generators.erdos_renyi(args.n, args.m, seed=args.seed)
    if args.family == "ba":
        attach = max(1, args.m // max(1, args.n))
        return generators.barabasi_albert(args.n, attach, seed=args.seed)
    block = max(4, args.n // 4)  # planted
    return generators.planted_dense(
        args.n, block=block, p_in=0.9, out_edges=args.m // 2, seed=args.seed
    )


def cmd_generate(args) -> int:
    """Synthesise a batch-update trace and write it to ``--out``.

    ``--scenario NAME`` spills that scenario's stream at ``--scale``
    instead, out-of-core: the lazy stream drains straight through a
    :class:`~repro.graphs.tracefile.TraceWriter`, so even the ``large``
    (10^6 edge-update) scale never materialises in memory.
    """
    if args.scenario:
        from .scenarios import params_for, scenario_stream

        params = params_for(args.scale, seed=args.seed)
        with _trace.span("scenario.spill", scenario=args.scenario):
            write_stream(scenario_stream(args.scenario, params), args.out)
        info = scan_trace(args.out, strict=True)
        print(
            f"spilled {args.scenario} @ {args.scale} to {args.out}: "
            f"{info.batches} batches, {info.edge_updates} edge updates, "
            f"max {info.max_live_edges} live edges, {info.vertices} vertices"
        )
        return 0
    try:
        if args.pattern == "churn":
            # churn synthesizes its own edges; no base family needed
            ops = streams.churn(
                args.n, steps=args.steps, batch_size=args.batch_size, seed=args.seed
            )
        else:
            _n, edges = _make_edges(args)
            if args.pattern == "insert-only":
                ops = streams.insert_only(edges, args.batch_size)
            elif args.pattern == "window":
                ops = streams.sliding_window(edges, window=4, batch_size=args.batch_size)
            else:  # insert-delete
                ops = streams.insert_then_delete(edges, args.batch_size, seed=args.seed)
    except ParameterError as exc:
        _usage(args, str(exc))
    validate_trace(ops)
    count = write_trace(ops, args.out)
    print(f"wrote {count} batches ({sum(op.size for op in ops)} edge updates) to {args.out}")
    return 0


def _build_structures(args, n: int, cm: CostModel) -> list[tuple[str, object]]:
    structures: list[tuple[str, object]] = []
    if args.mode in ("coreness", "both"):
        structures.append(
            ("coreness", CorenessDecomposition(n, eps=args.eps, cm=cm, constants=CONSTANTS))
        )
    if args.mode in ("density", "both"):
        structures.append(
            ("density", DensityEstimator(n, eps=args.eps, cm=cm, constants=CONSTANTS))
        )
    return structures


def _replay(ops, structures, timer: BatchTimer, progress: int = 0, total: int = 0) -> None:
    """Drive every batch through every structure (phase-span instrumented);
    every ``progress``-th batch emits a ``progress`` event out of ``total``."""
    for i, op in enumerate(ops):
        with _trace.span("batch", detail={"index": i, "kind": op.kind, "edges": op.size}):
            with timer.batch(op.kind, op.size):
                for name, st in structures:
                    with _trace.span("structure", structure=name):
                        if op.kind == "insert":
                            st.insert_batch(op.edges)
                        else:
                            st.delete_batch(op.edges)
        if progress and (i + 1) % progress == 0:
            _trace.event(
                "progress",
                batch=i + 1,
                batches=total,
                work=timer.cm.work,
                depth=timer.cm.depth,
            )


def _progress_sink(ev: dict) -> None:
    """A tracer sink printing ``progress`` events to stderr."""
    if ev.get("type") == "event" and ev.get("name") == "progress":
        print(
            f"[progress] batch {ev['batch']}/{ev['batches']}"
            f"  work={ev['work']}  depth={ev['depth']}",
            file=sys.stderr,
        )


def _serve_metrics_or_die(registry, port: int):
    """Start the metrics HTTP server; die with one clean line if the port
    is taken.  ``PORT 0`` asks the kernel for an ephemeral port — the one
    actually bound is in the printed URL (docs/OBSERVABILITY.md)."""
    from .instrument.live import serve_metrics

    try:
        server = serve_metrics(registry, port)
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise SystemExit(
                f"error: metrics port {port} is already in use "
                "(pass --serve-metrics 0 to bind an ephemeral port)"
            ) from None
        raise
    print(f"serving metrics on {server.url}", file=sys.stderr)
    return server


def _traced_replay(args, batches: int, structures, timer: BatchTimer) -> Optional[Tracer]:
    """Replay ``--trace`` once, with the tracer armed iff a flag reads it
    (returned, else None)."""
    armed = (args.telemetry, args.progress, args.live, args.bench_out, args.check)
    if args.phase_tree is None and not any(armed):
        _replay(iter_trace(args.trace), structures, timer)
        return None
    sinks: list = []
    jsonl = JsonlSink(args.telemetry) if args.telemetry else None
    if jsonl is not None:
        sinks.append(jsonl)
    if args.progress:
        sinks.append(_progress_sink)
    dashboard = None
    if args.live:
        from .instrument.live import LiveDashboard

        dashboard = LiveDashboard(REGISTRY, sys.stderr, total_batches=batches)
        sinks.append(dashboard)
    tracer = Tracer(timer.cm, sinks=sinks, registry=REGISTRY if args.live else None)
    try:
        with _trace.tracing(tracer):
            _replay(iter_trace(args.trace), structures, timer, args.progress, batches)
    finally:
        if jsonl is not None:
            jsonl.close()
        if dashboard is not None:
            dashboard.close()
    if jsonl is not None:
        print(f"wrote {jsonl.events_written} telemetry events to {args.telemetry}")
    return tracer


def _summary(structures, series, top: int) -> str:
    rows = [
        ("batches", len(series.records)),
        ("edge updates", series.total_edges()),
        ("mean work/edge", f"{series.mean_work_per_edge():.0f}"),
        ("p99 work/edge", f"{series.percentile_work_per_edge(99):.0f}"),
        ("max batch depth", series.max_depth()),
    ]
    for name, st in structures:
        if name == "coreness":
            ests = st.estimates()
            ranked = sorted(ests.items(), key=lambda kv: -kv[1])[:top]
            rows.append(("max core_alg", f"{st.max_estimate():.1f}"))
            rows.append(
                ("top vertices", " ".join(f"{v}:{e:.0f}" for v, e in ranked))
            )
        else:
            rows.append(("rho_alg", f"{st.density_estimate():.2f}"))
            rows.append(("lambda_alg", f"{st.arboricity_estimate():.2f}"))
            rows.append(("orientation max d+", st.max_outdegree()))
    return render_table(["metric", "value"], rows)


def _report(args, n: int, structures, timer: BatchTimer, tracer: Optional[Tracer]) -> int:
    """Everything ``run`` prints and writes after its replay; the exit code."""
    cm = timer.cm
    root = tracer.root if tracer is not None else None
    if root is not None and (root.work != cm.work or root.total_self_work() != root.work):
        print(
            f"phase-tree accounting broken: root={root.work} "
            f"self-sum={root.total_self_work()} cost-model={cm.work}",
            file=sys.stderr,
        )
        return 1
    if args.phase_tree is not None:
        print(render_phase_tree(root, min_share=args.phase_tree))
        print(
            f"\nphase-tree work {root.work} == cost-model work {cm.work} (exact); "
            f"depth {cm.depth}"
        )
    if args.check:
        from .verify import cost_view

        # disarmed and registry-less: the --prom dump below and the metrics
        # server keep the armed pass's numbers
        cm2 = CostModel()
        _replay(iter_trace(args.trace), _build_structures(args, n, cm2), BatchTimer(cm2))
        if cost_view(cm) != cost_view(cm2):
            print(
                "check FAILED: telemetry perturbed the cost model\n"
                f"  armed:    work={cm.work} depth={cm.depth}\n"
                f"  disarmed: work={cm2.work} depth={cm2.depth}",
                file=sys.stderr,
            )
            return 1
        print("check: armed and disarmed replays are bit-identical")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(REGISTRY))
        print(f"wrote metrics exposition to {args.prom}")
    if args.bench_out:
        payload = bench_payload(
            args.name,
            timer.series,
            tree=root,
            extra={"trace": args.trace, "mode": args.mode, "eps": args.eps},
        )
        print(f"wrote {write_bench_json(args.bench_out, payload)}")
    # last: the estimate queries charge the cost model the checks above read
    print(_summary(structures, timer.series, args.top))
    return 0


def cmd_run(args) -> int:
    """Replay a trace through the maintained structures; print metrics.

    Out-of-core: one :func:`scan_trace` pass validates the file and sizes
    the vertex universe, then every replay drains a lazy
    :func:`iter_trace` generator — the op list never materialises.

    The tracer arms (docs/OBSERVABILITY.md) when a flag reads it:
    ``--telemetry`` (JSONL span/event log), ``--progress K``, ``--live``
    (terminal dashboard), ``--phase-tree [MIN_SHARE]`` (print the phase
    tree, rows below MIN_SHARE pruned), ``--bench-out DIR`` (write
    ``BENCH_<name>.json``) or ``--check``.  An armed replay must account
    for every unit of work (root == cost model == sum of self work), else
    exit 1.  ``--check`` then replays a second time *disarmed*, before any
    artifact is written, and exits 1 if work, depth or any counter
    differs — tracing never perturbs the cost model, enforced end to end.
    ``--prom PATH`` dumps the metrics registry as Prometheus text;
    ``--serve-metrics PORT`` exposes it on
    ``http://127.0.0.1:PORT/metrics`` (``PORT 0`` binds an ephemeral
    port, printed to stderr), and ``--metrics-linger SECONDS`` keeps that
    server up after the summary prints so scrapers of short runs can
    still reach it.  Bad input exits 2 before any replay.
    """
    if not BENCH_NAME.fullmatch(args.name):
        _usage(
            args,
            f"--name {args.name!r} is not a plain file stem "
            "(letters, digits, '.', '_', '-'; no leading dot)",
        )
    try:
        info = scan_trace(args.trace)
    except (OSError, ReproError) as exc:
        _usage(args, str(exc))
    n = max(info.vertices, 2)
    cm = CostModel()
    REGISTRY.clear()
    timer = BatchTimer(cm, registry=REGISTRY)
    structures = _build_structures(args, n, cm)
    server = None
    try:
        if args.serve_metrics is not None:
            server = _serve_metrics_or_die(REGISTRY, args.serve_metrics)
        tracer = _traced_replay(args, info.batches, structures, timer)
        code = _report(args, n, structures, timer, tracer)
        if server is not None and args.metrics_linger > 0:
            # announce inside the guarded region: a ctrl-C sent the moment
            # the line appears must release the server, not kill us.
            try:
                print(
                    f"metrics stay up on {server.url} for "
                    f"{args.metrics_linger:.0f}s more (ctrl-C to release early)",
                    file=sys.stderr,
                )
                threading.Event().wait(args.metrics_linger)
            except KeyboardInterrupt:
                pass
    finally:
        if server is not None:
            server.close()
    return code


def cmd_exact(args) -> int:
    """Exact offline measures of a trace's final graph."""
    ops, _n = _load_trace(args)
    g = DynamicGraph(0)
    streams.replay(ops, g)
    cores = core_numbers(g)
    rows = [
        ("vertices touched", len(g.touched_vertices())),
        ("live edges", g.m),
        ("max coreness", max(cores.values(), default=0)),
    ]
    if g.m <= 3000:
        rows.append(("exact rho", f"{exact_density(g):.3f}"))
    else:
        rows.append(("greedy rho (1/2-approx)", f"{greedy_peeling_density(g)[0]:.3f}"))
    print(render_table(["metric", "value"], rows))
    return 0


def cmd_scenarios(args) -> int:
    """Print the adversarial scenario catalog (docs/SCENARIOS.md)."""
    from .scenarios import get_scenario, scenario_names

    rows = [
        [name, "yes" if get_scenario(name).bounded_window else "no",
         get_scenario(name).summary]
        for name in scenario_names()
    ]
    print(render_table(["scenario", "windowed", "summary"], rows))
    return 0


def cmd_serve(args) -> int:
    """Run the coreness service (docs/SERVICE.md).

    A long-running asyncio server: per-tenant batch-dynamic ladders
    behind a JSON-lines TCP protocol — every accepted batch hits the
    tenant's WAL before it applies (the ack is the durability point),
    queries read an immutable epoch snapshot and never block on in-flight
    updates, restart recovers through checkpoint + WAL replay, and
    SIGTERM drains gracefully (commit the backlog, seal the WALs).
    ``--serve-metrics PORT`` exposes per-tenant ingest/query counters and
    latency histograms as Prometheus text; the metrics server lives as
    long as the service does.
    """
    import asyncio

    from .service import CorenessService

    service = CorenessService(
        args.data_dir,
        host=args.host,
        port=args.port,
        shards=args.shards,
        checkpoint_every=args.checkpoint_every,
        sync=args.sync,
        max_pending=args.max_pending,
    )
    server = None
    if args.serve_metrics is not None:
        server = _serve_metrics_or_die(service.registry, args.serve_metrics)

    def ready() -> None:
        print(
            f"coreness service listening on {service.host}:{service.port} "
            f"({len(service.tenants)} tenants recovered)",
            flush=True,
        )

    try:
        asyncio.run(service.run(on_ready=ready))
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise SystemExit(
                f"error: service port {args.port} on {args.host} is already "
                "in use (pass --port 0 to bind an ephemeral port)"
            ) from None
        raise
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.close()
    print("coreness service drained and stopped", file=sys.stderr)
    return 0


def _usage(args, message: str) -> NoReturn:
    # exit 1 is a verdict to CI ("divergence caught", "did NOT reproduce",
    # "telemetry perturbed the cost model"), so bad input exits 2
    print(f"repro {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_trace(args) -> tuple[list, int]:
    """The ``--trace`` stream and its vertex-universe size, read and
    validated before any replay; a missing or malformed trace is a usage
    error, not a traceback."""
    try:
        ops = read_trace(args.trace)
        return ops, max(validate_trace(ops), 2)
    except (OSError, ReproError) as exc:
        _usage(args, str(exc))


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in sorted(names))


def _sources(args, given: set, seed: int, height: Optional[int]) -> list:
    """Every stream of one ``repro verify`` run, built and validated
    before any replay: ``(label, header, ops, n, H, params)``; ``params``
    shapes a fault trial's re-seeded stream."""
    from .resilience.chaos import DEFAULT_STREAM
    from .scenarios import (
        ScenarioParams,
        measured_stream,
        params_for,
        scenario_names,
        suggested_height,
    )

    if "trace" in given:
        ops, n = _load_trace(args)
        return [(pathlib.Path(args.trace).stem, None, ops, n, height or 4, None)]
    try:
        if "scenario" not in given:
            p = ScenarioParams(
                getattr(args, "n", DEFAULT_STREAM.n),
                getattr(args, "batches", DEFAULT_STREAM.batches),
                getattr(args, "batch_size", DEFAULT_STREAM.batch_size),
                seed=seed,
            )
            ops = streams.churn(p.n, steps=p.batches, batch_size=p.batch_size, seed=seed)
            return [("churn", None, ops, max(validate_trace(ops), 2), height or 4, p)]
    except ReproError as exc:
        _usage(args, str(exc))
    scale = getattr(args, "scale", "ci")
    p = params_for(scale, seed=seed)
    sources = []
    for name in scenario_names() if args.scenario == "all" else [args.scenario]:
        ops, stats = measured_stream(name, p)
        H = height or suggested_height(name, p)
        header = (
            f"scenario [{name} @ {scale}]: {stats.batches} batches, "
            f"{stats.edge_updates} edge updates, max {stats.max_live_edges} "
            f"live edges, H {H}"
        )
        sources.append((name, header, ops, p.n, H, p))
    return sources


def cmd_verify(args) -> int:
    """The one verdict command (docs/VERIFICATION.md).

    Replays one stream source — ``--trace``, ``--scenario NAME|all`` at
    ``--scale``, or a churn stream generated from ``--n/--batches/
    --batch-size`` — once per ``--structure`` kind.  By default each
    replay is a differential panel (``--configs``, plus an un-recovered
    ``--inject`` member) whose baseline is audited against the exact
    oracles every ``--deep-every`` batches.  ``--faults F`` instead runs
    ``--trials`` seeded fault-injection trials, each a one-member
    recovered panel.  ``--artifact-out DIR`` shrinks every red run to a
    replayable artifact under DIR; ``--replay ARTIFACT`` re-runs one and
    exits 0 iff it still fails.  Otherwise exit 0 iff every verdict is
    GREEN, 1 on a red verdict; a usage error exits 2 before any replay.
    """
    from .resilience.chaos import chaos_soak, render_soak_summary
    from .verify import (
        RunnerConfig,
        default_configs,
        minimize_repro,
        replay_artifact,
        run_diff,
    )

    given = set(vars(args)) - {"command", "func"}
    if "replay" in given:
        if given != {"replay"}:
            _usage(args, f"--replay takes no other flag, got {_flags(given - {'replay'})}")
        try:
            reproduced, text = replay_artifact(args.replay)
        except ParameterError as exc:
            print(f"repro verify: error: {exc}", file=sys.stderr)
            return 2
        print(text)
        if reproduced:
            print("repro artifact REPRODUCED the recorded failure")
            return 0
        print("repro artifact did NOT reproduce — the failure moved or is fixed")
        return 1
    shape = given & {"n", "batches", "batch_size"}
    if len(given & {"trace", "scenario"}) + bool(shape) != 1:
        _usage(args, "pick one stream: --trace PATH, --scenario NAME|all, "
                     "or --n/--batches/--batch-size")
    if "scale" in given and "scenario" not in given:
        _usage(args, "--scale needs --scenario")
    faults = getattr(args, "faults", 0)
    clash = given & {"trace", "configs", "inject", "deep_every", "eps"}
    if faults and clash:
        _usage(args, f"--faults runs fault trials; drop {_flags(clash)}")
    if not faults and "trials" in given:
        _usage(args, "--trials needs --faults F > 0")
    seed, eps = getattr(args, "seed", 0), getattr(args, "eps", 0.35)
    sources = _sources(args, given, seed, getattr(args, "height", None))
    kinds = getattr(args, "structure", ["ladders"])
    out_dir = getattr(args, "artifact_out", None)

    if faults:
        reports = []
        for label, header, _ops, _n, H, params in sources:
            if header:
                print(header)
            for kind in kinds:
                report = chaos_soak(
                    kind, trials=getattr(args, "trials", 10), seed=seed,
                    params=params, faults_per_trial=faults, H=H,
                    constants=CONSTANTS, artifact_dir=out_dir,
                    stream_kinds=[label] if header else None,
                )
                if header:
                    report.structure = f"{kind} @ {label}"
                reports.append(report)
                print(report.render() + "\n")
        print(render_soak_summary(reports))
        return 0 if all(r.ok for r in reports) else 1

    panel = list(getattr(args, "configs", default_configs()))
    if "inject" in given:
        panel.append(RunnerConfig("injected", faults=(args.inject,), cost_class=None))
    ok = True
    for label, header, ops, n, H, _params in sources:
        if header:
            print(header)
        for kind in kinds:
            params = dict(
                kind=kind, H=H, eps=eps, seed=seed, n=n,
                deep_every=getattr(args, "deep_every", 0),
            )
            report = run_diff(ops, configs=panel, constants=CONSTANTS, **params)
            print(f"[{kind} @ {label}] {report.render()}")
            ok = ok and report.ok
            if report.ok or out_dir is None:
                continue
            minimal, path = minimize_repro(
                ops, report, pathlib.Path(out_dir) / f"repro_{kind}_{label}.json",
                configs=panel, constants=CONSTANTS, **params,
            )
            print(
                f"\nminimized repro: {len(minimal)} batch(es), "
                f"{sum(op.size for op in minimal)} edge update(s)"
            )
            for op in minimal:
                print(f"  {op.kind} {list(op.edges)}")
            print(f"wrote repro artifact to {path}")
    return 0 if ok else 1


def _arg(check):
    """An argparse ``type=``: a value ``check`` rejects exits 2, one line."""

    def parse(text: str):
        try:
            return check(text)
        except (ValueError, ReproError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _at_least(low: int):
    def check(text: str) -> int:
        if int(text) < low:
            raise ValueError(f"must be >= {low}, got {text}")
        return int(text)

    return check


_count, _positive = _at_least(0), _at_least(1)


def _share(text: str) -> float:
    if not 0.0 <= float(text) <= 1.0:  # also rejects nan
        raise ValueError(f"must be a share in [0, 1], got {text}")
    return float(text)


def _port(text: str) -> int:
    if not 0 <= int(text) <= 65535:
        raise ValueError(f"must be a port in 0..65535, got {text}")
    return int(text)


def _kinds(text: str) -> list[str]:
    from .verify.differential import KINDS

    if not set(text.split(",")) <= set(KINDS):
        raise ValueError(f"unknown structure in {text!r}; expected from {KINDS}")
    return text.split(",")


def _panel(text: str) -> list:
    from .verify import configs_by_name

    return configs_by_name(text.split(","))


def _scenario(text: str) -> str:
    from .scenarios import get_scenario

    return get_scenario(text).name


def _fault_triple(text: str) -> tuple[str, int, str]:
    """Parse and validate ``SITE[:HIT[:ACTION]]`` (the ``--inject`` value)."""
    from .resilience.faults import FaultSpec

    site, _, rest = text.partition(":")
    hit, _, action = rest.partition(":")
    try:
        hit_no = int(hit or 1)
    except ValueError:
        raise ValueError(f"HIT must be an integer, got {hit!r}") from None
    spec = FaultSpec(site=site, hit=hit_no, action=action or "raise")
    return (spec.site, spec.hit, spec.action)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with all subcommands attached."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a batch-update trace file")
    g.add_argument("--family", default="er", choices=["er", "ba", "planted"])
    g.add_argument("--n", type=_arg(_count), default=60)
    g.add_argument("--m", type=_arg(_count), default=200)
    g.add_argument("--steps", type=_arg(_count), default=40)
    g.add_argument("--batch-size", type=_arg(_count), default=16)
    g.add_argument(
        "--pattern",
        default="insert-only",
        choices=["insert-only", "window", "churn", "insert-delete"],
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--scenario", metavar="NAME", type=_arg(_scenario),
                   help="spill a catalog scenario's stream out-of-core instead")
    g.add_argument("--scale", default="ci", choices=["tiny", "ci", "bench", "large"],
                   help="the --scenario preset (large = 10^6 edge updates)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="replay a trace through the dynamic structures")
    r.add_argument("--trace", required=True)
    r.add_argument("--mode", default="both", choices=["coreness", "density", "both"])
    r.add_argument("--eps", type=_arg(lambda text: check_eps(float(text))), default=0.35)
    r.add_argument("--top", type=_arg(_count), default=5,
                   help="coreness vertices listed in the summary")
    r.add_argument("--telemetry", metavar="PATH",
                   help="write a JSONL span/event log to PATH")
    r.add_argument("--progress", type=_arg(_count), default=0, metavar="K",
                   help="log every K-th batch via the telemetry event sink")
    r.add_argument("--live", action="store_true",
                   help="stream a live status line (progress, throughput, "
                        "ETA, hottest spans) to stderr")
    r.add_argument("--phase-tree", type=_arg(_share), nargs="?", const=0.01,
                   metavar="MIN_SHARE",
                   help="print the phase tree, pruning rows below MIN_SHARE "
                        "of the work (default 0.01)")
    r.add_argument("--name", default="profile",
                   help="BENCH payload name (file becomes BENCH_<name>.json)")
    r.add_argument("--bench-out", metavar="DIR",
                   help="write BENCH_<name>.json under DIR")
    r.add_argument("--prom", metavar="PATH",
                   help="dump the metrics registry as Prometheus text")
    r.add_argument("--check", action="store_true",
                   help="replay disarmed too; exit 1 on any work/depth/counter drift")
    r.add_argument("--serve-metrics", type=_arg(_port), default=None, metavar="PORT",
                   help="expose the metrics registry as Prometheus text on "
                        "http://127.0.0.1:PORT/metrics for the run "
                        "(PORT 0 = ephemeral; the bound URL is printed)")
    r.add_argument("--metrics-linger", type=float, default=0.0, metavar="SEC",
                   help="keep the --serve-metrics server up SEC seconds "
                        "after the replay so scrapers can still reach it")
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("exact", help="exact offline measures of a trace's final graph")
    e.add_argument("--trace", required=True)
    e.set_defaults(func=cmd_exact)

    v = sub.add_parser(
        "verify", argument_default=argparse.SUPPRESS,
        help="the one verdict command: a differential panel or seeded fault "
             "trials over one stream (docs/VERIFICATION.md)",
    )
    v.add_argument("--trace", metavar="PATH", help="stream: a trace file")
    v.add_argument("--scenario", metavar="NAME|all",
                   type=_arg(lambda text: text if text == "all" else _scenario(text)),
                   help="stream: a catalog scenario, or all (docs/SCENARIOS.md)")
    v.add_argument("--scale", choices=["tiny", "ci", "bench", "large"],
                   help="the --scenario preset (default ci)")
    v.add_argument("--n", type=_arg(_count),
                   help="stream: generated churn on N vertices (default 24)")
    v.add_argument("--batches", type=_arg(_count), help="its batches (default 20)")
    v.add_argument("--batch-size", type=_arg(_count), help="its batch size (default 6)")
    v.add_argument("--seed", type=int,
                   help="seeds streams, structures and fault plans (default 0)")
    v.add_argument("--structure", metavar="KIND[,KIND...]", type=_arg(_kinds),
                   help="ladders, balanced, coreness, density (default ladders)")
    v.add_argument("--height", type=_arg(lambda text: check_height(int(text))),
                   help="BALANCED(H)'s H (default: the scenario's hint, else 4)")
    v.add_argument("--eps", type=_arg(lambda text: check_eps(float(text))),
                   help="the ladders' eps (default 0.35)")
    v.add_argument("--configs", metavar="A,B,...", type=_arg(_panel),
                   help="the panel (default serial,telemetry,chaos-recovered)")
    v.add_argument("--inject", metavar="SITE[:HIT[:ACTION]]", type=_arg(_fault_triple),
                   help="add an un-recovered fault-injected panel member")
    v.add_argument("--deep-every", metavar="K", type=_arg(_count),
                   help="audit the panel baseline against the exact oracles "
                        "every K batches (default 0: never)")
    v.add_argument("--faults", metavar="F", type=_arg(_count),
                   help="run seeded fault trials with F faults each, not the panel")
    v.add_argument("--trials", metavar="T", type=_arg(_count),
                   help="fault trials per structure and stream (default 10)")
    v.add_argument("--artifact-out", metavar="DIR",
                   help="shrink every red run into a repro artifact under DIR")
    v.add_argument("--replay", metavar="ARTIFACT",
                   help="re-run a repro artifact; exit 0 iff it still fails")
    v.set_defaults(func=cmd_verify)

    sc = sub.add_parser(
        "scenarios", help="list the adversarial scenario catalog (docs/SCENARIOS.md)"
    )
    sc.set_defaults(func=cmd_scenarios)

    sv = sub.add_parser(
        "serve",
        help="run the coreness service: async ingest/query over per-tenant "
             "ladders (docs/SERVICE.md)",
    )
    sv.add_argument("--data-dir", required=True, metavar="DIR",
                    help="durable state root (one subdirectory per tenant: "
                         "meta.json + wal.trace + checkpoint.json)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=_arg(_port), default=0,
                    help="TCP port (0 = ephemeral; the bound port is printed "
                         "on the ready line)")
    sv.add_argument("--shards", type=_arg(_positive), default=4,
                    help="parallel apply lanes; tenants map to lanes by "
                         "name hash")
    sv.add_argument("--checkpoint-every", type=_arg(_positive), default=32, metavar="K",
                    help="full checkpoint every K committed batches per tenant")
    sv.add_argument("--max-pending", type=_arg(_positive), default=256, metavar="N",
                    help="per-lane bound on accepted-but-unapplied batches; "
                         "at the bound, ingest acks stall (backpressure) "
                         "instead of growing an unbounded apply backlog")
    sv.add_argument("--sync", action="store_true",
                    help="fsync every WAL append before acking "
                         "(power-loss durability, slower ingest)")
    sv.add_argument("--serve-metrics", type=_arg(_port), default=None, metavar="PORT",
                    help="expose per-tenant service metrics as Prometheus "
                         "text (PORT 0 = ephemeral; the bound URL is printed)")
    sv.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
