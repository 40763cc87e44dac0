"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``problems`` — list the 17-problem benchmark set (Table II);
* ``prompt N [--level L|M|H]`` — print one problem's prompt;
* ``compile FILE`` — compile a Verilog file with the built-in frontend;
* ``simulate FILE [--top NAME]`` — compile and simulate, print output;
* ``lint FILE`` — run the static lint checks;
* ``evaluate [--model NAME] [--ft] [--n N] [--temperature T]
  [--backend B] [--workers W]`` — query a model on the whole problem set
  and print per-problem verdicts;
* ``sweep [--models A,B] [--backend B] [--workers W] [--executor E]
  [--shards K --shard-index I] [--export PATH] ...`` — plan + run a
  configurable sweep through the job service (optionally one shard of
  it); print jobs/skips/errors and optionally export records to
  JSON/CSV (or a mergeable shard-result file); with ``--stream --url``
  the sweep runs on a remote streaming service and progress renders
  live as NDJSON events arrive; ``--repair-budget N`` gives every
  failing sample up to N agentic repair rounds (error-conditioned
  re-prompts through the repair loop) before its final verdict;
* ``repair [--budgets 0,1,2] [--k K] [--backend B] ...`` — run the
  same sweep at several repair budgets and print the pass@k-vs-budget
  curve (the agentic workload's headline; try ``--backend zoo-repair``,
  whose calibrated models fix a tunable fraction of their own failures
  when re-prompted with their error);
* ``merge SHARD.json ... [--export PATH]`` — recombine executed shard
  files into one serial-order result;
* ``serve [--backend B] [--host H] [--port P] [--workers W]`` — expose
  the session over HTTP (the eval service, JSON routes plus the NDJSON
  streaming ones); point other machines at it with
  ``--backend service --url http://host:port``;
* ``coordinate --shards K [--lease-jobs N] [--lease-seconds S]
  [--checkpoint FILE [--checkpoint-every N]] [--export PATH]
  ...`` — plan a sweep, cut it into work units, and serve them to
  pull-based workers over HTTP, merging results as they stream in (no
  per-worker index bookkeeping; expired leases are re-served);
  ``--lease-jobs N`` cuts contiguous ranges of N jobs, so one straggler
  re-balances finely, and otherwise ``--shards K`` gives K strided
  shards; ``--checkpoint`` persists state atomically and resumes from
  the file on restart without re-running merged units;
* ``work --url URL [--backend B] [--store DIR] [--executor E] ...`` —
  run one pull-based worker against a coordinator until the sweep is
  merged; each leased unit runs on the worker's executor, so
  ``--executor thread --workers N`` keeps N of its jobs in flight;
* ``store {pack,compact,unpack,info} DIR`` — fold a verdict store's
  finished writer segments into a single JSONL pack (``unpack`` turns
  the pack into per-verdict files); ``compact`` rewrites the pack
  without shadowed duplicate lines;
* ``tables [--backend B] [--workers W]`` — run the full sweep and print
  Tables III/IV + headlines + executor stats;
* ``stats TRACE ... [--json]`` — summarize trace files written by
  ``--trace``: per-stage time split, per-worker throughput, and
  job-latency percentiles (p50/p95/p99); arguments may be files,
  directories (every ``.trace``/``.ndjson`` inside) or glob patterns;
* ``hotspots TRACE ... [--coverage F] [--json]`` — rank simulator
  constructs by attributed wall time from ``--profile`` runs until the
  cumulative share reaches the coverage bar (default 80%);
* ``top --url URL [--interval S] [--once]`` — live terminal dashboard
  for a coordinator/service: lease table, per-worker throughput and
  telemetry liveness, stage split, repair lift, error rates;
* ``corpus [--repos N] [--books]`` — build the training corpus, print stats.

``sweep``, ``repair``, ``analyze``, ``coordinate`` and ``work``
additionally accept ``--trace FILE``: every span the run produces
(jobs, pipeline stages, repair rounds, merged units) is appended to
FILE as replayable NDJSON, plus a final metrics snapshot — feed one or
more such files to ``stats``.  ``sweep``, ``repair`` and ``work`` also
accept ``--profile`` (requires ``--trace``): the simulator attributes
wall time and expression-eval counts to netlist constructs and appends
per-problem ``profile`` frames to the trace — rank them with
``hotspots``.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_problems(_args) -> int:
    from .problems import ALL_PROBLEMS

    for problem in ALL_PROBLEMS:
        print(f"{problem.number:>2}  [{problem.difficulty}]  {problem.title}")
    return 0


def _cmd_prompt(args) -> int:
    from .problems import PromptLevel, get_problem

    level = {"L": PromptLevel.LOW, "M": PromptLevel.MEDIUM,
             "H": PromptLevel.HIGH}[args.level]
    print(get_problem(args.number).prompt(level), end="")
    return 0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cmd_compile(args) -> int:
    from .verilog import compile_design

    report = compile_design(_read(args.file), top=args.top)
    if report.ok:
        print("compile: OK")
        return 0
    print("compile: FAILED")
    print(report.error_text)
    return 1


def _cmd_simulate(args) -> int:
    from .verilog import run_simulation

    report, result = run_simulation(
        _read(args.file), top=args.top, max_time=args.max_time,
        compile_sim=args.compile_sim,
    )
    if not report.ok:
        print("compile: FAILED")
        print(report.error_text)
        return 1
    if result is None:
        print("simulation: RUNTIME ERROR")
        print(report.error_text)
        return 1
    print(result.text)
    print(f"-- finished={result.finished} at t={result.time}")
    if report.sim_engine is not None:
        plan = report.sim_engine
        print("-- engine=compiled "
              f"processes={plan['compiled']}/{plan['processes']} "
              f"fallbacks={len(plan['fallbacks'])}")
    if result.vcd is not None and result.vcd_file:
        result.vcd.write(result.vcd_file, top=args.top or "top")
        print(f"-- wrote {result.vcd_file}")
    return 0


def _cmd_lint(args) -> int:
    from .verilog import lint_source_unit, parse

    warnings = lint_source_unit(parse(_read(args.file)))
    for warning in warnings:
        print(warning)
    print(f"-- {len(warnings)} finding(s)")
    return 0 if not warnings else 2


def _cmd_analyze(args) -> int:
    """Corpus analysis: exit 2 on error findings, 1 on compile
    failures, 0 otherwise (warnings/infos are advisory)."""
    from .eval import (
        AnalysisTarget,
        analysis_report_to_json,
        analyze_targets,
        render_analysis_report,
        targets_from_files,
        targets_from_problems,
    )

    try:
        targets = targets_from_files(args.files)
    except OSError as exc:
        print(f"error: {exc}")
        return 2
    if args.top:
        targets = [
            AnalysisTarget(name=t.name, source=t.source, top=args.top)
            for t in targets
        ]
    if args.problems or args.variants:
        from .problems import ALL_PROBLEMS

        targets.extend(
            targets_from_problems(ALL_PROBLEMS, variants=args.variants)
        )
    if not targets:
        print("error: nothing to analyze (pass files and/or --problems)")
        return 2
    reports = analyze_targets(targets, workers=args.workers)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(analysis_report_to_json(reports))
    if args.json:
        print(analysis_report_to_json(reports))
    else:
        print(render_analysis_report(reports))
    if any(r.compiled and r.error_findings for r in reports):
        return 2
    if any(not r.compiled for r in reports):
        return 1
    return 0


def _make_session(args, backend):
    """Build a Session for a resolved ``backend`` from the common
    executor/retry/store flags (no ``--url`` interpretation —
    that is the caller's business: :func:`_session` reads it as a
    service-backend endpoint, ``work`` as the coordinator address)."""
    from .api import Session
    from .eval import RetryPolicy

    retry = None
    if getattr(args, "retries", 0):
        retry = RetryPolicy(
            max_attempts=args.retries + 1,
            backoff_seconds=getattr(args, "backoff", 0.0),
        )
    return Session(
        backend=backend,
        workers=args.workers,
        executor=getattr(args, "executor", "thread"),
        retry=retry,
        store=getattr(args, "store", None),
        repair_budget=getattr(args, "repair_budget", 0),
        analysis=not getattr(args, "no_analysis", False),
        compile_sim=getattr(args, "compile_sim", True),
    )


def _session(args, backend=None):
    """Build a Session from the common service flags.

    ``backend`` overrides ``--backend`` with a ready instance (the
    evaluate command's ad-hoc zoo); every other flag still applies.
    """
    from .backends import create_backend

    if getattr(args, "url", None):
        if backend is not None or args.backend not in ("service", "http"):
            print(f"error: --url does not apply to backend {args.backend!r}")
            raise SystemExit(2)
        backend = create_backend(args.backend, url=args.url)
    elif backend is None:
        backend = args.backend
    return _make_session(args, backend)


def _cmd_evaluate(args) -> int:
    from .backends import LocalZooBackend
    from .models import make_model
    from .problems import PromptLevel, get_problem

    if args.backend == "zoo":
        try:
            model = make_model(args.model, fine_tuned=args.ft)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}")
            return 2
        session = _session(args, backend=LocalZooBackend([model]))
        name = model.name
    else:
        session = _session(args)
        if args.ft:
            print("error: --ft only applies to the zoo backend")
            return 2
        served = session.models()
        if args.model in served:
            name = args.model
        elif args.model == _DEFAULT_EVAL_MODEL:
            # the zoo-oriented default isn't served here; fall back visibly
            name = served[0]
            print(f"-- evaluating {name} (backend {args.backend!r} default)")
        else:
            print(f"error: backend {args.backend!r} does not serve "
                  f"{args.model!r}; serves: {served}")
            return 2
    result = session.evaluate_model(
        name,
        temperature=args.temperature,
        n=args.n,
        levels=(PromptLevel.MEDIUM,),
    )
    total_pass = total = 0
    by_problem: dict[int, list] = {}
    for record in result.sweep.records:
        by_problem.setdefault(record.problem, []).append(record)
    for number, records in sorted(by_problem.items()):
        passes = sum(r.passed for r in records)
        total_pass += passes
        total += len(records)
        title = get_problem(number).title
        print(f"P{number:>2} {title:<40} {passes}/{len(records)}")
    for skip in result.skipped:
        print(f"-- skipped P{skip.problem}: {skip.reason}")
    for error in result.errors:
        print(f"-- failed P{error.job.problem}: {error.error}")
    if total:
        print(f"-- overall {total_pass}/{total} = {total_pass / total:.3f}")
    stats = result.stats
    print(
        f"-- backend={stats.get('backend', '?')} "
        f"workers={stats.get('workers', '?')} "
        f"cache={stats.get('evaluator_cache', {})}"
    )
    return 1 if result.errors else 0


def _parse_levels(text: str):
    from .problems import PromptLevel

    table = {"L": PromptLevel.LOW, "M": PromptLevel.MEDIUM,
             "H": PromptLevel.HIGH}
    return tuple(table[part.strip().upper()] for part in text.split(","))


def _build_sweep_config(args):
    """The SweepConfig described by the sweep-shaped flags, or ``None``
    after printing the error (callers return exit code 2)."""
    from .eval import SweepConfig
    from .problems import ALL_PROBLEMS

    defaults = SweepConfig()
    try:
        if args.levels:
            levels = _parse_levels(args.levels)
    except KeyError as exc:
        print(f"error: unknown level {exc.args[0]!r}; choose from L,M,H")
        return None
    try:
        config = SweepConfig(
            temperatures=tuple(float(t) for t in args.temperatures.split(","))
            if args.temperatures else defaults.temperatures,
            completions_per_prompt=tuple(int(n) for n in args.n.split(","))
            if args.n else defaults.completions_per_prompt,
            levels=levels if args.levels else defaults.levels,
            problem_numbers=tuple(int(p) for p in args.problems.split(","))
            if args.problems else defaults.problem_numbers,
            max_tokens=args.max_tokens,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return None
    known_problems = {p.number for p in ALL_PROBLEMS}
    unknown = sorted(set(config.problem_numbers) - known_problems)
    if unknown:
        print(f"error: unknown problem number(s) {unknown}; "
              f"valid: 1..{max(known_problems)}")
        return None
    return config


def _render_stream_event(frame: dict) -> None:
    """One human line per interesting stream frame (the live view).

    Observational frames (``metric``/``span``) and any future event
    types fall through silently — the live view only narrates progress.
    """
    event = frame["event"]
    if event == "job_started":
        print(f"  > job {frame['job_index']}: {frame['model']} "
              f"P{frame['problem']}", flush=True)
    elif event == "job_error":
        error = frame["error"]
        print(f"  ! job {frame['job_index']} failed "
              f"({error['job']['model']} P{error['job']['problem']}): "
              f"{error['error']}", flush=True)
    elif event == "attempt":
        stage = f" [{frame['stage']}]" if frame.get("stage") else ""
        print(f"  ~ repair {frame['model']} P{frame['problem']}"
              f"#{frame.get('sample_index', 0)} round {frame['round']}: "
              f"{frame['verdict']}{stage}", flush=True)
    elif event == "progress":
        print(f"  [{frame['jobs_done']}/{frame['jobs_total']}] "
              f"{frame['records']} records, {frame['errors']} errors",
              flush=True)


def _cmd_sweep_stream(args, config) -> int:
    """The ``sweep --stream`` path: consume a remote NDJSON sweep live."""
    from .backends import BackendError
    from .eval import save_sweep
    from .service import StreamProtocolError, stream_sweep

    # the sweep executes on the *server's* session; flags that configure
    # a local executor do not travel — say so instead of silently
    # dropping them (--workers does ship, as the request's concurrency)
    ignored = [
        flag
        for flag, is_set in (
            ("--retries", bool(args.retries)),
            ("--backoff", bool(getattr(args, "backoff", 0.0))),
            ("--store", args.store is not None),
            ("--executor", args.executor != "thread"),
            ("--backend", args.backend != "zoo"),
            ("--repair-budget", bool(getattr(args, "repair_budget", 0))),
        )
        if is_set
    ]
    if ignored:
        print(f"-- note: {', '.join(ignored)} configure a local session "
              f"and are ignored by --stream (the server's session "
              f"governs retry/store/executor)")
    models = args.models.split(",") if args.models else None
    try:
        result = stream_sweep(
            args.url,
            config=config,
            models=models,
            on_event=_render_stream_event,
            concurrency=args.workers if args.workers > 1 else None,
        )
    except (BackendError, StreamProtocolError) as exc:
        print(f"error: {exc}")
        return 2
    for skip in result.skipped:
        print(
            f"  skipped {skip.model} P{skip.problem} {skip.level} "
            f"t={skip.temperature} n={skip.n}: {skip.reason}"
        )
    sweep = result.sweep
    rate = sweep.rate(sweep.records) if sweep.records else 0.0
    print(f"{len(sweep)} records, overall pass rate {rate:.3f}")
    stats = result.stats
    print(
        f"-- streamed from {args.url} backend={stats.get('backend', '?')} "
        f"concurrency={stats.get('concurrency', '?')} "
        f"elapsed={stats.get('elapsed_seconds', 0.0):.2f}s"
    )
    if args.export:
        save_sweep(sweep, args.export)
        print(f"-- wrote {args.export}")
    return 1 if result.errors else 0


def _cmd_sweep(args) -> int:
    from .backends import BackendError
    from .eval import save_sweep

    shard_mode = args.shard_index is not None
    if args.stream:
        if not args.url:
            print("error: --stream needs --url (an eval service "
                  "endpoint from `repro serve`)")
            return 2
        if shard_mode or args.shards > 1:
            print("error: --stream runs the whole plan server-side; "
                  "it does not combine with --shards")
            return 2
        if args.export and not args.export.endswith((".json", ".csv")):
            print(f"error: --export must end in .json or .csv, "
                  f"got {args.export!r}")
            return 2
        config = _build_sweep_config(args)
        if config is None:
            return 2
        return _cmd_sweep_stream(args, config)
    if args.export:
        if shard_mode and not args.export.endswith(".json"):
            print(f"error: with --shards, --export writes a mergeable "
                  f"shard result and must end in .json, got {args.export!r}")
            return 2
        if not args.export.endswith((".json", ".csv")):
            print(f"error: --export must end in .json or .csv, "
                  f"got {args.export!r}")
            return 2
    session = _session(args)
    config = _build_sweep_config(args)
    if config is None:
        return 2
    if shard_mode and not 0 <= args.shard_index < args.shards:
        print(f"error: --shard-index must be in 0..{args.shards - 1}")
        return 2
    if args.shards > 1 and not shard_mode:
        print("error: --shards needs --shard-index (run one shard per call)")
        return 2
    models = args.models.split(",") if args.models else None
    try:
        plan = session.plan(config, models=models)
    except BackendError as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"planned {len(plan.jobs)} jobs "
        f"({plan.completions_planned} completions), "
        f"{len(plan.skipped)} skipped"
    )
    shard = None
    if shard_mode:
        from .service import ShardPlanner

        shard = ShardPlanner(args.shards).split(plan)[args.shard_index]
        plan = shard.plan
        print(
            f"shard {shard.shard_index + 1}/{shard.num_shards}: "
            f"{len(plan.jobs)} jobs, {len(plan.skipped)} skips"
        )
    result = session.run_plan(plan)
    for skip in result.skipped:
        print(
            f"  skipped {skip.model} P{skip.problem} {skip.level} "
            f"t={skip.temperature} n={skip.n}: {skip.reason}"
        )
    for error in result.errors:
        job = error.job
        print(f"  failed {job.model} P{job.problem}: {error.error}")
    sweep = result.sweep
    rate = sweep.rate(sweep.records) if sweep.records else 0.0
    print(f"{len(sweep)} records, overall pass rate {rate:.3f}")
    stats = result.stats
    print(
        f"-- backend={stats.get('backend', '?')} "
        f"workers={stats.get('workers', '?')} "
        f"elapsed={stats.get('elapsed_seconds', 0.0):.2f}s "
        f"cache={stats.get('evaluator_cache', {})}"
    )
    if args.export:
        if shard is not None:
            from .service import save_shard_result

            save_shard_result(shard, result, args.export)
            print(f"-- wrote shard result {args.export} "
                  f"(merge with: python -m repro merge ...)")
        else:
            save_sweep(sweep, args.export)
            print(f"-- wrote {args.export}")
    return 1 if result.errors else 0


def _cmd_repair(args) -> int:
    """Run the same sweep at several repair budgets; print the curve."""
    from .backends import BackendError
    from .eval import save_sweep

    config = _build_sweep_config(args)
    if config is None:
        return 2
    try:
        budgets = tuple(int(part) for part in args.budgets.split(","))
    except ValueError:
        print(f"error: --budgets must be comma-separated integers, "
              f"got {args.budgets!r}")
        return 2
    if any(budget < 0 for budget in budgets):
        print("error: repair budgets must be >= 0")
        return 2
    if args.export and not args.export.endswith((".json", ".csv")):
        print(f"error: --export must end in .json or .csv, "
              f"got {args.export!r}")
        return 2
    session = _session(args)
    models = args.models.split(",") if args.models else None
    try:
        out = session.repair_curve(
            budgets=budgets, config=config, models=models, k=args.k
        )
    except BackendError as exc:
        print(f"error: {exc}")
        return 2
    header = f"pass@{args.k}"
    print(f"{'budget':>6} {'records':>8} {'compile':>8} {'pass':>8} "
          f"{header:>8} {'lift':>8}")
    for row in out["curve"]:
        print(f"{row['budget']:>6} {row['records']:>8} "
              f"{row['compile_rate']:>8.3f} {row['pass_rate']:>8.3f} "
              f"{row['pass_at_k']:>8.3f} {row['lift']:>+8.3f}")
    top = max(out["results"])
    stats = out["results"][top].stats
    print(f"-- backend={stats.get('backend', '?')} "
          f"workers={stats.get('workers', '?')} "
          f"cache={stats.get('evaluator_cache', {})}")
    if args.export:
        save_sweep(out["results"][top].sweep, args.export)
        print(f"-- wrote {args.export} (budget-{top} records)")
    errors = sum(len(result.errors) for result in out["results"].values())
    return 1 if errors else 0


def _cmd_merge(args) -> int:
    from .eval import save_sweep, save_sweep_result
    from .service import merge_shard_files

    try:
        result = merge_shard_files(args.files)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    sweep = result.sweep
    rate = sweep.rate(sweep.records) if sweep.records else 0.0
    stats = result.stats
    print(
        f"merged {stats['shards']} shards: {len(sweep)} records, "
        f"{stats['jobs_skipped']} skips, {stats['jobs_failed']} failures, "
        f"overall pass rate {rate:.3f}"
    )
    if args.export:
        if args.full:
            if not args.export.endswith(".json"):
                print("error: --full exports to .json only")
                return 2
            save_sweep_result(result, args.export)
        elif args.export.endswith((".json", ".csv")):
            save_sweep(sweep, args.export)
        else:
            print(f"error: --export must end in .json or .csv, "
                  f"got {args.export!r}")
            return 2
        print(f"-- wrote {args.export}")
    return 1 if result.errors else 0


def _cmd_serve(args) -> int:
    import time as _time

    from .service import AsyncEvalService

    session = _session(args)
    service = AsyncEvalService(session, host=args.host, port=args.port)
    # the daemon-thread loop resolves port 0 and keeps this thread free
    # to catch Ctrl-C; streaming routes are live immediately
    url = service.start()
    print(f"eval service on {url} (backend={session.backend.name}, "
          f"workers={args.workers}, +/sweep/stream) — Ctrl-C to stop")
    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        service.stop()
    return 0


def _cmd_coordinate(args) -> int:
    import os as _os
    import time as _time

    from .eval import save_sweep

    config = _build_sweep_config(args)
    if config is None:
        return 2
    if args.shards is None and args.lease_jobs is None:
        print("error: coordinate needs --shards K and/or --lease-jobs N")
        return 2
    if args.export and not args.export.endswith((".json", ".csv")):
        print(f"error: --export must end in .json or .csv, "
              f"got {args.export!r}")
        return 2
    from .api import Session
    from .service import save_checkpoint

    session = Session(backend=args.backend)
    models = args.models.split(",") if args.models else None
    coordinator = None
    if args.checkpoint and _os.path.exists(args.checkpoint):
        from .service import load_checkpoint

        try:
            coordinator = load_checkpoint(args.checkpoint)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"error: unreadable checkpoint {args.checkpoint}: {exc}")
            return 2
        # the checkpointed units win over --shards/--lease-jobs, but
        # lease timing is a serving knob: this run's flag governs
        coordinator.lease_seconds = args.lease_seconds
        restored = coordinator.status()
        print(f"resumed from {args.checkpoint}: "
              f"{restored['done']}/{restored['num_units']} units already "
              f"merged ({restored['records_merged']} records) — the "
              f"checkpointed units win over --shards/--lease-jobs")
    if coordinator is None:
        from .service import ShardCoordinator, ShardPlanner, job_ranges

        plan = session.plan(config, models=models)
        coordinator = ShardCoordinator(
            job_ranges(plan, args.lease_jobs) if args.lease_jobs is not None
            else ShardPlanner(args.shards).split(plan),
            lease_seconds=args.lease_seconds,
        )
    from .service import AsyncEvalService

    service = AsyncEvalService(
        session, host=args.host, port=args.port, coordinator=coordinator
    )
    service.start()  # daemon-thread loop; resolves port 0
    print(f"shard coordinator on {service.url}: "
          f"{coordinator.num_units} units, "
          f"lease {coordinator.lease_seconds:.0f}s — point workers at it with "
          f"`python -m repro work --url {service.url}` (live status: "
          "GET /shard/status/stream)")
    checkpoint_last = coordinator.status()["done"]
    if args.checkpoint and not _os.path.exists(args.checkpoint):
        save_checkpoint(coordinator, args.checkpoint)  # resumable from t=0
    last_done = -1
    try:
        while not coordinator.done:
            status = coordinator.status()
            if status["done"] != last_done:
                last_done = status["done"]
                print(f"  {status['done']}/{status['num_units']} units "
                      f"merged, {status['records_merged']} records "
                      f"({status['leased']} leased, "
                      f"{status['pending']} pending)")
            if (
                args.checkpoint
                and status["done"] - checkpoint_last >= args.checkpoint_every
            ):
                save_checkpoint(coordinator, args.checkpoint)
                checkpoint_last = status["done"]
            _time.sleep(args.poll_seconds)
        # keep answering /shard/next with done=true for a grace window,
        # so workers that were idle-polling exit cleanly instead of
        # hitting a vanished server
        if args.linger_seconds > 0:
            _time.sleep(args.linger_seconds)
    except KeyboardInterrupt:
        if args.checkpoint:
            save_checkpoint(coordinator, args.checkpoint)
            print(f"\ninterrupted; checkpoint saved to {args.checkpoint} "
                  f"— rerun with the same --checkpoint to resume")
        else:
            print("\ninterrupted; shards outstanding:",
                  coordinator.status()["pending"]
                  + coordinator.status()["leased"])
        return 130
    finally:
        service.stop()
    if args.checkpoint:
        save_checkpoint(coordinator, args.checkpoint)  # final: all done
    result = coordinator.result()
    sweep = result.sweep
    rate = sweep.rate(sweep.records) if sweep.records else 0.0
    stats = result.stats
    print(f"merged {stats['shards']} shards: {len(sweep)} records, "
          f"{stats['jobs_skipped']} skips, {stats['jobs_failed']} failures, "
          f"{stats['leases_reclaimed']} leases re-served, "
          f"overall pass rate {rate:.3f}")
    if args.export:
        save_sweep(sweep, args.export)
        print(f"-- wrote {args.export}")
    return 1 if result.errors else 0


def _cmd_work(args) -> int:
    from .backends import BackendError

    try:
        session = _make_session(args, args.backend)
        summary = session.work(
            url=args.url,
            worker_id=args.worker_id,
            poll_seconds=args.poll_seconds,
            max_idle_polls=args.max_idle_polls,
        )
    except BackendError as exc:
        print(f"error: {exc}")
        return 2
    except KeyboardInterrupt:
        print("\nworker stopped")
        return 130
    if summary["coordinator_gone"]:
        print("-- coordinator went away mid-poll (finished or shut down)")
    print(f"worker {summary['worker_id']}: {summary['shards']} units, "
          f"{summary['jobs']} jobs, {summary['records']} records, "
          f"{summary['errors']} job errors")
    return 0


def _cmd_tables(args) -> int:
    from .eval import (
        headline_numbers,
        render_headline,
        render_table3,
        render_table4,
        table3,
        table4,
    )

    session = _session(args)
    result = session.run_sweep()
    sweep = result.sweep
    print(render_table3(table3(sweep)))
    print()
    print(render_table4(table4(sweep)))
    print()
    print(render_headline(headline_numbers(sweep)))
    stats = result.stats
    print(
        f"-- backend={stats.get('backend', '?')} "
        f"workers={stats.get('workers', '?')} "
        f"jobs={stats.get('jobs', '?')} "
        f"skipped={stats.get('jobs_skipped', '?')} "
        f"cache={stats.get('evaluator_cache', {})}"
    )
    return 0


def _cmd_store(args) -> int:
    import os as _os

    from .eval import VerdictStore

    if not _os.path.isdir(args.dir):
        # even `info` must not conjure an empty store out of a typo'd
        # path (VerdictStore.__init__ creates its directory)
        print(f"error: {args.dir!r} is not a verdict store directory")
        return 2
    store = VerdictStore(args.dir)
    if args.action == "pack":
        packed = store.pack()
        stats = store.stats()
        print(f"packed {packed} verdict(s) into {store.pack_path} "
              f"({stats['entries']} entries total)")
    elif args.action == "compact":
        removed = store.compact()
        stats = store.stats()
        print(f"compacted {store.pack_path}: dropped {removed} dead "
              f"line(s) ({stats['packed']} packed entries remain)")
    elif args.action == "unpack":
        restored = store.unpack()
        print(f"unpacked {restored} verdict(s) back into {store.path} "
              f"({len(store)} entries total)")
    else:  # info
        stats = store.stats()
        print(f"store {store.path}: {stats['entries']} entries "
              f"({stats['files']} files, {stats['segments']} segments, "
              f"{stats['packed']} packed)")
    return 0


def _cmd_stats(args) -> int:
    """Summarize ``--trace`` NDJSON files: stages, workers, latency."""
    import json as _json

    from .obs import (
        TraceFormatError,
        expand_trace_paths,
        render_stats,
        summarize_traces,
    )

    try:
        summary = summarize_traces(expand_trace_paths(args.files))
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_stats(summary))
    return 0


def _cmd_hotspots(args) -> int:
    """Rank profiled simulator constructs by attributed wall time."""
    import json as _json

    from .obs import (
        TraceFormatError,
        expand_trace_paths,
        render_hotspots,
        summarize_traces,
    )

    if not 0.0 < args.coverage <= 1.0:
        print(f"error: --coverage must be in (0, 1], got {args.coverage}")
        return 2
    try:
        summary = summarize_traces(expand_trace_paths(args.files))
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        print(_json.dumps(summary.get("profile", {}), indent=2,
                          sort_keys=True))
    else:
        print(render_hotspots(summary, coverage=args.coverage))
    return 0


def _cmd_top(args) -> int:
    """Live terminal dashboard against a coordinator/service URL."""
    from .obs import run_top

    return run_top(args.url, interval=args.interval, once=args.once)


def _cmd_corpus(args) -> int:
    from .corpus import CorpusConfig, build_corpus

    corpus = build_corpus(
        CorpusConfig(repos=args.repos, include_textbooks=args.books)
    )
    for stage, count in corpus.stage_log:
        print(f"{stage:<18} {count}")
    stats = corpus.corpus.stats()
    print(f"files              {stats['files']}")
    print(f"bytes              {stats['bytes']}")
    print(f"dropped            {stats['dropped']}")
    print(f"by origin          {stats['by_origin']}")
    return 0


_DEFAULT_EVAL_MODEL = "codegen-16b"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {value}"
        )
    return value


def _add_executor_flag(parser: argparse.ArgumentParser) -> None:
    from .api import EXECUTORS

    parser.add_argument(
        "--executor", choices=EXECUTORS, default="thread",
        help="worker pool flavour: thread (shared cache; hides a "
             "remote backend's latency) or process (GIL-free, for "
             "CPU-bound sweeps)",
    )


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    from .backends import available_backends

    parser.add_argument(
        "--backend", default="zoo", choices=available_backends(),
        help="generation backend (default: the local simulated zoo)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="executor pool width (default: 1, serial)",
    )
    parser.add_argument(
        "--url", default=None,
        help="endpoint for the service/http backends "
             "(e.g. http://host:8076 from `repro serve`)",
    )
    _add_executor_flag(parser)
    parser.add_argument(
        "--retries", type=_non_negative_int, default=0,
        help="retry transient backend errors this many times per job",
    )
    parser.add_argument(
        "--backoff", type=_non_negative_float, default=0.0,
        help="base backoff seconds between retries (doubles per attempt)",
    )
    parser.add_argument(
        "--store", default=None,
        help="directory for the shared on-disk verdict store "
             "(cross-process compile/simulate cache)",
    )
    parser.add_argument(
        "--repair-budget", type=_non_negative_int, default=0, metavar="N",
        help="agentic repair: give each failing sample up to N "
             "error-conditioned repair rounds before its final verdict "
             "(default: 0, no repair)",
    )
    parser.add_argument(
        "--compile-sim", action=argparse.BooleanOptionalAction,
        default=True,
        help="run bench simulations on the netlist→closure engine "
             "(default: on; --no-compile-sim restores the pure "
             "tree-walking interpreter — verdicts are identical either "
             "way)",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append every span this run produces (jobs, stages, repair "
             "rounds, merged units) plus a final metrics snapshot to "
             "FILE as NDJSON; summarize with `python -m repro stats`",
    )


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="attribute simulator wall time and expression-eval counts "
             "to netlist constructs, appending per-problem profile "
             "frames to the trace (requires --trace; rank with "
             "`python -m repro hotspots`)",
    )


def _add_sweep_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--models", default=None,
                        help="comma-separated variant names "
                             "(default: all served)")
    parser.add_argument("--temperatures", default=None,
                        help="comma-separated floats (default: paper sweep)")
    parser.add_argument("--n", default=None,
                        help="comma-separated completions-per-prompt "
                             "(default: 10)")
    parser.add_argument("--levels", default=None,
                        help="comma-separated from L,M,H (default: all)")
    parser.add_argument("--problems", default=None,
                        help="comma-separated problem numbers "
                             "(default: all 17)")
    parser.add_argument("--max-tokens", type=int, default=300)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the DATE 2023 Verilog-LLM benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("problems", help="list the benchmark problems")

    p = sub.add_parser("prompt", help="print a problem prompt")
    p.add_argument("number", type=int)
    p.add_argument("--level", choices=("L", "M", "H"), default="M")

    p = sub.add_parser("compile", help="compile a Verilog file")
    p.add_argument("file")
    p.add_argument("--top", default=None)

    p = sub.add_parser("simulate", help="compile and simulate a file")
    p.add_argument("file")
    p.add_argument("--top", default=None)
    p.add_argument("--max-time", type=int, default=1_000_000)
    p.add_argument("--compile-sim", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="run on the netlist→closure engine (default: on; "
                        "--no-compile-sim uses the tree-walking "
                        "interpreter — output is identical)")

    p = sub.add_parser("lint", help="run static lint checks on a file")
    p.add_argument("file")

    p = sub.add_parser(
        "analyze",
        help="netlist static analysis over files and/or the problem set",
    )
    p.add_argument("files", nargs="*",
                   help="Verilog files to analyze (top inferred unless "
                        "--top)")
    p.add_argument("--problems", action="store_true",
                   help="also analyze every canonical problem solution")
    p.add_argument("--variants", action="store_true",
                   help="with --problems, include the planted wrong "
                        "variants")
    p.add_argument("--top", default=None,
                   help="top module name for file targets "
                        "(default: inferred per file)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="thread-pool width for the corpus fan-out")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable JSON report")
    p.add_argument("--export", default=None,
                   help="also write the JSON report to this path")
    _add_trace_flag(p)

    p = sub.add_parser("evaluate", help="evaluate a model on the set")
    p.add_argument("--model", default=_DEFAULT_EVAL_MODEL)
    p.add_argument("--ft", action="store_true")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--temperature", type=float, default=0.1)
    _add_service_flags(p)

    p = sub.add_parser("sweep", help="run a configurable sweep via the job service")
    _add_sweep_config_flags(p)
    p.add_argument("--export", default=None,
                   help="write records to this .json or .csv path "
                        "(with --shards: a mergeable shard-result .json)")
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="split the plan into this many deterministic shards")
    p.add_argument("--shard-index", type=int, default=None,
                   help="which shard to run (0-based; requires --shards)")
    p.add_argument("--stream", action="store_true",
                   help="run the sweep on a remote streaming service "
                        "(--url, from `repro serve`) and render "
                        "progress live as NDJSON events arrive")
    p.add_argument("--no-analysis", action="store_true",
                   help="skip the netlist static-analysis gate "
                        "(pure compile+simulate verdicts)")
    _add_trace_flag(p)
    _add_profile_flag(p)
    _add_service_flags(p)

    p = sub.add_parser(
        "repair",
        help="run a sweep at several repair budgets; print pass@k vs budget",
    )
    _add_sweep_config_flags(p)
    p.add_argument("--budgets", default="0,1,2",
                   help="comma-separated repair budgets to sweep "
                        "(default: 0,1,2)")
    p.add_argument("--k", type=_positive_int, default=1,
                   help="k for the per-problem pass@k column (default: 1)")
    p.add_argument("--export", default=None,
                   help="write the highest-budget sweep's records to "
                        ".json/.csv")
    _add_trace_flag(p)
    _add_profile_flag(p)
    _add_service_flags(p)

    p = sub.add_parser("merge", help="merge executed shard-result files")
    p.add_argument("files", nargs="+",
                   help=".json files written by sweep --shards --export")
    p.add_argument("--export", default=None,
                   help="write merged records to .json/.csv")
    p.add_argument("--full", action="store_true",
                   help="export the full result (records+skips+errors) JSON")

    p = sub.add_parser("serve", help="expose the eval service over HTTP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8076,
                   help="listening port (0 = pick a free one)")
    _add_service_flags(p)

    p = sub.add_parser(
        "coordinate",
        help="serve sweep shards to pull-based workers; merge as they land",
    )
    _add_sweep_config_flags(p)
    p.add_argument("--shards", type=_positive_int, default=None,
                   help="cut the plan into K strided shards "
                        "(unused with --lease-jobs)")
    p.add_argument("--lease-jobs", type=_positive_int, default=None,
                   help="cut the plan into contiguous ranges of N jobs "
                        "instead — a straggling worker holds at most N "
                        "jobs hostage")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8076,
                   help="listening port (0 = pick a free one)")
    p.add_argument("--lease-seconds", type=_positive_float, default=300.0,
                   help="re-serve a shard if its worker goes this long "
                        "without submitting")
    p.add_argument("--poll-seconds", type=_positive_float, default=0.2,
                   help="progress-print poll interval")
    p.add_argument("--linger-seconds", type=float, default=2.0,
                   help="keep serving done-signals this long after the "
                        "merge completes so idle workers exit cleanly")
    p.add_argument("--export", default=None,
                   help="write the merged records to .json/.csv")
    p.add_argument("--checkpoint", default=None,
                   help="persist coordinator state to this file (atomic) "
                        "and resume from it if it already exists")
    p.add_argument("--checkpoint-every", type=_positive_int, default=1,
                   help="checkpoint after this many newly merged units "
                        "(default: every unit)")
    _add_trace_flag(p)
    # no executor/worker/store flags: the coordinator plans and serves
    # shards but never executes jobs — those belong on `repro work`
    from .backends import available_backends

    p.add_argument(
        "--backend", default="zoo", choices=available_backends(),
        help="backend whose capability claims drive sweep planning",
    )

    p = sub.add_parser(
        "work",
        help="pull and execute shards from a coordinator until done",
    )
    p.add_argument("--url", required=True,
                   help="coordinator URL (from `repro coordinate`)")
    p.add_argument("--backend", default="zoo",
                   help="local generation backend to execute shards with")
    p.add_argument("--workers", type=_positive_int, default=1)
    _add_executor_flag(p)
    p.add_argument("--retries", type=_non_negative_int, default=0)
    p.add_argument("--backoff", type=_non_negative_float, default=0.0)
    p.add_argument("--store", default=None,
                   help="shared on-disk verdict store directory")
    p.add_argument("--repair-budget", type=_non_negative_int, default=0,
                   metavar="N",
                   help="agentic repair rounds per failing sample "
                        "(every worker of one sweep must use the same "
                        "value to keep merge parity)")
    p.add_argument("--worker-id", default=None,
                   help="name reported to the coordinator "
                        "(default: host-pid)")
    p.add_argument("--poll-seconds", type=_positive_float, default=0.5,
                   help="nap between polls when all shards are leased out")
    p.add_argument("--max-idle-polls", type=_positive_int, default=None,
                   help="give up after this many consecutive empty polls "
                        "(default: wait until done)")
    _add_trace_flag(p)
    _add_profile_flag(p)

    p = sub.add_parser(
        "store",
        help="manage an on-disk verdict store (pack/compact/unpack/info)",
    )
    p.add_argument("action", choices=("pack", "compact", "unpack", "info"),
                   help="pack: fold the segments of finished writers "
                        "(and any per-verdict files) into one JSONL, safe "
                        "on a live store; compact: rewrite the pack "
                        "without shadowed duplicate lines; unpack: the "
                        "pack back into per-verdict files; info: entry "
                        "counts and files by form")
    p.add_argument("dir", help="verdict store directory (from --store)")

    p = sub.add_parser("tables", help="run the full sweep; print Tables III/IV")
    _add_service_flags(p)

    p = sub.add_parser(
        "stats",
        help="summarize --trace NDJSON files (stages, workers, latency)",
    )
    p.add_argument("files", nargs="+",
                   help="trace files written by sweep/work/coordinate "
                        "--trace (one per process; pass them all) — "
                        "directories and glob patterns expand to every "
                        ".trace/.ndjson inside")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON instead of tables")

    p = sub.add_parser(
        "hotspots",
        help="rank profiled simulator constructs by attributed time",
    )
    p.add_argument("files", nargs="+",
                   help="trace files with profile frames (from --trace "
                        "--profile); directories and globs expand")
    p.add_argument("--coverage", type=float, default=0.80, metavar="F",
                   help="rank constructs until this fraction of the "
                        "attributed time is covered (default: 0.80)")
    p.add_argument("--json", action="store_true",
                   help="emit the profile summary as JSON")

    p = sub.add_parser(
        "top",
        help="live terminal dashboard for a coordinator/service",
    )
    p.add_argument("--url", required=True,
                   help="service or coordinator URL (from `repro serve` "
                        "or `repro coordinate`)")
    p.add_argument("--interval", type=_positive_float, default=2.0,
                   help="refresh interval in seconds (default: 2)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no screen clear)")

    p = sub.add_parser("corpus", help="build the training corpus")
    p.add_argument("--repos", type=int, default=60)
    p.add_argument("--books", action="store_true")

    return parser


_COMMANDS = {
    "problems": _cmd_problems,
    "prompt": _cmd_prompt,
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "repair": _cmd_repair,
    "merge": _cmd_merge,
    "serve": _cmd_serve,
    "coordinate": _cmd_coordinate,
    "work": _cmd_work,
    "store": _cmd_store,
    "tables": _cmd_tables,
    "stats": _cmd_stats,
    "hotspots": _cmd_hotspots,
    "top": _cmd_top,
    "corpus": _cmd_corpus,
}


def _run_traced(args) -> int:
    """Run one command inside a :class:`~repro.obs.TraceWriter` sink."""
    import contextlib

    from .obs import TraceWriter, profiling

    tags = {"command": args.command}
    if args.command == "work":
        # resolve the worker id up front so every span in this file is
        # tagged with the same name the coordinator sees
        if not getattr(args, "worker_id", None):
            from .service.client import default_worker_id

            args.worker_id = default_worker_id()
        tags["worker"] = args.worker_id
    profiled = getattr(args, "profile", False)
    if profiled:
        tags["profiled"] = True
    profile_ctx = profiling() if profiled else contextlib.nullcontext()
    with TraceWriter(args.trace, tags=tags), profile_ctx:
        code = _COMMANDS[args.command](args)
    summarize = "hotspots" if profiled else "stats"
    print(f"-- wrote trace {args.trace} "
          f"(summarize with: python -m repro {summarize} {args.trace})")
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", False) and not getattr(args, "trace", None):
        print("error: --profile needs --trace FILE (profile frames are "
              "recorded into the trace)")
        return 2
    if getattr(args, "trace", None):
        return _run_traced(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
