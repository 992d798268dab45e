"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage (also via ``python -m repro``)::

    python -m repro tables                      # Tables I, IV, V + phi_1
    python -m repro figure fig6 [--replications 30] [--seed 2012]
    python -m repro scenario 4 [--replications 30]
    python -m repro robustness                  # the (rho1, rho2) tuple
    python -m repro techniques                  # list DLS techniques
    python -m repro heuristics                  # list RA heuristics
    python -m repro export instance.json        # save the paper instance

Observability (the flags come *before* the subcommand)::

    python -m repro --trace run.jsonl scenario 4    # JSONL span/metric trace
    python -m repro --metrics robustness            # metrics summary tables
    python -m repro --log-level debug tables        # diagnostics on stderr

Run store and analysis (``REPRO_RUN_DIR`` is the flagless equivalent)::

    python -m repro --run-dir runs/ scenario 4 --faults   # record artifacts
    python -m repro --run-dir runs/ runs [--format json]  # list past runs
    python -m repro report runs/<id> --chrome-trace t.json
    python -m repro compare runs/<idA> runs/<idB>

``repro report`` lists the run's top spans by self-time; see
``docs/profiling.md`` for finer-grained profiling.

All deliverable output goes to stdout through :func:`repro.obs.console`;
diagnostics go to the ``repro`` logger on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

from .dls import ALL_TECHNIQUES
from .errors import ExecutionError, ObservabilityError
from .exec import ExecutionBackend, default_workers, get_backend, parse_workers
from .framework import Scenario, run_scenario
from .obs import (
    ENV_RUN_DIR,
    Observation,
    RunRecorder,
    RunStore,
    configure_logging,
    console,
    current,
    current_recorder,
    format_observability,
    metrics_snapshot,
    obs_enabled,
    observed,
    recording,
    render_run_comparison,
    render_run_report,
    resolve_run,
    write_chrome_trace,
)
from .paper import (
    data,
    figure_series,
    paper_cases,
    paper_cdsf,
    phi1_values,
    table_i_rows,
    table_iv_rows,
    table_v_rows,
)
from .ra import HEURISTICS
from .reporting import render_table

__all__ = ["main", "build_parser"]

_SCENARIOS = {
    1: Scenario.NAIVE_IM_NAIVE_RAS,
    2: Scenario.ROBUST_IM_NAIVE_RAS,
    3: Scenario.NAIVE_IM_ROBUST_RAS,
    4: Scenario.ROBUST_IM_ROBUST_RAS,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CDSF reproduction: regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a JSONL span/metric trace of the run to PATH",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print an observability metrics summary after the command",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable repro's stderr logging at the given level",
    )
    parser.add_argument(
        "--workers", metavar="N", default=None,
        help="worker processes for simulation/evaluation fan-out; "
        "0 or 'auto' = one per CPU core (default: $REPRO_WORKERS, "
        "else 1 = serial; results are identical at any worker count)",
    )
    parser.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="record this invocation as a run directory under DIR "
        "(manifest, trace, metrics, result tables; default: "
        f"${ENV_RUN_DIR}); past runs feed 'report' and 'compare'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I, IV, V and phi_1")

    fig = sub.add_parser("figure", help="regenerate a figure's data series")
    fig.add_argument("name", choices=["fig3", "fig4", "fig5", "fig6"])
    fig.add_argument(
        "--chart", action="store_true",
        help="render the figure as terminal bar charts",
    )
    _sim_args(fig)

    scen = sub.add_parser("scenario", help="run one of the four scenarios")
    scen.add_argument("number", type=int, choices=[1, 2, 3, 4])
    _sim_args(scen)

    rob = sub.add_parser("robustness", help="compute the (rho1, rho2) tuple")
    _sim_args(rob)

    sub.add_parser("techniques", help="list the implemented DLS techniques")
    sub.add_parser("heuristics", help="list the implemented RA heuristics")

    exp = sub.add_parser(
        "export", help="write the paper instance as a JSON file"
    )
    exp.add_argument("path", help="output file, e.g. paper_instance.json")

    runs = sub.add_parser("runs", help="list recorded runs under --run-dir")
    runs.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format (json is line-for-line scriptable)",
    )

    rep = sub.add_parser(
        "report", help="render a markdown report of one recorded run"
    )
    rep.add_argument(
        "run", help="run directory, or a run id under --run-dir"
    )
    rep.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the markdown to PATH instead of stdout",
    )
    rep.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help="additionally export the run's worker timelines as "
        "Chrome trace-event JSON (open in Perfetto)",
    )

    cmp_ = sub.add_parser(
        "compare", help="diff two recorded runs (B relative to A)"
    )
    cmp_.add_argument("run_a", help="baseline run directory or id")
    cmp_.add_argument("run_b", help="comparison run directory or id")
    cmp_.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the markdown to PATH instead of stdout",
    )

    return parser


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=``: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse ``type=``: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--replications", type=_int_at_least(1), default=None)
    parser.add_argument("--seed", type=_int_at_least(0), default=None)
    parser.add_argument(
        "--statistic", default="mean", choices=["mean", "median", "max", "p90"]
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="chaos mode: inject seed-deterministic worker crashes, "
        "blackouts, and slowdowns into every simulation",
    )
    parser.add_argument(
        "--fault-rate", type=_positive_float, metavar="RATE", default=1e-4,
        help="fault intensity (events per simulated time unit per worker) "
        "for --faults (default: %(default)s)",
    )


def _print(text: str) -> None:
    console(text)
    console()


def _cmd_tables() -> int:
    _print(
        render_table(
            ["case", "type", "E[avail] %", "weighted %", "decrease %"],
            table_i_rows(),
            title="Table I",
        )
    )
    _print(
        render_table(
            ["RA", "app", "type", "# procs"],
            table_iv_rows(),
            title="Table IV",
        )
    )
    _print(
        render_table(
            ["RA", "app", "T^exp"], table_v_rows(), title="Table V"
        )
    )
    values = phi1_values()
    _print(
        render_table(
            ["RA", "phi1 % (measured)", "phi1 % (paper)"],
            [(p, values[p], data.PHI1[p]) for p in ("naive", "robust")],
            title="phi_1",
        )
    )
    return 0


def _chaos_sim(args):
    """The paper's simulator config with the chaos-mode fault plan attached."""
    from dataclasses import replace

    from .faults import FaultPlan
    from .paper.example import PAPER_SIM_CONFIG

    plan = FaultPlan.chaos(args.fault_rate)
    return replace(PAPER_SIM_CONFIG, faults=plan)


def _sim_kwargs(args) -> dict:
    """The study keyword arguments a simulation command's flags select."""
    kwargs = {"statistic": args.statistic}
    if args.replications is not None:
        kwargs["replications"] = args.replications
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.faults:
        kwargs["sim"] = _chaos_sim(args)
    return kwargs


def _record_result(name: str, payload: dict) -> None:
    """Stage a result table on the current run recorder, if any."""
    recorder = current_recorder()
    if recorder is not None:
        recorder.record_result(name, payload)


def _cmd_figure(args, backend: ExecutionBackend) -> int:
    series = figure_series(args.name, backend=backend, **_sim_kwargs(args))
    _record_result(
        "figure",
        {
            "kind": "figure",
            "figure": args.name,
            "scenario_name": series.scenario.name,
            "deadline": series.deadline,
            "robustness": series.result.robustness.as_dict(),
            "cells": [
                {
                    "case": case,
                    "app": app,
                    "technique": tech,
                    "time": t,
                    "meets_deadline": bool(ok),
                }
                for case, app, tech, t, ok in series.rows
            ],
        },
    )
    if args.chart:
        from .reporting import render_grouped_barchart

        study = series.result.stage_ii
        groups = {}
        for case in study.case_ids:
            for app in study.app_names:
                groups[f"{case} / {app}"] = {
                    tech: study.time(case, tech, app)
                    for tech in study.technique_names
                }
        _print(
            render_grouped_barchart(
                groups,
                marker=series.deadline,
                marker_label=f"Delta = {series.deadline:g}",
                title=f"{args.name} ({series.scenario.name})",
            )
        )
        return 0
    rows = [
        (case, app, tech, t, "yes" if ok else "NO")
        for case, app, tech, t, ok in series.rows
    ]
    _print(
        render_table(
            ["case", "app", "technique", "time", "meets deadline"],
            rows,
            title=f"{args.name} ({series.scenario.name}), Delta = {series.deadline:g}",
        )
    )
    return 0


def _cmd_scenario(args, backend: ExecutionBackend) -> int:
    result = run_scenario(
        _SCENARIOS[args.number],
        paper_cdsf(**_sim_kwargs(args)),
        paper_cases(),
        backend=backend,
    )
    study = result.stage_ii
    cells = []
    for case in study.case_ids:
        for app in study.app_names:
            for tech in study.technique_names:
                t = study.time(case, tech, app)
                cells.append(
                    {
                        "case": case,
                        "app": app,
                        "technique": tech,
                        "time": t,
                        "meets_deadline": t <= data.DEADLINE,
                    }
                )
    _record_result(
        "scenario",
        {
            "kind": "scenario",
            "scenario": args.number,
            "scenario_name": _SCENARIOS[args.number].name,
            "deadline": data.DEADLINE,
            "robustness": result.robustness.as_dict(),
            "cells": cells,
        },
    )
    rows = [
        (
            c["case"],
            c["app"],
            c["technique"],
            c["time"],
            "yes" if c["meets_deadline"] else "NO",
        )
        for c in cells
    ]
    _print(
        render_table(
            ["case", "app", "technique", "time", "meets deadline"],
            rows,
            title=f"Scenario {args.number}: {_SCENARIOS[args.number].name}",
        )
    )
    console(
        f"(rho1, rho2) = ({result.robustness.rho1:.1%}, "
        f"{result.robustness.rho2:.2f}%)"
    )
    return 0


def _cmd_robustness(args, backend: ExecutionBackend) -> int:
    result = run_scenario(
        Scenario.ROBUST_IM_ROBUST_RAS,
        paper_cdsf(**_sim_kwargs(args)),
        paper_cases(),
        backend=backend,
    )
    study = result.stage_ii
    payload: dict = {
        "kind": "robustness",
        "deadline": study.config.deadline,
        "robustness": result.robustness.as_dict(),
        "best_techniques": {
            app: {
                case: study.best_technique(case, app)
                for case in study.case_ids
            }
            for app in study.app_names
        },
        "cells": [
            {
                "case": case,
                "app": app,
                "technique": tech,
                "time": study.time(case, tech, app),
                "meets_deadline": study.meets_deadline(case, tech, app),
            }
            for case in study.case_ids
            for app in study.app_names
            for tech in study.technique_names
        ],
    }
    _print(
        render_table(
            ["app", *result.stage_ii.case_ids],
            [
                (
                    app,
                    *(
                        best or "-"
                        for best in (
                            result.stage_ii.best_technique(case, app)
                            for case in result.stage_ii.case_ids
                        )
                    ),
                )
                for app in result.stage_ii.app_names
            ],
            title="Table VI (best deadline-meeting DLS)",
        )
    )
    console(
        f"measured (rho1, rho2) = ({100 * result.robustness.rho1:.2f}%, "
        f"{result.robustness.rho2:.2f}%)  |  paper: "
        f"({data.RHO[0]}%, {data.RHO[1]}%)"
    )
    if args.faults:
        from .framework import FaultImpact

        baseline_kwargs = _sim_kwargs(args)
        baseline_kwargs.pop("sim")
        baseline = run_scenario(
            Scenario.ROBUST_IM_ROBUST_RAS,
            paper_cdsf(**baseline_kwargs),
            paper_cases(),
            backend=backend,
        )
        impact = FaultImpact(
            baseline=baseline.robustness, faulty=result.robustness
        )
        payload["fault_impact"] = impact.as_dict()
        console(
            f"fault-free baseline (rho1, rho2) = "
            f"({100 * impact.baseline.rho1:.2f}%, {impact.baseline.rho2:.2f}%)"
        )
        console(
            f"chaos impact: rho1 drop {100 * impact.rho1_drop:.2f} pp, "
            f"rho2 drop {impact.rho2_drop:.2f} pp "
            f"(fault rate {args.fault_rate:g})"
        )
    _record_result("robustness", payload)
    return 0


def _dispatch(args, backend: ExecutionBackend) -> int:
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "figure":
        return _cmd_figure(args, backend)
    if args.command == "scenario":
        return _cmd_scenario(args, backend)
    if args.command == "robustness":
        return _cmd_robustness(args, backend)
    if args.command == "techniques":
        for name, cls in sorted(ALL_TECHNIQUES.items()):
            tech = cls()
            kind = "adaptive" if tech.adaptive else "non-adaptive"
            console(f"{name:8s} {kind:14s} {cls.__doc__.strip().splitlines()[0]}")
        return 0
    if args.command == "heuristics":
        for name, cls in sorted(HEURISTICS.items()):
            console(f"{name:22s} {cls.__doc__.strip().splitlines()[0]}")
        return 0
    if args.command == "export":
        from .io import save_instance
        from .paper import data, paper_batch, paper_system

        path = save_instance(
            args.path,
            paper_system("case1"),
            paper_batch(),
            deadline=data.DEADLINE,
            metadata={"source": "Ciorba et al., IPDPS-W 2012, SS IV example"},
        )
        console(f"wrote {path}")
        return 0
    return 2  # pragma: no cover - argparse enforces choices


def _finish_observed(args) -> None:
    """Print the metrics summary / trace location for an observed run."""
    if args.metrics:
        _print(format_observability(metrics_snapshot()))


# ---------------------------------------------------------- run-store layer


def _run_base(args) -> str | None:
    """The run-store base directory: ``--run-dir`` or ``$REPRO_RUN_DIR``."""
    base = args.run_dir if args.run_dir else os.environ.get(ENV_RUN_DIR)
    return base or None


def _make_recorder(args, argv: Sequence[str] | None) -> RunRecorder | None:
    """A recorder for this invocation, or None when run capture is off."""
    base = _run_base(args)
    if base is None:
        return None
    from dataclasses import asdict

    from ._version import __version__

    recorder = RunRecorder(
        base, argv=list(argv) if argv is not None else sys.argv[1:]
    )
    fields: dict[str, object] = {
        "command": args.command,
        "repro_version": __version__,
    }
    if args.workers is not None:
        fields["workers"] = args.workers
    if getattr(args, "number", None) is not None:
        fields["scenario"] = args.number
    if args.command == "figure":
        fields["figure"] = args.name
    for key in ("seed", "replications", "statistic"):
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    if getattr(args, "faults", False):
        from .faults import FaultPlan

        fields["faults"] = True
        fields["fault_rate"] = args.fault_rate
        fields["fault_plan"] = asdict(FaultPlan.chaos(args.fault_rate))
    recorder.annotate(**fields)
    return recorder


def _write_or_print(text: str, output: str | None, label: str) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
        console(f"wrote {label} to {output}")
    else:
        console(text)


def _cmd_runs(args) -> int:
    base = _run_base(args)
    if base is None:
        console("no run store: pass --run-dir DIR or set $REPRO_RUN_DIR")
        return 2
    records = RunStore(base).list()
    if not records and args.format != "json":
        console(f"no recorded runs under {base}")
        return 0
    rows = [
        (
            r.run_id,
            r.manifest.get("command", "?"),
            r.manifest.get("started", "?"),
            r.manifest.get("wall_seconds", "-"),
            r.manifest.get("exit_code", "-"),
        )
        for r in records
    ]
    if args.format == "json":
        keys = ("run_id", "command", "started", "wall_seconds", "exit_code")
        payload = [dict(zip(keys, row)) for row in rows]
        console(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print(
            render_table(
                ["run", "command", "started", "wall s", "exit"],
                rows,
                title=f"Recorded runs under {base}",
            )
        )
    return 0


def _cmd_report(args) -> int:
    run = resolve_run(args.run, base_dir=_run_base(args))
    _write_or_print(render_run_report(run), args.output, "report")
    if args.chrome_trace:
        timelines = run.timelines()
        write_chrome_trace(args.chrome_trace, timelines)
        console(
            f"wrote Chrome trace ({len(timelines)} timeline(s)) to "
            f"{args.chrome_trace} — open it at https://ui.perfetto.dev"
        )
    return 0


def _cmd_compare(args) -> int:
    base = _run_base(args)
    a = resolve_run(args.run_a, base_dir=base)
    b = resolve_run(args.run_b, base_dir=base)
    _write_or_print(render_run_comparison(a, b), args.output, "comparison")
    return 0


_ANALYSIS_COMMANDS = {
    "runs": _cmd_runs,
    "report": _cmd_report,
    "compare": _cmd_compare,
}


def _run(args, workers: int, recorder: RunRecorder | None = None) -> int:
    """Dispatch one command, optionally observed/recorded."""
    observe = bool(args.trace or args.metrics or recorder is not None)
    with get_backend(workers) as backend:
        if not observe:
            return _dispatch(args, backend)
        session: Observation | None = None
        code = 1
        try:
            if obs_enabled():
                # An observation session is already active (REPRO_OBS env
                # gate): reuse it rather than splitting the trace across
                # two sessions.
                session = current()
                assert session is not None
                code = _dispatch(args, backend)
                _finish_observed(args)
                if args.trace:
                    session.export(args.trace)
                    console(f"wrote trace to {args.trace}")
            else:
                with observed(trace_path=args.trace) as session:
                    code = _dispatch(args, backend)
                    _finish_observed(args)
                if args.trace:
                    console(f"wrote trace to {args.trace}")
        finally:
            if recorder is not None:
                # Finalize even when the command raised, so a crashed
                # run still leaves a loadable artifact.
                path = recorder.finalize(session, exit_code=code)
                console(f"recorded run {recorder.run_id} at {path}")
        return code


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level)
    handler = _ANALYSIS_COMMANDS.get(args.command)
    if handler is not None:
        try:
            return handler(args)
        except ObservabilityError as exc:
            console(f"error: {exc}")
            return 2
    # Resolve the settings that can be malformed before the recorder
    # creates the run directory, so a bad value leaves no orphan behind;
    # a run-store path that cannot hold run directories is a usage error.
    try:
        workers = (
            default_workers()
            if args.workers is None
            else parse_workers(args.workers, source="--workers")
        )
        recorder = _make_recorder(args, argv)
    except (ExecutionError, ObservabilityError) as exc:
        console(f"error: {exc}")
        return 2
    if recorder is None:
        return _run(args, workers)
    with recording(recorder):
        return _run(args, workers, recorder)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
