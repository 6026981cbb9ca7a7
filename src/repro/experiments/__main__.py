"""Command-line entry point: regenerate the full paper-vs-measured report.

Usage::

    python -m repro.experiments                 # run every experiment, print the report
    python -m repro.experiments E3 E5           # run a subset
    python -m repro.experiments --write PATH    # also write the Markdown report to PATH
                                                # (use EXPERIMENTS.md at the repo root)

Caching and resume (job-based drivers E3/E4/E6/E8/E9)::

    python -m repro.experiments --cache .repro-cache   # content-addressed result cache:
                                                       # repeats re-simulate nothing and an
                                                       # interrupted run resumes from its
                                                       # completed jobs — just re-run it
    python -m repro.experiments --no-cache             # escape hatch: run everything fresh
    python -m repro.experiments --refresh              # recompute and rewrite cache entries
    python -m repro.experiments --progress             # stream per-job progress to stderr

Cache inspection::

    python -m repro.experiments jobs list              # cached job results
    python -m repro.experiments jobs status            # per-sweep journal progress
    python -m repro.experiments jobs clear-cache       # drop the cache (and journals)

Fault-campaign scenarios (the E9 registry)::

    python -m repro.experiments scenarios list             # named campaign workloads
    python -m repro.experiments scenarios list --tier smoke
    python -m repro.experiments scenarios run NAME         # run one campaign
    python -m repro.experiments scenarios run NAME --engine reference --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..core.simulator import ENGINES
from ..jobs import Journal, ProgressEvent, ResultStore
from ..jobs.store import DEFAULT_CACHE_DIR
from .reporting import EXPERIMENT_DRIVERS, render_experiments_markdown, run_all_experiments


def _progress_printer(event: ProgressEvent) -> None:
    if event.kind not in ("hit", "done"):
        return
    tag = "cache hit" if event.cached else "computed"
    label = event.spec.describe() if event.spec is not None else ""
    print(
        f"[{event.completed}/{event.total}] {tag}  {label}",
        file=sys.stderr,
    )


def jobs_main(argv: Sequence[str]) -> int:
    """The ``jobs`` subcommand: inspect and manage the result cache."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments jobs",
        description="Inspect and manage the content-addressed result cache.",
    )
    parser.add_argument(
        "action",
        choices=("list", "status", "clear-cache"),
        help="list cached job results, show per-sweep journal progress, "
        "or drop the whole cache",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    args = parser.parse_args(list(argv))
    store = ResultStore(args.cache)

    if args.action == "list":
        count = 0
        for spec_key in store.keys():
            entry = store.entry(spec_key)
            spec = entry.get("spec", {})
            print(
                f"{spec_key[:16]}  runner={spec.get('runner', '?')}  "
                f"protocol={spec.get('protocol', '?')}  graph={spec.get('graph')}  "
                f"daemon={spec.get('daemon')}  version={spec.get('code_version', '?')}"
            )
            count += 1
        print(f"{count} cached result(s) in {store.root}")
        return 0

    if args.action == "status":
        summaries = Journal(store.root).status()
        if not summaries:
            print(f"no sweep journals in {store.root}")
            return 0
        for summary in summaries:
            state = "complete" if summary["complete"] else "partial"
            label = f" label={summary['label']}" if summary["label"] else ""
            print(
                f"sweep {summary['sweep_key'][:16]}  {summary['done']}/"
                f"{summary['total']} jobs done  [{state}]{label}"
            )
        return 0

    # clear-cache
    count = store.clear()
    print(f"cleared {count} cached result(s) from {store.root}")
    return 0


def scenarios_main(argv: Sequence[str]) -> int:
    """The ``scenarios`` subcommand: list and run named fault campaigns."""
    from ..scenarios import get_scenario, list_scenarios

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments scenarios",
        description="List and run the named fault-campaign scenarios (E9).",
    )
    subcommands = parser.add_subparsers(dest="action", required=True)
    list_parser = subcommands.add_parser(
        "list", help="list registered scenarios (name, tier, shape)"
    )
    list_parser.add_argument(
        "--tier",
        choices=("smoke", "full"),
        default=None,
        help="only scenarios of this tier",
    )
    run_parser = subcommands.add_parser("run", help="run one scenario campaign")
    run_parser.add_argument("name", help="registered scenario name")
    run_parser.add_argument(
        "--engine",
        default="auto",
        choices=ENGINES,
        help="simulation engine backend (default: auto)",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full campaign result as JSON instead of a summary",
    )
    args = parser.parse_args(list(argv))

    if args.action == "list":
        scenarios = list_scenarios(args.tier)
        for scenario in scenarios:
            shape = []
            if scenario.schedule is not None:
                shape.append(f"{scenario.schedule.kind} {scenario.fault_model}")
            if scenario.churn:
                shape.append(f"{len(scenario.churn)} churn event(s)")
            print(
                f"{scenario.name:38s} [{scenario.tier:5s}] "
                f"{scenario.protocol}/{scenario.topology}({scenario.n}) "
                f"daemon={scenario.daemon} horizon={scenario.horizon}  "
                f"{'; '.join(shape) or 'no events'}"
            )
        print(f"{len(scenarios)} scenario(s)")
        return 0

    # run
    scenario = get_scenario(args.name)
    result = scenario.run(engine=args.engine)
    data = result.to_dict()
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"scenario {scenario.name}: {scenario.description}")
        print(
            f"  graph {scenario.topology}({scenario.n}) -> n={data['final_n']}, "
            f"daemon={scenario.daemon}, horizon={data['horizon']}, "
            f"engine={args.engine}"
        )
        print(
            f"  availability={data['availability']:.4f}  "
            f"longest_unsafe_window={data['longest_unsafe_window']}  "
            f"max_recovery={data['max_recovery']}  "
            f"final_safe={data['final_safe']}"
        )
        for event in data["events"]:
            recovery = (
                f"recovered in {event['recovery_time']}"
                if event["recovery_time"] is not None
                else f"NOT recovered within window ({event['window']})"
            )
            print(
                f"  step {event['step']:>4}  {event['kind']:5s} "
                f"{event['detail']:40s} {recovery}"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "jobs":
        return jobs_main(argv[1:])
    if argv and argv[0] == "scenarios":
        return scenarios_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables, figures and theorem checks.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=list(EXPERIMENT_DRIVERS) + [[]],
        help="experiment ids to run (default: all of E1..E10)",
    )
    parser.add_argument(
        "--write",
        metavar="PATH",
        default=None,
        help="write the Markdown report (EXPERIMENTS.md format) to PATH",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the job-based sweeps (E3/E4/E6/E8/E9/E10) across this many "
        "processes (results are identical; default: sequential)",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="cap the sweep sizes of the theorem2/theorem3/dijkstra "
        "drivers (e.g. --max-n 100 skips the n >= 1000 superstep rows; "
        "default: run the full sweeps up to n = 10000)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="override the per-graph step budget of the theorem2/theorem3 "
        "drivers (default: per-graph, one clock period for small graphs, "
        "a few Theorem 2 bounds in the large-n safety-only regime)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help="content-addressed result cache for the job-based drivers: "
        "repeated runs re-simulate nothing, interrupted runs resume from "
        f"completed jobs (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely (run everything fresh, "
        "persist nothing)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="ignore existing cache entries: recompute every job and "
        "rewrite its entry",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream per-job progress (cache hit / computed) to stderr",
    )
    args = parser.parse_args(argv)

    selected: Optional[List[str]] = list(args.experiments) or None
    reports = run_all_experiments(
        only=selected,
        workers=args.workers,
        max_n=args.max_n,
        horizon=args.horizon,
        cache=None if args.no_cache else args.cache,
        refresh=args.refresh,
        progress=_progress_printer if args.progress else None,
    )
    for report in reports:
        print(report.to_text())
        print()
    if args.write:
        markdown = render_experiments_markdown(reports)
        with open(args.write, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote {args.write}")
    return 0 if all(report.passed for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
