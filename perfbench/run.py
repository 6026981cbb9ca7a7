"""Benchmark runner: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload central-ring --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload exact-check --trace 1     # per-layer metrics
    python3 perfbench/run.py --record                             # re-derive expected facts

Workloads and metrics are declared in ``BENCHMARK.json``; the recorded
correctness facts of the default seed and the host they were recorded on
are in ``perfbench/expected.json``.

End-to-end metrics (``--trace 0``), printed for every workload:

* ``setup_s`` — imports plus graph, protocol and input construction;
* ``run_s`` — median host seconds of one operation: the cold pass of the
  E6 sweep (``sync-sweep``), one measured run (``central-ring``,
  ``regime-switch``), one pair of exact gap certifications
  (``exact-check``);
* ``work_per_s`` — the operations' work over their seconds: jobs for
  ``sync-sweep``, simulated steps for ``central-ring`` and
  ``regime-switch`` (steps/s), explored states for ``exact-check``
  (states/s);
* ``peak_rss_mb`` — peak resident set size of the workload's own process.

The failed fraction is ``failed / attempted`` of the result line: one
attempt is one job, simulation run or verify call, and a wrong or raising
operation fails all of its calls.  The per-layer metrics of ``--trace 1``
are defined in ``perf_trace.py``.

With ``--trace 0`` the workload runs in fresh child processes: one *main*
child sets it up and repeats its operation for ``--seconds``, and further
set-up-only children time the set-up again.  ``setup_s`` is the median
set-up time over all of them; ``peak_rss_mb`` is the main child's own high
water mark, so both belong to this workload alone.  With ``--trace 1`` an
untraced and a traced main child run back to back; the traced one reports
the per-layer metrics and ``trace.overhead_frac`` compares the two runs'
median operation times.

The last line of standard output is the result as one JSON object.  Every
run also writes it, with the traced run's spans, under
``perfbench/results/`` — never to ``BENCHMARK.json`` or
``perfbench/expected.json``, which only a person edits.  ``--record``
writes its candidate facts to ``perfbench/results/expected.candidate.json``.
The exit code is 0 only when every operation's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

import perf_trace
from perf_workloads import WORKLOADS, check_operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Files a run must never write.
PROTECTED = (BENCHMARK, EXPECTED)

#: Set-ups timed per ``--trace 0`` run (the main child plus set-up-only
#: ones): at least ``SETUP_MIN``, then more until ``SETUP_BUDGET_S`` of
#: set-up has been timed, so cheap set-ups get a steadier median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 15, 4.0
#: Whole-run budget; the driver allows 180 s.
DEADLINE_S = 170.0


def results_path(name: str) -> Path:
    """Where a run writes ``name``: under ``perfbench/results/``, and never
    onto a recorded file."""
    path = (RESULTS / name).resolve()
    if path.parent != RESULTS.resolve() or path in {p.resolve() for p in PROTECTED}:
        raise ValueError(f"refusing to write {path}")
    return path


def write_result(name: str, data: Any) -> Path:
    path = results_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
        handle.write("\n")
    return path


def load_json(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# Child side
# ---------------------------------------------------------------------- #
def child(role: str, workload_name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Set up one workload in this process and, unless ``role`` is
    ``setup``, repeat its operation for ``seconds``."""
    started = time.perf_counter()
    tracer = None
    if traced:
        tracer = perf_trace.Tracer()
        perf_trace.install(tracer)
    workload = WORKLOADS[workload_name](seed, RESULTS / "tmp", tracer)
    setup_s = time.perf_counter() - started
    if role == "setup":
        workload.close()
        return {"setup_s": setup_s}
    operations = []
    reference = crash = None
    try:
        reference = workload.reference()
        window = time.perf_counter()
        while len(operations) < workload.min_operations or time.perf_counter() - window < seconds:
            if tracer is not None:
                tracer.op_id = len(operations)
            operations.append(workload.operation())
    except Exception:  # a failing call is a result to report, not a crash
        crash = traceback.format_exc()
        print(crash, file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.op_id = perf_trace.CHECK
        workload.close()
    expected = load_json(EXPECTED)
    recorded = None if role == "record" else expected["workloads"][workload_name]["facts"]
    outcome = check_operations(
        workload, operations, reference, recorded, seed == expected["default_seed"], crash
    )
    if not operations:
        raise SystemExit(f"{workload_name}: the first operation failed")
    report = {
        "setup_s": setup_s,
        "op_seconds": [op.seconds for op in operations],
        "work": sum(op.work for op in operations),
        "peak_rss_mb": perf_trace.peak_rss_mb(),
        "facts": operations[0].facts,
        "reference": reference,
        **outcome,
    }
    if role == "record":
        report["record_checks"] = record_checks(workload)
    if tracer is not None:
        report["layers"] = perf_trace.layer_metrics(tracer.spans, len(operations))
        path = results_path(f"{workload_name}-seed{seed}.spans.json.gz")
        path.parent.mkdir(parents=True, exist_ok=True)
        perf_trace.write_spans(tracer.spans, path)
    return report


def record_checks(workload) -> Dict[str, Any]:
    """Extra cross-checks made once, when facts are recorded."""
    if workload.name != "central-ring":
        return {}
    prefix = 200
    reference = workload.measure("reference", prefix)
    fast = workload.measure("auto", prefix)
    for facts in (reference, fast):
        facts.pop("seconds")
    return {"reference_prefix_steps": prefix, "reference_prefix_agrees": reference == fast}


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class ChildFailed(RuntimeError):
    pass


def spawn(role: str, workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", role,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        completed = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()),
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} child of {workload} ran past the deadline") from exc
    lines = completed.stdout.decode("utf-8", "replace").strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise ChildFailed(f"{role} child of {workload} exited with code {completed.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        plain = spawn("run", workload, seed, seconds, False, deadline)
        traced = spawn("run", workload, seed, seconds, True, deadline)
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (
            statistics.median(traced["op_seconds"]) / statistics.median(plain["op_seconds"]) - 1.0
        )
        main, metrics_spec = traced, spec["per_layer"]
        runs = [plain, traced]
    else:
        main = spawn("run", workload, seed, seconds, False, deadline)
        setups = [main["setup_s"]]
        while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S
        ):
            setups.append(spawn("setup", workload, seed, seconds, False, deadline)["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(main["op_seconds"]),
            "work_per_s": main["work"] / sum(main["op_seconds"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics_spec = spec["end_to_end"]
        main["setup_samples"] = setups
        runs = [main]
    metrics = {
        item["name"]: {"value": values[item["name"]], "unit": item["unit"]} for item in metrics_spec
    }
    errors = [error for run in runs for error in run["errors"]]
    return {
        "correct": not errors,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
        "errors": errors,
        "runs": runs,
    }


def host_facts() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def record(spec: Dict[str, Any], seed: int) -> int:
    """Re-derive every workload's facts on ``seed`` into a candidate file."""
    deadline = time.monotonic() + 3600
    candidate = {"default_seed": seed, "host": host_facts(), "workloads": {}}
    ok = True
    for item in spec["workloads"]:
        report = spawn("record", item["name"], seed, 0, False, deadline)
        checks = report["record_checks"]
        ok = ok and not report["errors"] and all(v for k, v in checks.items() if k.endswith("agrees"))
        candidate["workloads"][item["name"]] = {"facts": report["facts"], **checks}
        for error in report["errors"]:
            print(f"{item['name']}: {error}", file=sys.stderr)
    path = write_result("expected.candidate.json", candidate)
    print(f"wrote {path}; review it and copy it over {EXPECTED.name} by hand", file=sys.stderr)
    return 0 if ok else 1


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--child", choices=("run", "setup", "record"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_json(BENCHMARK)
    seed = args.seed if args.seed is not None else load_json(EXPECTED)["default_seed"]
    if args.record:
        return record(spec, seed)
    names = [item["name"] for item in spec["workloads"]]
    if args.workload not in names:
        print(f"--workload must be one of {', '.join(names)}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, seed, args.seconds, bool(args.trace), spec)
    except ChildFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    write_result(f"{args.workload}-seed{seed}-trace{args.trace}.json", result)
    for error in result["errors"]:
        print(f"incorrect: {error}", file=sys.stderr)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
