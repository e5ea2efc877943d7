"""The heckeb benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload main-r7 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32

Every iteration of a workload runs in a fresh worker process (worker.py) that
imports heckeb from ``src/`` of this checkout.  A run of ``--seconds S``
repeats the workload, one fresh process per iteration, while another
iteration still fits in S; at least one always runs.  Import-only workers at
the start and after each iteration sample the set-up time.  The workloads are closed
loop: one process, one thread, each operation starting when the previous one
returns.

With ``--trace 0`` the result reports the end-to-end metrics, each the median
over the run's samples: ``setup_s`` (importing ``heckeb`` and ``heckeb.cli``),
``wall_s`` (the workload after set-up; the time to a checked result) and
``peak_rss_mb`` (peak resident set of the worker process).  With
``--trace 1`` one untraced and one traced iteration run; the result reports
the per-layer metrics of spans.py, the traced wall time and the tracing
overhead (traced minus untraced wall time), and compares the mathematical
invariants pinned in invariants.json.

Every output is checked.  ``attempted`` counts the checks a workload owes
(or expressions evaluated) over all iterations; ``failed`` counts those that
failed, raised, or were missing or unexpected, so ``failed / attempted`` is
the failed fraction.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when everything is correct, 1 when a check or an invariant failed and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS
from workloads import WHY, WORKLOADS, generate_expressions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_FIRST = 5
SETUP_BETWEEN = 2
RUN_LIMIT_S = 170.0  # every run must end well inside 180 s


class BenchError(Exception):
    """The benchmark could not run (as opposed to a check failing)."""


def _worker(job: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _job(spec: dict, seed: int, iteration: int) -> dict:
    """The worker input for one iteration; products iterations each get their
    own batch of expressions, so a run averages over several batches."""
    job = {"src": str(SRC), **spec}
    if spec["kind"] == "products":
        job["expressions"] = generate_expressions(seed, spec["count"], batch=iteration)
    return job


def _invariant_mismatches(name: str, traced: dict) -> list[str]:
    """Compare a traced iteration with the invariants pinned for ``name``."""
    pinned = json.loads((HERE / "invariants.json").read_text()).get(name)
    if pinned is None:
        return []
    out = []
    for key, want in pinned.get("per_check", {}).items():
        got = {cid: counts[key] for cid, counts in traced["per_check"].items() if key in counts}
        if got != want:
            diff = sorted(cid for cid in set(got) | set(want) if got.get(cid) != want.get(cid))
            out.append(f"{name}: {key} differs at {', '.join(diff[:5])}")
    for key, want in pinned.get("totals", {}).items():
        if traced["layers"][key] != want:
            out.append(f"{name}: {key} is {traced['layers'][key]}, pinned {want}")
    return out


def _setup_samples(count: int, deadline: float) -> list[float]:
    job = {"src": str(SRC), "kind": "setup"}
    return [_worker(job, deadline)["setup_s"] for _ in range(count)]


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds`` and return the result object."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    _setup_samples(1, deadline)  # fills __pycache__; not counted

    if trace:
        OUT.mkdir(exist_ok=True)
        job = _job(spec, seed, 0)
        plain = _worker(job, deadline)
        traced_job = dict(job, trace=True, spans_out=str(OUT / f"spans-{name}-seed{seed}.json"))
        traced = _worker(traced_job, deadline)
        iterations = [plain, traced]
    else:
        # Import-only samples at the start and after every iteration, so that
        # set-up time is sampled across the whole run.
        setup = _setup_samples(SETUP_FIRST, deadline)
        iterations = []
        longest = 0.0
        while not iterations or time.monotonic() - start + longest <= seconds:
            t0 = time.monotonic()
            iterations.append(_worker(_job(spec, seed, len(iterations)), deadline))
            setup += _setup_samples(SETUP_BETWEEN, deadline)
            longest = max(longest, time.monotonic() - t0)

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    errors = [e for it in iterations for e in it["errors"]]
    if trace:
        errors += _invariant_mismatches(name, traced)
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = LAYER_UNITS
    else:
        setup += [it["setup_s"] for it in iterations]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "errors": errors,
        "iterations": len(iterations),
    }


def summary_line(name: str, result: dict) -> str:
    frac = result["failed"] / result["attempted"]
    shown = "  ".join(
        f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
    )
    return (
        f"{name}: {shown}  failed_frac={frac:.6g} ratio ({result['failed']}/{result['attempted']})"
        f"  iterations={result['iterations']}"
    )


def public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heckeb" / "__init__.py").is_file():
        print(f"error: no heckeb sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
            print(summary_line(name, results[name]), flush=True)
            for err in results[name]["errors"]:
                print(f"  {err}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        final = public(results[names[0]])
    else:
        for name in names:
            print(f"  {name}: {WHY[name]}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
