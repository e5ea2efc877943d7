"""One iteration of a benchmark workload, run in a fresh process.

Reads a JSON job from stdin and prints one JSON result line to stdout:

    {"setup_s": ..., "wall_s": ..., "peak_rss_mb": ..., "attempted": ...,
     "failed": ..., "errors": [...], "layers": {...}, "per_check": {...}}

``setup_s`` is the time to import ``heckeb`` and ``heckeb.cli``.  ``wall_s``
is the time the program spends on the workload after that; the benchmark's
own checks of its outputs run outside it.  ``peak_rss_mb`` is this process's
peak resident set.  A job of kind ``setup`` only imports and reports
``setup_s``.  With ``"trace": true`` the public heckeb functions are wrapped
(see spans.py) and the result adds the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import check_id


def _import_heckeb(src: str):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import heckeb
    import heckeb.cli  # noqa: F401  (the CLI module is part of set-up)

    setup_s = time.perf_counter() - t0
    if Path(src).resolve() not in Path(heckeb.__file__).resolve().parents:
        raise SystemExit(f"heckeb was imported from {heckeb.__file__}, not from {src}")
    return heckeb, setup_s


def _run_verify(heckeb, job, tracer):
    """Run the CLI once; every expected check must appear exactly once and pass."""
    expected = job["expected"]
    errors = []
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = heckeb.cli.main(job["argv"])
    except Exception as exc:  # a raising run fails every check it owed
        rc = None
        errors.append(f"raised {exc!r}")
    wall_s = time.perf_counter() - t0
    if rc is None:
        return wall_s, len(expected), errors
    try:
        reports = json.loads(buf.getvalue())
    except ValueError:
        return wall_s, len(expected), errors + ["output is not JSON"]

    seen: dict[str, int] = {}
    passed = set()
    for r in reports:
        cid = check_id(r["statement"], r["params"])
        seen[cid] = seen.get(cid, 0) + 1
        if r["status"] == "pass":
            passed.add(cid)
    failed = 0
    for cid in expected:
        if cid not in passed or seen.get(cid) != 1:
            failed += 1
            errors.append(f"{cid}: {'missing' if cid not in seen else 'failed or repeated'}")
    extra = sorted(set(seen) - set(expected))
    for cid in extra:
        failed += seen[cid]
        errors.append(f"{cid}: not expected")
    if rc != (0 if all(r["status"] == "pass" for r in reports) else 1):
        errors.append(f"exit code {rc} disagrees with the reports")
        failed = max(failed, 1)
    return wall_s, failed, errors


def _run_products(heckeb, job, tracer):
    """Parse and evaluate each expression; at p = q = 1 the result must be the
    group element given by the product of its letters."""
    words = heckeb.words
    identity = heckeb.signedperm.identity
    wall_s = 0.0
    failed = 0
    errors = []
    for i, item in enumerate(job["expressions"]):
        if tracer is not None:
            tracer.check = f"expr[{i}]"
        t0 = time.perf_counter()
        try:
            element = words.evaluate_word(words.parse_word(item["text"]), item["rank"])
        except Exception as exc:
            wall_s += time.perf_counter() - t0
            failed += 1
            errors.append(f"{item['text']!r} raised {exc!r}")
            continue
        wall_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.evaluated(element)
        group = identity(item["rank"])
        for g in item["letters"]:
            group = group.apply_right(g)
        if element.specialize(1, 1) != {group: 1}:
            failed += 1
            errors.append(f"{item['text']!r} at p = q = 1 is not T{group}")
    return wall_s, failed, errors


def main() -> int:
    job = json.load(sys.stdin)
    heckeb, setup_s = _import_heckeb(job["src"])
    result = {"setup_s": setup_s}
    if job["kind"] != "setup":
        tracer = None
        if job.get("trace"):
            from spans import Tracer

            tracer = Tracer()
            tracer.install(heckeb)
        run = _run_verify if job["kind"] == "verify" else _run_products
        wall_s, failed, errors = run(heckeb, job, tracer)
        result.update(
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=len(job["expected"] if job["kind"] == "verify" else job["expressions"]),
            failed=failed,
            errors=errors[:10],
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["per_check"] = tracer.per_check
            if job.get("spans_out"):
                tracer.write(job["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
