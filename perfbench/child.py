"""One study in a fresh process: time the import, run ``permsig.cli.main``, check it.

Usage (normally started by run.py)::

    python3 perfbench/child.py '{"config": ..., "study": ..., "out": ..., "mode": ...}'

``mode`` is ``plain`` (no wrappers), ``trace`` (every boundary wrapped) or
``trace_null`` (only ``permtest.null_distribution`` wrapped, for studies on
a process pool, whose children's spans would be lost).  ``workers``, when
given, overrides the config's worker count.  A probe that runs no permsig
code is timed just before and just after the study, in the same process, to
gauge the host's speed.  The result is one JSON object on the last line of
standard output.
"""

import time

import permsig.cli  # noqa: E402  (the import is what setup_s measures)

IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

RETRY_STRIDE = 2**32

_PROBE_X = np.random.default_rng(0).standard_normal((60, 8))


def probe() -> float:
    """Seconds of a fixed mix of interpreted integer arithmetic and small
    numpy products, the kinds of work a study does.  It runs no permsig
    code, so a change to the program cannot move it; only the host can."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    x = _PROBE_X
    for _ in range(5000):
        gram = x.T @ x
        x = _PROBE_X + 1e-3 * np.tanh(x @ gram * 1e-3)
    return time.perf_counter() - start


def report_digest(doc: dict) -> str:
    """SHA-256 of the report without ``config.data.csv``, whose path varies."""
    doc = json.loads(json.dumps(doc))
    doc.get("config", {}).get("data", {}).pop("csv", None)
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


def check_report(doc: dict, hist_csv: str) -> list[str]:
    """Problems with a report's values; an empty list means it passed."""
    problems = []
    m = doc["m"]
    if doc["p_value"] is not None:
        if not 1.0 / (m + 1) <= doc["p_value"] <= 1.0:
            problems.append(f"p_value {doc['p_value']} outside [1/(M+1), 1], M={m}")
    elif doc["fwe_rate"] is None or not 0.0 <= doc["fwe_rate"] <= 1.0:
        problems.append(f"fwe_rate {doc['fwe_rate']} outside [0, 1]")
    counts = doc["histogram"]["counts"]
    if sum(counts) != m:
        problems.append(f"histogram counts sum to {sum(counts)}, expected {m}")
    with open(hist_csv, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    if [int(r.rsplit(",", 1)[1]) for r in rows] != counts:
        problems.append("histogram CSV disagrees with the report")
    return problems


def fits_in(doc: dict, observed_iterations: int) -> int:
    """Pipeline fits a study made, as read from its report.

    Studies with an observed statistic (power, and alt on labeled data)
    add ``observed_iterations`` fits; k-fold multiplies by k; every retried
    replicate adds the failed attempts (index // 2**32 of them).
    """
    cfg = doc["config"]
    replicates = len(doc["seeds"]["replicate_indices"])
    observed = observed_iterations if doc["p_value"] is not None else 0
    folds = cfg["k"] if cfg["scheme"] == "kfold" else 1
    retries = sum(i // RETRY_STRIDE for i in doc["seeds"]["replicate_indices"])
    return (observed + replicates) * folds + retries


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["mode"] != "plain":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, None if job["mode"] == "trace" else ("permtest.null_distribution",))
    argv = [job["study"], "--config", job["config"], "--out", job["out"], "--force"]
    if "workers" in job:
        argv += ["--workers", str(job["workers"])]

    error = None
    before = probe()
    start = time.perf_counter()
    try:
        code = permsig.cli.main(argv)
    except Exception as exc:  # a traceback is a failed run, not a crash of the benchmark
        code, error = None, repr(exc)
    study_s = time.perf_counter() - start
    after = probe()
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    result = {
        "imported": IMPORTED,
        "study_s": study_s,
        "probe_s": [before, after],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    problems = [] if code == 0 else [f"cli.main returned {code!r} {error or ''}".strip()]
    if code == 0:
        with open(job["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        stem, _ = os.path.splitext(job["out"])
        problems += check_report(doc, f"{stem}_hist.csv")
        from permsig.permtest import StudySettings

        indices = doc["seeds"]["replicate_indices"]
        result["fits"] = fits_in(doc, StudySettings().observed_iterations)
        result["replicates"] = len(indices)
        result["attempts"] = sum(1 + i // RETRY_STRIDE for i in indices)
        result["digest"] = report_digest(doc)
    result["problems"] = problems
    if tracer is not None:
        result["trace"] = tracer.to_json()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
