"""permsig benchmark: end-to-end study timings and per-layer spans.

Run one workload at one seed, from the root of a permsig checkout::

    python3 perfbench/run.py --workload power_rub_pls --seed 11 --seconds 40 --trace 0

The run generates several input sets from the seed, then starts fresh
Python processes (perfbench/child.py) one after another, each of which
imports ``permsig.cli`` and calls ``permsig.cli.main`` once on one input
set, taking the sets in turn, until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced studies and reports per-layer metrics.
Each study process also times a fixed probe that runs no permsig code, just
before and just after its study, and end-to-end times are scaled by the
host speed it shows (see README.md).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread per process keeps workers=2 within the 2 cores the
# workloads were sized on, and steadies the import time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, INPUTS, WORKLOADS, write_inputs  # noqa: E402

# Every process a run starts ends within this many seconds of the run's
# start, which keeps the whole run inside a 180 s limit.
RUN_BUDGET_S = 165.0

END_TO_END = (
    ("study_s", "s"),
    ("fits_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("linclass.svm_fit.calls", "count"),
    ("linclass.svm_fit.s", "s"),
    ("linclass.svm_fit.self_s", "s"),
    ("linclass.svm_fit.p50_ms", "ms"),
    ("linclass.svm_fit.p99_ms", "ms"),
    ("linclass.svm_fit.share", "ratio"),
    ("linclass.svm_fit.gram_bytes_max", "B"),
    ("linclass.calibrate.calls", "count"),
    ("linclass.calibrate.s", "s"),
    ("dimred.pls1_fit.s", "s"),
    ("dimred.reduce.s", "s"),
    ("pipeline.fit.calls", "count"),
    ("pipeline.fit.self_s", "s"),
    ("autoenc.ae_fit.calls", "count"),
    ("autoenc.ae_fit.s", "s"),
    ("autoenc.ae_fit.p50_ms", "ms"),
    ("autoenc.ae_encode.calls", "count"),
    ("autoenc.ae_encode.s", "s"),
    ("pipeline.alt_fit.calls", "count"),
    ("pipeline.alt_fit.self_s", "s"),
    ("validate.resub_error.calls", "count"),
    ("validate.resub_error.s", "s"),
    ("validate.kfold_errors.calls", "count"),
    ("validate.kfold_errors.s", "s"),
    ("permtest.replicate_overhead_s", "s"),
    ("permtest.self_s", "s"),
    ("dataset.permute_labels.s", "s"),
    ("dataset.split_null_groups.s", "s"),
    ("dataset.shuffle_rows.s", "s"),
    ("dataset.stratified_folds.s", "s"),
    ("dataset.load_csv.s", "s"),
    ("rng.streams", "count"),
    ("permtest.null_distribution.s", "s"),
    ("permtest.pool_efficiency", "ratio"),
    ("permtest.retries", "count"),
    ("permtest.retry_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("unattributed_s", "s"),
    ("traced_study_s", "s"),
    ("tracing_overhead", "ratio"),
)

# Seconds child.probe takes at the reference host speed: its median on the
# 2-core Xeon (Python 3.11, numpy 2.4) the bounds were set on.
PROBE_REF_S = 0.15

STUDY_SPANS = ("permtest.power_study", "permtest.type1_study", "permtest.alt_scheme_study")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, share: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def machine() -> dict:
    """The machine and software versions a result was measured with."""
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "permsig", "*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


class Runner:
    """Starts child studies on one workload's inputs and checks their outputs."""

    def __init__(self, workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.configs = [write_inputs(workload, seed, workdir, part)[1] for part in range(INPUTS)]
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("PERMSIG_SEED", None)
        self.results: list[dict] = []
        self.problems: list[str] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def warm_up(self) -> None:
        """Compile the package's bytecode once; a CLI user does not pay that per run."""
        subprocess.run(
            [sys.executable, "-c", "import permsig.cli"],
            env=self.env, cwd=ROOT, check=True, timeout=self.deadline - time.monotonic(),
        )

    def study(self, mode: str, workers: int | None, part: int) -> dict:
        job = {
            "config": self.configs[part],
            "study": self.w.study,
            "out": os.path.join(self.workdir, f"report{len(self.results)}.json"),
            "mode": mode,
        }
        if workers is not None:
            job["workers"] = workers
        spawned = time.monotonic()
        # A session of its own, so a timeout also ends the study's pool workers.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            env=self.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            out, err = proc.communicate()
            err = f"timed out; {err}"
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"problems": [f"child exited {proc.returncode}: {err.strip()[-500:]}"]}
        else:
            result["setup_s"] = result.pop("imported") - spawned
            # The host's speed while the study ran, relative to the reference.
            result["host"] = PROBE_REF_S / statistics.fmean(result.pop("probe_s"))
        result["mode"] = mode
        result["part"] = part
        result["ok"] = not result["problems"]
        self.results.append(result)
        return result

    def check_digests(self) -> None:
        """Every study of one input set reports the same digest; at the
        default seed, the digest recorded for that set."""
        for part in range(INPUTS):
            studies = [r for r in self.results if r["part"] == part]
            digests = sorted({r["digest"] for r in studies if "digest" in r})
            reference = self.w.reference_sha256[part] if self.seed == DEFAULT_SEED else None
            if len(digests) > 1 or (reference and digests not in ([], [reference])):
                self.problems.append(
                    f"report digests {digests} of input set {part} at seed {self.seed}, expected one"
                    + (f" equal to {reference}" if reference else "")
                )
                for r in studies:
                    r["ok"] = False


def run_loop(runner: Runner, cycle, seconds: float, rounds: int) -> None:
    """Run the studies of ``cycle`` (a list of (mode, workers, part)) in turn
    while the next study still fits in ``seconds``; run the whole cycle at
    least ``rounds`` times unless that would overrun ``RUN_BUDGET_S``."""
    start = time.monotonic()
    for done, step in enumerate(itertools.cycle(cycle), 1):
        runner.study(*step)
        elapsed = time.monotonic() - start
        per_study = elapsed / done
        if elapsed + per_study > RUN_BUDGET_S or (
            done >= rounds * len(cycle) and elapsed + per_study > seconds
        ):
            return


def mean_of_medians(samples) -> float:
    """Mean over input sets of each set's median; ``samples`` holds
    (part, value) pairs."""
    by_part: dict[int, list] = {}
    for part, value in samples:
        by_part.setdefault(part, []).append(value)
    return statistics.fmean(median(v) for v in by_part.values()) if by_part else 0.0


def end_to_end(runner: Runner) -> dict:
    """Times are scaled to the reference host speed study by study.  Study
    metrics are means over input sets of each set's median, so every set
    weighs the same however many studies it got; ``setup_s`` does not
    depend on the input and is the median of all studies."""
    ok = [r for r in runner.results if r["ok"]]
    samples = {
        "study_s": [(r["part"], r["study_s"] * r["host"]) for r in ok],
        "fits_per_s": [(r["part"], r["fits"] / (r["study_s"] * r["host"])) for r in ok],
        "setup_s": [(0, r["setup_s"] * r["host"]) for r in runner.results if "setup_s" in r],
        "peak_rss_mb": [(r["part"], r["peak_rss_mb"]) for r in ok],
    }
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = mean_of_medians(samples[name])
        q1, q3 = quartiles([v for _, v in samples[name]])
        print(
            f"{name:12s} value {metrics[name]:.4f} {unit}  "
            f"studies q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples[name])}"
        )
    print(
        f"unscaled: study_s {mean_of_medians([(r['part'], r['study_s']) for r in ok]):.4f} s  "
        f"setup_s {median([r['setup_s'] for r in runner.results if 'setup_s' in r]):.4f} s  "
        f"host speed {median([r['host'] for r in runner.results if 'host' in r]):.4f} of the reference"
    )
    return metrics


def _record(trace: dict, name: str) -> dict:
    return trace["records"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})


def trace_checks(w, result: dict) -> list[str]:
    """Boundary and self-time accounting checks on one traced study."""
    trace = result["trace"]
    problems = [
        f"boundary {name} recorded no calls"
        for name in w.expect_calls
        if _record(trace, name)["calls"] == 0 and trace["counts"].get(name, 0) == 0
    ]
    unattributed = result["study_s"] - sum(r["self_s"] for r in trace["records"].values())
    if not -1e-3 <= unattributed < 0.1 * result["study_s"]:
        problems.append(
            f"self times leave {unattributed:.4f} s of {result['study_s']:.4f} s unattributed"
        )
    return problems


def per_layer(runner: Runner) -> dict:
    w = runner.w
    traced = [r for r in runner.results if r["mode"] == "trace" and r["ok"]]
    plain = [r["study_s"] for r in runner.results if r["mode"] == "plain" and r["ok"]]
    for r in traced:
        for problem in trace_checks(w, r):
            r["ok"] = False
            runner.problems.append(problem)

    def med(fn) -> float:
        return median([fn(r["trace"], r) for r in traced])

    def rec(name, key):
        if key == "calls":  # counts repeat exactly at one seed
            return statistics.median_low([_record(r["trace"], name)["calls"] for r in traced] or [0])
        return med(lambda t, r: _record(t, name)[key])

    def pooled(name):
        return [d for r in traced for d in _record(r["trace"], name)["durations"]]

    def replicate_layer(t):
        return sum(
            s for p, c, s in t["children"]
            if p == "permtest.null_distribution" and c.startswith("validate.")
        )

    if w.workers > 1:
        null_s = median([
            _record(r["trace"], "permtest.null_distribution")["s"]
            for r in runner.results if r["mode"] == "trace_null" and r["ok"]
        ])
    else:
        null_s = rec("permtest.null_distribution", "s")
    svm_rows = max((r["trace"]["largest_rows"].get("linclass.svm_fit", 0) for r in traced), default=0)
    traced_s = median([r["study_s"] for r in traced])
    # One traced study of each input set; retries repeat exactly per set.
    firsts = list({r["part"]: r for r in reversed(traced)}.values())
    replicates = sum(r["replicates"] for r in firsts)
    attempts = sum(r["attempts"] for r in firsts)
    metrics = {
        "linclass.svm_fit.calls": rec("linclass.svm_fit", "calls"),
        "linclass.svm_fit.s": rec("linclass.svm_fit", "s"),
        "linclass.svm_fit.self_s": rec("linclass.svm_fit", "self_s"),
        "linclass.svm_fit.p50_ms": 1e3 * percentile(pooled("linclass.svm_fit"), 0.50),
        "linclass.svm_fit.p99_ms": 1e3 * percentile(pooled("linclass.svm_fit"), 0.99),
        "linclass.svm_fit.share": med(lambda t, r: _record(t, "linclass.svm_fit")["s"] / r["study_s"]),
        "linclass.svm_fit.gram_bytes_max": 8 * svm_rows * svm_rows,
        "linclass.calibrate.calls": rec("linclass.calibrate", "calls"),
        "linclass.calibrate.s": rec("linclass.calibrate", "s"),
        "dimred.pls1_fit.s": rec("dimred.pls1_fit", "s"),
        "dimred.reduce.s": rec("dimred.reduce", "s"),
        "pipeline.fit.calls": rec("pipeline.fit", "calls"),
        "pipeline.fit.self_s": rec("pipeline.fit", "self_s"),
        "autoenc.ae_fit.calls": rec("autoenc.ae_fit", "calls"),
        "autoenc.ae_fit.s": rec("autoenc.ae_fit", "s"),
        "autoenc.ae_fit.p50_ms": 1e3 * percentile(pooled("autoenc.ae_fit"), 0.50),
        "autoenc.ae_encode.calls": rec("autoenc.ae_encode", "calls"),
        "autoenc.ae_encode.s": rec("autoenc.ae_encode", "s"),
        "pipeline.alt_fit.calls": rec("pipeline.alt_fit", "calls"),
        "pipeline.alt_fit.self_s": rec("pipeline.alt_fit", "self_s"),
        "validate.resub_error.calls": rec("validate.resub_error", "calls"),
        "validate.resub_error.s": rec("validate.resub_error", "s"),
        "validate.kfold_errors.calls": rec("validate.kfold_errors", "calls"),
        "validate.kfold_errors.s": rec("validate.kfold_errors", "s"),
        "permtest.replicate_overhead_s": med(
            lambda t, r: _record(t, "permtest.null_distribution")["s"] - replicate_layer(t)
        ),
        "permtest.self_s": med(lambda t, r: sum(_record(t, n)["self_s"] for n in STUDY_SPANS)),
        "dataset.permute_labels.s": rec("dataset.permute_labels", "s"),
        "dataset.split_null_groups.s": rec("dataset.split_null_groups", "s"),
        "dataset.shuffle_rows.s": rec("dataset.shuffle_rows", "s"),
        "dataset.stratified_folds.s": rec("dataset.stratified_folds", "s"),
        "dataset.load_csv.s": rec("dataset.load_csv", "s"),
        "rng.streams": statistics.median_low([r["trace"]["counts"].get("rng.streams", 0) for r in traced] or [0]),
        "permtest.null_distribution.s": null_s,
        "permtest.pool_efficiency": (
            med(lambda t, r: replicate_layer(t)) / (w.workers * null_s) if null_s else 0.0
        ),
        "permtest.retries": attempts - replicates,
        "permtest.retry_ratio": replicates / attempts if attempts else 0.0,
        "cli.self_s": rec("cli.main", "self_s"),
        "unattributed_s": med(
            lambda t, r: r["study_s"] - sum(x["self_s"] for x in t["records"].values())
        ),
        "traced_study_s": traced_s,
        "tracing_overhead": traced_s / median(plain) if plain else 0.0,
    }
    _print_spans(traced)
    return metrics


def _print_spans(traced: list) -> None:
    """Per-function and per-layer table of the first traced study."""
    if not traced:
        return
    records = traced[0]["trace"]["records"]
    study_s = traced[0]["study_s"]
    print(f"{'span':32s} {'calls':>7s} {'s':>9s} {'self_s':>9s} {'share':>7s}")
    layers: dict[str, float] = {}
    for name, r in sorted(records.items(), key=lambda kv: -kv[1]["self_s"]):
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + r["self_s"]
        print(f"{name:32s} {r['calls']:7d} {r['s']:9.4f} {r['self_s']:9.4f} {r['s'] / study_s:7.3f}")
    parts = " + ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    print(f"layer self times: {parts} + unattributed {study_s - sum(layers.values()):.4f} = {study_s:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permsig", "cli.py")):
        print(f"no permsig source tree under {SRC}; run from a permsig checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    print("machine", json.dumps(machine(), sort_keys=True))

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        runner = Runner(w, args.seed, workdir)
        runner.warm_up()
        if args.trace:
            modes = [("plain", 1), ("trace", 1)]
            if w.workers > 1:
                modes.append(("trace_null", w.workers))
            rounds = 1  # plain and traced studies of a set already compare digests
        else:
            modes = [("plain", None)]
            rounds = 2
        cycle = [(mode, workers, part) for part in range(INPUTS) for mode, workers in modes]
        run_loop(runner, cycle, args.seconds, rounds)
        runner.check_digests()
        metrics = per_layer(runner) if args.trace else end_to_end(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only when no other run is using it
        except OSError:
            pass

    for r in runner.results:
        runner.problems.extend(r["problems"])
    attempted = len(runner.results)
    failed = sum(not r["ok"] for r in runner.results)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(
        f"workload {w.name} seed {args.seed} trace {args.trace}: "
        f"failed_share {failed}/{attempted} = {failed / attempted:.4f}"
    )
    print("load average before", load_before, "after", os.getloadavg())
    for problem in dict.fromkeys(runner.problems):
        print("problem:", problem)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
