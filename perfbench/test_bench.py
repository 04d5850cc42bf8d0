"""Checks of the benchmark itself.  Run from the repository root with::

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from child import check_report, fits_in  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

# Smallest sizes that still reach every boundary of each workload.
TINY = {
    "power_rub_pls": dict(m=3),
    "type1_kfold_raw": dict(n_per_class=40, m=2),
    "alt_ae_frozen": dict(m=3, pipeline={**WORKLOADS["alt_ae_frozen"].pipeline, "ae": {"widths": [8, 3], "epochs": 2}}),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_study_reaches_every_boundary(name, tmp_path):
    """Fails when a boundary the workload should exercise records no calls,
    for instance after a rename in the program moved the name a wrapper patches."""
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    _, config = write_inputs(w, 5, str(tmp_path))
    job = {"config": config, "study": w.study, "out": str(tmp_path / "r.json"), "mode": "trace", "workers": 1}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert run.trace_checks(w, result) == []


def test_nested_spans_do_not_double_count():
    tracer = Tracer()

    def inner():
        sum(range(20000))

    def middle():
        inner()
        inner()

    def outer():
        middle()
        sum(range(20000))

    inner = tracer.span("inner", inner)
    middle = tracer.span("middle", middle)
    outer = tracer.span("outer", outer)
    outer()
    rec = tracer.records
    assert (rec["outer"].calls, rec["middle"].calls, rec["inner"].calls) == (1, 1, 2)
    assert sum(r.self_time for r in rec.values()) == pytest.approx(rec["outer"].total, abs=1e-12)
    assert rec["middle"].self_time == pytest.approx(rec["middle"].total - rec["inner"].total, abs=1e-12)
    assert tracer.children[("outer", "middle")] == rec["middle"].total
    assert ("outer", "inner") not in tracer.children


def test_report_checks_catch_bad_values(tmp_path):
    hist = tmp_path / "h.csv"
    hist.write_text("bin_left,bin_right,count\n0.0,0.5,3\n0.5,1.0,1\n")
    doc = {"m": 4, "p_value": 0.2, "fwe_rate": None, "histogram": {"counts": [3, 1]}}
    assert check_report(doc, str(hist)) == []
    assert check_report({**doc, "p_value": 0.1}, str(hist))  # below 1/(M+1)
    assert check_report({**doc, "p_value": None, "fwe_rate": 1.5}, str(hist))
    assert check_report({**doc, "histogram": {"counts": [3, 2]}}, str(hist))


def test_fits_count_folds_observed_iterations_and_retries():
    power = {"p_value": 0.5, "config": {"scheme": "rub"}, "seeds": {"replicate_indices": [0, 1, 2**32 + 2]}}
    assert fits_in(power, 20) == 20 + 3 + 1
    type1 = {"p_value": None, "config": {"scheme": "kfold", "k": 4}, "seeds": {"replicate_indices": [0, 1]}}
    assert fits_in(type1, 20) == 8


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
