"""Golden CLI reports: small studies whose outputs must stay byte-identical.

Each case writes a synthetic CSV and a JSON config into a temporary
directory, runs ``permsig.cli.main`` there with relative paths (so the
report's ``config.data.csv`` is the constant ``data.csv``), and compares
the SHA-256 of the JSON report and of its ``_hist.csv`` sidecar with the
values recorded before the pipeline and study code were consolidated.

Together the cases cover power, type1 and alt; resub, rub and kfold; the
``pls``, ``pca`` and ``none`` reducers; three-class one-vs-one fits;
one-condition alt studies; and autoencoders over two region blocks,
including one at two workers, which forks one child: that case fits its
observed iterations and its null in chunks of ``MIN_BATCH`` columns, 11
chunks where it would otherwise make two.
One two-class ``pls``
case keeps only 20 rows of its second class, so that most permuted
pairs have an SVM optimum of ``w = 0`` and are calibrated on a constant
margin; its hashes were recorded while one-feature SVMs were still
solved by SMO.
``alt_pls_3class``, recorded later, is the one alt case that freezes a
``pls`` reducer for each class pair.  ``power_resub_levels_blocks1``
fits one-wide blocks of features rounded to 0..3, which scale to a grid
of thirds: its pair scores tie, so whether an SVM optimum is ``w = 0``
turns on exact sums (recorded while one-feature SVMs were solved by a
1-D dual solver, and unchanged since).  One RUB case with a two-feature
classifier also runs in a fresh interpreter where scipy cannot be
imported, since the package must not need it.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import permsig
from permsig.cli import main
from permsig.dataset import Dataset, save_csv, synth_effect
from permsig.rng import PermutationPlan

AE = {"widths": [4, 2], "epochs": 5, "learning_rate": 0.01, "validation_fraction": 0.0}
BLOCKS = [[0, 1, 2, 3], [4, 5, 6, 7]]

# name: (study, synth (n_per_class, dim, effect, classes, seed[, rows kept of the last class]),
#        config, sha json, sha csv)
CASES = {
    "power_resub_3class": (
        "power", (12, 4, 1.5, 3, 1), {"scheme": "resub", "m": 20, "seed": 3},
        "4c1c1f87a4ad6f0ff2446de1150ff8d0a95af5acca82f13285571ed03cd09190",
        "e64e9257cec5cc27f29a76de12b5a36ee7856b263c7e089b36c7f4dbd4010fc3",
    ),
    "power_rub_pca2": (
        "power", (15, 5, 1.0, 2, 2),
        {"scheme": "rub", "m": 30, "seed": 4, "pipeline": {"reducer": "pca", "pca_components": 2}},
        "f63cc02ec71214732a5a57a60aaeec380e9b0e39cab8b5a86ff5daa08ba1eac2",
        "b7de4cf59ff0948bcc71342f5521f0dee758ce5c24f90b057cf5e00537eefe39",
    ),
    "power_kfold_k3": (
        "power", (12, 4, 1.0, 2, 3), {"scheme": "kfold", "k": 3, "m": 5, "seed": 5},
        "332dc77a073643b10fa80741e967d192f9f0d329d0e7bc4f2afba17fe13414b6",
        "2d98a18fcf2363f756ca199a06d2d92a58d1b590dfd1e2b72f6c1011aacf676d",
    ),
    "type1_rub": (
        "type1", (25, 4, 0.0, 1, 4), {"scheme": "rub", "m": 30, "seed": 6},
        "a581638f1105ce739310f53a8732b71fda43633a9b7b2049ffddfef424373b2a",
        "f21d584ce732566c9eed31865343a45fec79ad4f372b709ac70a14b32eb4c36a",
    ),
    "type1_resub_pca": (
        "type1", (24, 4, 0.0, 1, 5),
        {"scheme": "resub", "m": 30, "seed": 7, "pipeline": {"reducer": "pca"}},
        "927bb295f1b3ad33a2c6ec211bb5a8ba9719517c19130649a460695507b2be48",
        "11346d2d82314ea109ffaf70677b545dd865a67390b2c27506dd3f283073587c",
    ),
    "alt_one_condition": (
        "alt", (21, 4, 0.0, 1, 6), {"scheme": "rub", "m": 30, "seed": 8},
        "15ec123d49c2afec8228cb365e46dec23033c9977f8f3fe79bee7bfd6f36018c",
        "8ab85a22191429f27d737fd996d5191b672a8119d3d232d8dee2c0e537d74c42",
    ),
    "alt_kfold_3class": (
        "alt", (12, 4, 1.5, 3, 7), {"scheme": "kfold", "k": 3, "m": 4, "seed": 9},
        "4a58484b518309acb3d9e9a92f5b18187fb691c53ee7c2fe4624b0d1dddb375c",
        "a542f096df06b5026a8875c15c9ce0fc975239f6fa3547d977778310f0838d7b",
    ),
    "alt_ae_blocks_workers2": (
        "alt", (15, 8, 1.0, 2, 8),
        {"scheme": "rub", "m": 24, "seed": 10, "workers": 2,
         "pipeline": {"ae": AE, "reducer": "none", "region_blocks": BLOCKS}},
        "e16744fb1ce8f6b11488c769991efad930fcc179d57053f2f56e9532dd339436",
        "126799eff9f55f46cbadda0c53bacacf04b265446ba120c87fb36850674ec47c",
    ),
    "power_ae_blocks": (
        "power", (15, 8, 1.0, 2, 9),
        {"scheme": "rub", "m": 6, "seed": 11,
         "pipeline": {"ae": AE, "reducer": "pls", "region_blocks": BLOCKS}},
        "915f4c44e0a4e2f3ebdb3f340da31ac25763b234ec6a45b0144a0360aef23184",
        "39545a53d41b8f0bf72e334645d05e98dd84f910502de285f9e563038d4832b9",
    ),
    "alt_pca_3class": (
        "alt", (12, 4, 1.5, 3, 10),
        {"scheme": "resub", "m": 30, "seed": 12, "pipeline": {"reducer": "pca"}},
        "8ccf5c00f25a0c4ac7f6f3d8b9b0d638b021dc5cf514e9ff9d7d4c71d2c07252",
        "d83fa0b2589373fd6c911e9b18e0176b42e78a119990754d26e6b8c86e9effe4",
    ),
    "alt_pls_3class": (
        "alt", (12, 4, 1.5, 3, 11),
        {"scheme": "rub", "m": 30, "seed": 13, "pipeline": {"reducer": "pls"}},
        "af9820c59c050fea3517f4219d029b74eecab49b41f97bdc4e2df0ee6d0b7a0f",
        "239b9c81b526807bca12f5d28ca0736121caf865bec8655d06a5ed9ba3aad8fd",
    ),
    "power_rub_pls_imbalanced": (
        "power", (80, 6, 0.5, 2, 21, 20), {"scheme": "rub", "m": 30, "seed": 3},
        "2ce4fc784c24b1e7548006de8564f390bd47d33e9b58a389e57fd825e6c21c72",
        "6a865a9e60ed88cf7584c27daf98591e7c542fe06f64f336b5e9e7f39e884906",
    ),
    "power_resub_levels_blocks1": (
        "power", (12, 4, 0.5, 2, 22, 8),
        {"scheme": "resub", "m": 40, "seed": 14,
         "pipeline": {"region_blocks": [[0], [1], [2], [3]]}},
        "ae75bbc048fdfee4ca1c6d39b40ff3b78c10c008bfbafd3013890ab61490819b",
        "725cc74942c41a50e20c56328aa9e10529e3bc0fddef91509c60f29b683989b1",
    ),
}
# Cases whose features are rounded to the integers 0, ..., levels - 1.
LEVELS = {"power_resub_levels_blocks1": 4}


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_case(name, workdir, monkeypatch) -> None:
    """Write the case's ``data.csv`` and ``cfg.json`` into ``workdir``, and go there."""
    _, (n_per, dim, effect, classes, seed, *kept), config, _, _ = CASES[name]
    monkeypatch.chdir(workdir)
    d = synth_effect(n_per, dim, effect, PermutationPlan(seed, 0), classes=classes)
    if kept:
        last = np.flatnonzero(d.labels == classes - 1)
        rows = np.setdiff1d(np.arange(len(d.labels)), last[kept[0]:])
        d = Dataset(d.features[rows], d.labels[rows], classes)
    if name in LEVELS:
        top = LEVELS[name] - 1
        d = Dataset(np.clip(np.round(d.features + top / 2), 0, top), d.labels, classes)
    save_csv(d, "data.csv")
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"data": {"csv": "data.csv"}, **config}, fh)


def run_case(name, workdir, monkeypatch) -> tuple[str, str]:
    write_case(name, workdir, monkeypatch)
    assert main([CASES[name][0], "--config", "cfg.json", "--out", "rep.json"]) == 0
    return sha256_of("rep.json"), sha256_of("rep_hist.csv")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path, monkeypatch, request):
    *_, config, want_json, want_csv = CASES[name]
    workers = config.get("workers", 1)
    children = request.getfixturevalue("forked_children") if workers > 1 else []
    assert run_case(name, tmp_path, monkeypatch) == (want_json, want_csv)
    assert len(children) == workers - 1


NO_SCIPY = """
import sys
import permsig.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "permsig.cli imported scipy"
sys.modules["scipy"] = None  # any later import of scipy raises ImportError
sys.exit(permsig.cli.main([sys.argv[1], "--config", "cfg.json", "--out", "rep.json"]))
"""


def test_golden_report_without_scipy(tmp_path, monkeypatch):
    """A RUB study with d = 2 gives its golden bytes where scipy cannot be imported."""
    name = "power_rub_pca2"
    *_, want_json, want_csv = CASES[name]
    write_case(name, tmp_path, monkeypatch)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(permsig.__file__))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, CASES[name][0]],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (sha256_of("rep.json"), sha256_of("rep_hist.csv")) == (want_json, want_csv)


KFOLD_ECHO = (
    "the report's config echoes m as replicates x k, so a k-fold replay "
    "runs k times as many replicates"
)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=KFOLD_ECHO))
    if CASES[name][2]["scheme"] == "kfold" else name
    for name in sorted(CASES)
])
def test_report_config_replays(name, tmp_path, monkeypatch):
    """The config a report embeds, plus its worker count, reproduces the report."""
    study, _, config, want_json, want_csv = CASES[name]
    run_case(name, tmp_path, monkeypatch)
    with open("rep.json", encoding="utf-8") as fh:
        echo = json.load(fh)["config"]
    with open("replay.json", "w", encoding="utf-8") as fh:
        json.dump({**echo, "workers": config.get("workers", 1)}, fh)
    assert main([study, "--config", "replay.json", "--out", "again.json"]) == 0
    assert (sha256_of("again.json"), sha256_of("again_hist.csv")) == (want_json, want_csv)
