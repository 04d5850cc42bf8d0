"""Benchmark workloads: what each one runs, and the inputs it generates.

Every workload is one permsig CLI study.  A run of the benchmark studies
INPUTS input sets in turn, each a CSV dataset and a JSON config generated
from the workload seed and the set's index alone, so the same seed always
gives byte-identical inputs, and the program sees nothing else.  Averaging
over several datasets keeps one seed's data from setting the run's cost.

Sizes were chosen so that one study takes 2-4 s on a 2-core Xeon, which
leaves room for several studies of each input set in a 40 s run.  The
reasons for each workload are in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 11

# Input sets per run.
INPUTS = 4

# Each feature column of class c is shifted by c * effect in the first
# SHIFTED columns, as in permsig's own synthetic generator.
SHIFTED = 5


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    classes: int
    n_per_class: int
    dim: int
    effect: float
    pipeline: dict
    scheme: str
    m: int
    # Boundaries (span names) the traced run must see called at least once.
    expect_calls: tuple[str, ...]
    # SHA-256 of the report, minus config.data.csv, of each input set at
    # DEFAULT_SEED.
    reference_sha256: tuple[str, ...]
    k: int = 10
    workers: int = 1

    def config(self, csv_path: str, seed: int) -> dict:
        doc = {
            "data": {"csv": csv_path, "label_column": "label"},
            "pipeline": self.pipeline,
            "scheme": self.scheme,
            "m": self.m,
            "seed": seed,
            "workers": self.workers,
        }
        if self.scheme == "kfold":
            doc["k"] = self.k
        return doc


_AE_SPEC = {
    "ae": {"widths": [8, 3], "epochs": 20},
    "reducer": "none",
    "region_blocks": [list(range(0, 16)), list(range(16, 32))],
}

_COMMON = (
    "cli.main",
    "dataset.load_csv",
    "dataset.scale_unit_interval",
    "bounds.empirical_bound",
    "permtest.null_distribution",
    "linclass.svm_fit",
    "linclass.calibrate",
    "rng.streams",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="power_rub_pls",
            study="power",
            classes=2,
            n_per_class=100,
            dim=10,
            effect=0.5,
            pipeline={"reducer": "pls"},
            scheme="rub",
            m=250,
            expect_calls=_COMMON
            + (
                "permtest.power_study",
                "validate.resub_error",
                "pipeline.fit",
                "dimred.pls1_fit",
                "dimred.reduce",
                "dataset.permute_labels",
                "dataset.shuffle_rows",
            ),
            reference_sha256=(
                "56ef6467af121fe0227c20557c758ab80796b59d66fea713879eacbb43be4ad8",
                "7fea22d2e4c5c49cc02f47862911a12f452eec1596d4f4f71982fec6ea64f1f8",
                "1223baa4353a97bf4373c9b9e1609defd36a60a61374bc2ea43140df680ee2cd",
                "c2770dd5d780c180ac1b7800f5aa61ac05728a27664117c32e52409eb1b26867",
            ),
        ),
        Workload(
            name="type1_kfold_raw",
            study="type1",
            classes=1,
            n_per_class=2000,
            dim=20,
            effect=0.0,
            pipeline={"reducer": "none"},
            scheme="kfold",
            m=4,
            k=4,
            expect_calls=tuple(c for c in _COMMON if c != "bounds.empirical_bound")
            + (
                "permtest.type1_study",
                "validate.kfold_errors",
                "pipeline.fit",
                "dataset.split_null_groups",
                "dataset.stratified_folds",
            ),
            reference_sha256=(
                "fb481c43ce7bc9f27129fc39d2cc2b5245d7bf66348166b61fc6876aeffbb1fb",
                "0192b7231058ca3965912a23b195e702af3be566aef3c2f2eef9c6e443ff9e76",
                "55359ff69745088520eaef607bbc776cae8c4fa4ae0ca7d7e82c91cea53920f1",
                "11253ae8cd65c9c6f91eae1d42d32e3154e58efe8639dc2d0f75288ac4ca4b22",
            ),
        ),
        Workload(
            name="alt_ae_frozen",
            study="alt",
            classes=3,
            n_per_class=60,
            dim=32,
            effect=0.5,
            pipeline=_AE_SPEC,
            scheme="rub",
            m=200,
            workers=2,
            expect_calls=_COMMON
            + (
                "permtest.alt_scheme_study",
                "validate.resub_error",
                "pipeline.fit_feature_maps",
                "pipeline.alt_fit",
                "autoenc.ae_fit",
                "autoenc.ae_encode",
                "dataset.permute_labels",
                "dataset.shuffle_rows",
            ),
            reference_sha256=(
                "c5734b4d509bf7e46d13794be7a2b26b73610a2c5bb34bba3780b372d290ce1d",
                "9b47782d0957cce4fa06e014a5cd464ac12cb0a8aee461129cdc66a4e3ff3b0f",
                "f10c25af4b5d6dc5ebe481ce374795a7ebdbc022a57724bdd267eefc884ccf5d",
                "30cbd02ce3e22445b6cc810b6b0f7d9e2198b216b0a290f00ddc46cce353a802",
            ),
        ),
    )
}


def write_inputs(w: Workload, seed: int, directory: str, part: int = 0) -> tuple[str, str]:
    """Write input set ``part`` of the workload for ``seed``, a CSV and a JSON
    config; return both paths.

    Rows are Gaussian with unit variance; class ``c`` is shifted by
    ``c * effect`` in the first few columns, and rows are shuffled.
    """
    import numpy as np

    gen = np.random.default_rng([seed, part, sum(map(ord, w.name))])
    n = w.classes * w.n_per_class
    x = gen.standard_normal((n, w.dim))
    y = np.repeat(np.arange(w.classes), w.n_per_class)
    x[:, : min(SHIFTED, w.dim)] += (y * w.effect)[:, None]
    order = gen.permutation(n)
    csv_path = os.path.join(directory, f"{w.name}.{part}.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["label", *(f"f{i}" for i in range(w.dim))])
        for r in order:
            out.writerow([f"c{y[r]}", *(repr(float(v)) for v in x[r])])
    config_path = os.path.join(directory, f"{w.name}.{part}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(w.config(csv_path, seed), fh, indent=2)
    return csv_path, config_path
