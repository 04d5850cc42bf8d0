"""Command-line interface.

Subcommands::

    permsig power  --data X.csv [flags]      significance of a labeled effect
    permsig type1  --data X.csv [flags]      family-wise error on one-condition data
    permsig alt    --data X.csv [flags]      either study, extractor fitted once
    permsig bound  --n 417 --d 1 --eta 0.05  print both deviation bounds
    permsig synth  --n-per-class 100 ...     write a synthetic CSV dataset

Study settings may come from ``--config FILE`` (JSON); explicit flags
override config values, and the master seed falls back to the
``PERMSIG_SEED`` environment variable.  Reports are never overwritten:
an existing output path gets a numeric suffix unless ``--force`` is
given.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .autoenc import AeArchitecture
from .bounds import BoundSpec, empirical_bound, vapnik_bound
from .dataset import Dataset, load_csv, save_csv, synth_effect
from .errors import ConfigError, FitError
from .permtest import StudySettings, alt_scheme_study, power_study, type1_study
from .pipeline import PipelineSpec
from .rng import PermutationPlan
from .validate import Scheme

_STUDIES = {"power": power_study, "type1": type1_study, "alt": alt_scheme_study}


@dataclass
class StudyConfig:
    """Fully resolved study configuration."""

    study: str
    data_csv: str | None = None
    label_column: str = "label"
    synth: dict | None = None
    ae: dict | None = None
    reducer: str = "auto"
    pca_components: int = 1
    svm_c: float = 1.0
    region_blocks: list | None = None
    scheme: str = "rub"
    k: int = 10
    m: int | None = None
    alpha: float = 0.05
    eta: float = 0.05
    seed: int = 0
    workers: int = 1
    out: str | None = None


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(field, message)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "config", "top level must be an object")
    return doc


def _resolve_config(args: argparse.Namespace) -> StudyConfig:
    doc = _load_config_file(args.config) if args.config else {}
    cfg = StudyConfig(study=args.study)

    data = doc.get("data", {})
    _require(isinstance(data, dict), "data", "must be an object")
    cfg.data_csv = data.get("csv")
    cfg.label_column = data.get("label_column", "label")
    cfg.synth = data.get("synth")

    pipe = doc.get("pipeline", {})
    _require(isinstance(pipe, dict), "pipeline", "must be an object")
    cfg.ae = pipe.get("ae")
    cfg.reducer = pipe.get("reducer", "auto")
    cfg.pca_components = pipe.get("pca_components", 1)
    cfg.svm_c = pipe.get("svm_c", 1.0)
    cfg.region_blocks = pipe.get("region_blocks")

    for name in ("scheme", "k", "m", "alpha", "eta", "seed", "workers", "out"):
        if name in doc:
            setattr(cfg, name, doc[name])

    # Flags override the config file.
    if args.data is not None:
        cfg.data_csv = args.data
    if args.label_column is not None:
        cfg.label_column = args.label_column
    for name in ("scheme", "k", "m", "alpha", "eta", "workers", "out"):
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    if args.seed is not None:
        cfg.seed = args.seed
    elif "seed" not in doc and os.environ.get("PERMSIG_SEED"):
        try:
            cfg.seed = int(os.environ["PERMSIG_SEED"])
        except ValueError:
            raise ConfigError("seed", "PERMSIG_SEED must be an integer") from None

    _validate_config(cfg)
    return cfg


def _validate_config(cfg: StudyConfig) -> None:
    # JSON gives bool for true/false, which isinstance() would pass as int.
    _require(cfg.scheme in ("resub", "rub", "kfold"), "scheme", f"unknown scheme {cfg.scheme!r}")
    _require(
        (cfg.data_csv is None) != (cfg.synth is None),
        "data",
        "exactly one of data.csv or data.synth is required",
    )
    _require(cfg.data_csv is None or isinstance(cfg.data_csv, str), "data.csv", "must be a path string")
    _require(isinstance(cfg.label_column, str), "data.label_column", "must be a string")
    if cfg.synth is not None:
        _require(isinstance(cfg.synth, dict), "data.synth", "must be an object")
        for key in ("n_per_class", "dim"):
            _require(key in cfg.synth, f"data.synth.{key}", "is required")
        for key in ("n_per_class", "dim", "classes"):
            _require(type(cfg.synth.get(key, 2)) is int, f"data.synth.{key}", "must be an integer")
        _require(type(cfg.synth.get("effect", 0.0)) in (int, float), "data.synth.effect", "must be a number")
    _require(type(cfg.k) is int and cfg.k >= 2, "k", "must be an integer >= 2")
    _require(cfg.m is None or (type(cfg.m) is int and cfg.m >= 1), "m", "must be a positive integer")
    _require(type(cfg.alpha) in (int, float) and 0.0 < cfg.alpha <= 1.0, "alpha", "must lie in (0, 1]")
    _require(type(cfg.eta) in (int, float) and 0.0 < cfg.eta < 1.0, "eta", "must lie strictly between 0 and 1")
    _require(type(cfg.seed) is int and cfg.seed >= 0, "seed", "must be a non-negative integer")
    _require(type(cfg.workers) is int and cfg.workers >= 1, "workers", "must be a positive integer")
    _require(cfg.reducer in ("auto", "pls", "pca", "none"), "pipeline.reducer", f"unknown reducer {cfg.reducer!r}")
    _require(type(cfg.pca_components) is int and cfg.pca_components >= 1, "pipeline.pca_components", "must be a positive integer")
    _require(type(cfg.svm_c) in (int, float) and cfg.svm_c > 0, "pipeline.svm_c", "must be positive")
    _require(
        cfg.region_blocks is None
        or (isinstance(cfg.region_blocks, list)
            and all(isinstance(b, list) and all(type(i) is int for i in b) for b in cfg.region_blocks)),
        "pipeline.region_blocks",
        "must be a list of lists of integer column indices",
    )
    _require(cfg.out is None or isinstance(cfg.out, str), "out", "must be a path string")


def _dataset_from(cfg: StudyConfig) -> Dataset:
    if cfg.data_csv is not None:
        try:
            return load_csv(cfg.data_csv, cfg.label_column)
        except FileNotFoundError:
            raise ConfigError("data.csv", f"file not found: {cfg.data_csv}") from None
        except ValueError as exc:
            raise ConfigError("data.csv", str(exc)) from None
    s = cfg.synth
    plan = PermutationPlan(cfg.seed, 0)
    try:
        return synth_effect(
            s["n_per_class"], s["dim"], float(s.get("effect", 0.0)), plan, classes=s.get("classes", 2)
        )
    except ValueError as exc:
        raise ConfigError("data.synth", str(exc)) from None


def _resolve_reducer(cfg: StudyConfig, class_count: int) -> str:
    """The paper-faithful default: a single supervised component for the
    resubstitution statistics, raw features for k-fold, and an
    unsupervised component when no labels exist outside the loop."""
    if cfg.reducer != "auto":
        return cfg.reducer
    if cfg.scheme == "kfold":
        return "none"
    if cfg.study == "alt" and class_count == 1:
        return "pca"
    return "pls"


def _pipeline_from(cfg: StudyConfig, class_count: int) -> PipelineSpec:
    ae = None
    if cfg.ae is not None:
        _require(isinstance(cfg.ae, dict), "pipeline.ae", "must be an object or null")
        _require("widths" in cfg.ae, "pipeline.ae.widths", "is required")
        try:
            ae = AeArchitecture(
                layer_widths_encoder=tuple(cfg.ae["widths"]),
                activation=cfg.ae.get("activation", "sigmoid"),
                output_activation=cfg.ae.get("output_activation", "auto"),
                epochs=cfg.ae.get("epochs", 50),
                learning_rate=cfg.ae.get("learning_rate", 0.001),
                batch_size=cfg.ae.get("batch_size", 32),
                validation_fraction=cfg.ae.get("validation_fraction", 0.3),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError("pipeline.ae", str(exc)) from None
    try:
        return PipelineSpec(
            ae=ae,
            reducer=_resolve_reducer(cfg, class_count),
            pca_components=cfg.pca_components,
            svm_c=float(cfg.svm_c),
            region_blocks=cfg.region_blocks,
        )
    except ValueError as exc:
        raise ConfigError("pipeline", str(exc)) from None


def _config_echo(cfg: StudyConfig, spec: PipelineSpec, m_resolved: int) -> dict:
    """Resolved config embedded in the report.

    Execution details (worker count, output path) are excluded so that
    reruns with different workers produce byte-identical reports.
    """
    if cfg.data_csv is not None:
        data = {"csv": cfg.data_csv, "label_column": cfg.label_column}
    else:
        data = {"synth": dict(sorted(cfg.synth.items()))}
    ae = None
    if spec.ae is not None:
        ae = {
            "widths": list(spec.ae.layer_widths_encoder),
            "activation": spec.ae.activation,
            "output_activation": spec.ae.output_activation,
            "epochs": spec.ae.epochs,
            "learning_rate": spec.ae.learning_rate,
            "batch_size": spec.ae.batch_size,
            "validation_fraction": spec.ae.validation_fraction,
        }
    return {
        "study": cfg.study,
        "data": data,
        "pipeline": {
            "ae": ae,
            "reducer": spec.reducer,
            "pca_components": spec.pca_components,
            "svm_c": spec.svm_c,
            "region_blocks": [list(b) for b in spec.region_blocks]
            if spec.region_blocks
            else None,
        },
        "scheme": cfg.scheme,
        "k": cfg.k,
        "m": m_resolved,
        "alpha": cfg.alpha,
        "eta": cfg.eta,
        "seed": cfg.seed,
    }


def _free_path(path: str, force: bool) -> str:
    if force or not os.path.exists(path):
        return path
    stem, ext = os.path.splitext(path)
    i = 1
    while os.path.exists(f"{stem}-{i}{ext}"):
        i += 1
    return f"{stem}-{i}{ext}"


def _write_outputs(report, config_echo: dict, out: str, force: bool) -> tuple[str, str]:
    json_path = _free_path(out, force)
    stem, _ = os.path.splitext(json_path)
    csv_path = f"{stem}_hist.csv"
    if not force and os.path.exists(csv_path):
        csv_path = _free_path(csv_path, False)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(config_echo), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count\n")
        for left, right, count in report.histogram_csv_rows():
            fh.write(f"{left!r},{right!r},{count}\n")
    return json_path, csv_path


def _run_study(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    data = _dataset_from(cfg)
    spec = _pipeline_from(cfg, data.class_count)
    settings = StudySettings(
        scheme=Scheme(cfg.scheme),
        m=cfg.m,
        k=cfg.k,
        alpha=cfg.alpha,
        eta=cfg.eta,
        master_seed=cfg.seed,
        workers=cfg.workers,
    )
    try:
        report = _STUDIES[cfg.study](spec, data, settings)
    except ValueError as exc:
        raise ConfigError("data", str(exc)) from None
    out = cfg.out or f"{cfg.study}_report.json"
    json_path, _ = _write_outputs(report, _config_echo(cfg, spec, report.m), out, args.force)
    if report.p_value is not None:
        summary = f"p={report.p_value:.4f} [{report.p_value_sd:.4f}]"
        verdict = "reject H0" if report.p_value <= report.alpha else "keep H0"
        summary += f" alpha={report.alpha:g} ({verdict})"
    else:
        summary = f"fwe={report.fwe_rate:.4f} [{report.fwe_rate_sd:.4f}] alpha={report.alpha:g}"
    print(f"{cfg.study} {report.scheme.value} m={report.m}: {summary} -> {json_path}")
    return 0


def _run_bound(args: argparse.Namespace) -> int:
    try:
        spec = BoundSpec(args.n, args.d, args.eta)
    except ValueError as exc:
        raise ConfigError("bound", str(exc)) from None
    emp = empirical_bound(spec)
    vap = vapnik_bound(spec)
    print(f"empirical={emp:.4f} vapnik={vap:.4f} (n={spec.n} d={spec.d} eta={spec.eta:g})")
    if args.out:
        path = _free_path(args.out, args.force)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"n": spec.n, "d": spec.d, "eta": spec.eta, "empirical": emp, "vapnik": vap},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    return 0


def _run_synth(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("PERMSIG_SEED", "0") or "0")
    try:
        d = synth_effect(
            args.n_per_class,
            args.dim,
            args.effect,
            PermutationPlan(seed, 0),
            classes=args.classes,
        )
    except ValueError as exc:
        raise ConfigError("synth", str(exc)) from None
    path = _free_path(args.out, args.force)
    save_csv(d, path)
    print(f"synth classes={d.class_count} n={d.n} dim={d.n_features} effect={args.effect:g} -> {path}")
    return 0


def _add_study_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--data", help="CSV dataset path")
    p.add_argument("--label-column", dest="label_column", help="label column name (default: label)")
    p.add_argument("--scheme", choices=["kfold", "resub", "rub"], help="error statistic")
    p.add_argument("--k", type=int, help="fold count for kfold (default: 10)")
    p.add_argument("--m", type=int, help="permutation replicates (default: 1000, kfold: 100)")
    p.add_argument("--alpha", type=float, help="significance level (default: 0.05)")
    p.add_argument("--eta", type=float, help="bound confidence parameter (default: 0.05)")
    p.add_argument("--seed", type=int, help="master seed (default: $PERMSIG_SEED or 0)")
    p.add_argument("--workers", type=int, help="parallel workers (default: 1)")
    p.add_argument("--out", help="report path (default: <study>_report.json)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsig",
        description="Permutation significance tests for learning pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for study in ("power", "type1", "alt"):
        p = sub.add_parser(study, help=f"run the {study} study")
        _add_study_flags(p)
        p.set_defaults(func=_run_study, study=study)

    pb = sub.add_parser("bound", help="print both deviation bounds")
    pb.add_argument("--n", type=int, required=True, help="training-set size")
    pb.add_argument("--d", type=int, required=True, help="classifier input dimension")
    pb.add_argument("--eta", type=float, default=0.05, help="confidence parameter")
    pb.add_argument("--out", help="optional JSON output path")
    pb.add_argument("--force", action="store_true")
    pb.set_defaults(func=_run_bound)

    ps = sub.add_parser("synth", help="write a synthetic CSV dataset")
    ps.add_argument("--n-per-class", dest="n_per_class", type=int, required=True)
    ps.add_argument("--dim", type=int, required=True)
    ps.add_argument("--effect", type=float, default=0.0)
    ps.add_argument("--classes", type=int, default=2)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", required=True, help="CSV output path")
    ps.add_argument("--force", action="store_true")
    ps.set_defaults(func=_run_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
