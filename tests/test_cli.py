import json
import os
import subprocess
import sys

import numpy as np
import pytest

from permsig import cli
from permsig.bounds import BoundSpec, empirical_bound
from permsig.cli import main
from permsig.dataset import load_csv, save_csv, synth_effect
from permsig.errors import ConfigError
from permsig.rng import PermutationPlan


@pytest.fixture
def blob_csv(tmp_path):
    d = synth_effect(15, 4, 2.0, PermutationPlan(3, 0))
    path = tmp_path / "blobs.csv"
    save_csv(d, str(path))
    return str(path)


def run(*argv):
    return main(list(argv))


# ------------------------------------------------------------------- synth


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run("synth", "--n-per-class", "10", "--dim", "3",
               "--effect", "1.0", "--seed", "4", "--out", str(out)) == 0
    d = load_csv(str(out))
    assert d.n == 20 and d.n_features == 3 and d.class_count == 2
    assert "n=20" in capsys.readouterr().out


def test_synth_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    run("synth", "--n-per-class", "5", "--dim", "2", "--seed", "1", "--out", str(a))
    run("synth", "--n-per-class", "5", "--dim", "2", "--seed", "1", "--out", str(b))
    run("synth", "--n-per-class", "5", "--dim", "2", "--seed", "2", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_bad_seed_exits_2(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "s.csv")
    monkeypatch.setenv("PERMSIG_SEED", "abc")
    assert run("synth", "--n-per-class", "3", "--dim", "2", "--out", out) == 2
    monkeypatch.delenv("PERMSIG_SEED")
    assert run("synth", "--n-per-class", "3", "--dim", "2", "--seed", str(2**64), "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("config field 'seed'") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


# ------------------------------------------------------------------- bound


def test_bound_prints_both_values(capsys):
    assert run("bound", "--n", "417", "--d", "1", "--eta", "0.05") == 0
    out = capsys.readouterr().out
    assert "empirical=0.0665" in out
    assert "vapnik=0.2103" in out


def test_bound_json_output(tmp_path):
    out = tmp_path / "b.json"
    run("bound", "--n", "100", "--d", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["n"] == 100 and doc["d"] == 2
    assert 0 < doc["empirical"] < doc["vapnik"]


def test_bound_invalid_inputs_exit_2(capsys):
    assert run("bound", "--n", "1", "--d", "1") == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field, message", [
    (("--n", "1", "--d", "1"), "n", "must be an integer of at least 2"),
    (("--n", "10", "--d", "0"), "d", "must be a positive integer"),
    (("--n", "10", "--d", "10"), "d", "must be smaller than n"),
    (("--n", "10", "--d", "1", "--eta", "2"), "eta", "must lie strictly between 0 and 1"),
], ids=["n_1", "d_0", "d_n", "eta_2"])
def test_bound_names_the_field_it_rejects(argv, field, message, capsys):
    assert run("bound", *argv) == 2
    assert capsys.readouterr().err == f"config error: config field '{field}': {message}\n"


@pytest.mark.parametrize("args, field", [
    ((True, 1, 0.05), "n"),
    ((2.5, 1, 0.05), "n"),
    ((10, 1.0, 0.05), "d"),
    ((10, False, 0.05), "d"),
    ((10, 1, True), "eta"),
    ((10, 1, "0.05"), "eta"),
    ((10, 1, float("nan")), "eta"),
])
def test_bound_spec_rejects_values_of_the_wrong_type(args, field):
    with pytest.raises(ConfigError) as info:
        BoundSpec(*args)
    assert info.value.field == field


def test_rub_study_wider_than_its_rows_names_the_data(tmp_path, capsys):
    # raw features: the classifier sees 10 inputs of 8 rows, past the bound's range
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"synth": {"n_per_class": 4, "dim": 10}}, "m": 5,
                               "scheme": "rub", "pipeline": {"reducer": "none"},
                               "out": str(tmp_path / "r.json")}))
    assert run("power", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == "config error: config field 'data': d must be smaller than n\n"
    assert not (tmp_path / "r.json").exists()


# ------------------------------------------------------------------- studies


def test_power_run_writes_report_and_histogram(tmp_path, blob_csv, capsys):
    out = tmp_path / "rep.json"
    rc = run("power", "--data", blob_csv, "--scheme", "rub",
             "--m", "30", "--seed", "5", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["study"] == "power"
    assert doc["scheme"] == "rub"
    assert doc["m"] == 30
    assert doc["config"]["pipeline"]["reducer"] == "pls"  # auto resolved
    assert "workers" not in doc["config"]
    assert "out" not in doc["config"]
    hist = tmp_path / "rep_hist.csv"
    lines = hist.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 31
    assert "p=" in capsys.readouterr().out


def test_kfold_auto_reducer_is_none(tmp_path, blob_csv):
    out = tmp_path / "kf.json"
    rc = run("power", "--data", blob_csv, "--scheme", "kfold",
             "--m", "5", "--k", "3", "--seed", "5", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["pipeline"]["reducer"] == "none"
    assert doc["k"] == 3
    assert doc["m"] == 15  # 5 replicates x 3 folds


def test_existing_report_gets_suffix(tmp_path, blob_csv):
    out = tmp_path / "r.json"
    args = ("power", "--data", blob_csv, "--m", "10", "--seed", "1", "--out", str(out))
    assert run(*args) == 0
    assert run(*args) == 0
    assert (tmp_path / "r.json").exists()
    assert (tmp_path / "r-1.json").exists()
    assert (tmp_path / "r-1_hist.csv").exists()
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "r-1.json").read_bytes()


def test_force_overwrites_in_place(tmp_path, blob_csv):
    out = tmp_path / "f.json"
    args = ("power", "--data", blob_csv, "--m", "10", "--seed", "1", "--out", str(out))
    assert run(*args) == 0
    assert run(*args, "--force") == 0
    assert not (tmp_path / "f-1.json").exists()


def test_reruns_are_byte_identical(tmp_path, blob_csv):
    out = tmp_path / "det.json"
    args = ("power", "--data", blob_csv, "--scheme", "rub", "--m", "25",
            "--seed", "9", "--out", str(out), "--force")
    run(*args)
    first = out.read_bytes()
    run(*args)
    assert out.read_bytes() == first


def test_worker_flag_does_not_change_bytes(tmp_path, blob_csv, forked_children):
    a = tmp_path / "w1.json"
    b = tmp_path / "w2.json"
    base = ("power", "--data", blob_csv, "--scheme", "rub", "--m", "16", "--seed", "3")
    run(*base, "--workers", "1", "--out", str(a))
    run(*base, "--workers", "2", "--out", str(b))
    assert len(forked_children) == 1
    assert a.read_bytes() == b.read_bytes()


def test_cli_import_leaves_out_process_pools():
    """Forking children needs neither ``multiprocessing`` nor ``concurrent.futures``."""
    code = ("import sys, permsig.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')])")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_type1_study_via_cli(tmp_path):
    gen = np.random.Generator(np.random.Philox(6))
    rows = ["label," + ",".join(f"f{i}" for i in range(3))]
    for r in range(24):
        rows.append("0," + ",".join(repr(float(v)) for v in gen.standard_normal(3)))
    data = tmp_path / "one.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "t1.json"
    rc = run("type1", "--data", str(data), "--scheme", "resub",
             "--m", "20", "--seed", "2", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["fwe_rate"] is not None and doc["p_value"] is None


# ------------------------------------------------------------------- config


def test_config_file_with_flag_override(tmp_path, blob_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"csv": blob_csv},
        "pipeline": {"reducer": "pls", "svm_c": 2.0},
        "scheme": "resub",
        "m": 12,
        "seed": 1,
    }))
    out = tmp_path / "c.json"
    rc = run("power", "--config", str(cfg), "--seed", "2", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["seeds"]["master_seed"] == 2  # flag beats config
    assert doc["m"] == 12
    assert doc["config"]["pipeline"]["svm_c"] == 2.0


def test_config_synth_source(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"synth": {"n_per_class": 10, "dim": 3, "effect": 2.0}},
        "scheme": "rub",
        "m": 15,
    }))
    out = tmp_path / "s.json"
    assert run("power", "--config", str(cfg), "--seed", "3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["data"]["synth"]["n_per_class"] == 10


def test_null_values_count_as_absent(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    synth = {"n_per_class": 6, "dim": 2}
    plain = {"data": {"synth": synth}, "m": 5, "seed": 1}
    nulls = {
        **plain,
        "study": None,
        "alpha": None,
        "data": {"csv": None, "label_column": None, "synth": {**synth, "effect": None}},
        "pipeline": {"ae": None, "reducer": None, "region_blocks": None},
    }
    for name, doc in (("plain", plain), ("nulls", nulls)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert run("power", "--config", f"{name}.json", "--out", f"{name}_rep.json") == 0
    assert (tmp_path / "plain_rep.json").read_bytes() == (tmp_path / "nulls_rep.json").read_bytes()


def test_seed_env_fallback(tmp_path, blob_csv, monkeypatch):
    monkeypatch.setenv("PERMSIG_SEED", "77")
    out = tmp_path / "env.json"
    assert run("power", "--data", blob_csv, "--m", "10", "--out", str(out)) == 0
    assert json.loads(out.read_text())["seeds"]["master_seed"] == 77
    # explicit flag still wins
    out2 = tmp_path / "env2.json"
    run("power", "--data", blob_csv, "--m", "10", "--seed", "5", "--out", str(out2))
    assert json.loads(out2.read_text())["seeds"]["master_seed"] == 5


def test_bad_env_seed_exits_2(tmp_path, blob_csv, monkeypatch, capsys):
    monkeypatch.setenv("PERMSIG_SEED", "not-a-number")
    assert run("power", "--data", blob_csv, "--m", "5") == 2
    assert "seed" in capsys.readouterr().err


# ------------------------------------------------------------------- errors


def test_missing_data_file_exits_2(capsys):
    assert run("power", "--data", "/nonexistent.csv", "--m", "5") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "data.csv" in err


def test_both_data_sources_exit_2(tmp_path, blob_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"csv": blob_csv, "synth": {"n_per_class": 5, "dim": 2}},
    }))
    assert run("power", "--config", str(cfg), "--m", "5") == 2
    assert "exactly one" in capsys.readouterr().err


def test_invalid_flag_values_exit_2(blob_csv):
    assert run("power", "--data", blob_csv, "--alpha", "2.0", "--m", "5") == 2
    assert run("power", "--data", blob_csv, "--m", "0") == 2
    assert run("power", "--data", blob_csv, "--k", "1", "--m", "5") == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # Constant features give every PLS fit a zero direction, and an observed
    # iteration is never retried.
    rows = ["label,f0,f1"] + [f"{i % 2},1.5,-2.0" for i in range(20)]
    data = tmp_path / "flat.csv"
    data.write_text("\n".join(rows) + "\n")
    assert run("power", "--data", str(data), "--m", "9", "--out", str(tmp_path / "r.json")) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: degenerate PLS direction: covariance with labels is zero\n"
    assert not (tmp_path / "r.json").exists()


def test_label_column_flag_names_a_middle_column(tmp_path):
    rows = ["f0,group,f1"] + [f"{0.1 * i},{'ab'[i % 2]},{i % 2 + 0.01 * i}" for i in range(30)]
    rows.insert(5, "")  # a blank line is skipped
    data, out = tmp_path / "mid.csv", tmp_path / "r.json"
    data.write_text("\n".join(rows) + "\n")
    assert run("power", "--data", str(data), "--label-column", "group", "--m", "9",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["data"] == {"csv": str(data), "label_column": "group"}
    assert doc["mu"] == empirical_bound(BoundSpec(30, 1, 0.05))  # n = 30 rows


@pytest.mark.parametrize("features", [1, 2])
def test_blank_label_exits_2(tmp_path, capsys, features):
    # Read as a class of its own, a blank label made a 3-class study of two
    # features, and a PLS failure (exit 3) of one.
    labels = ["a", "b", "a", " ", "b", "a", "b"]
    rows = ["label" + "".join(f",f{k}" for k in range(features))]
    rows += [label + "".join(f",{0.1 * i + k}" for k in range(features))
             for i, label in enumerate(labels)]
    data, out = tmp_path / "blank.csv", tmp_path / "r.json"
    data.write_text("\n".join(rows) + "\n")
    assert run("power", "--data", str(data), "--m", "9", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "config field 'data.csv'" in err and "blank label at row 4, column 'label'" in err
    assert not out.exists()


def test_one_condition_data_for_power_exits_2(tmp_path, capsys):
    rows = ["label,f0"] + [f"0,{float(i)}" for i in range(10)]
    data = tmp_path / "flat.csv"
    data.write_text("\n".join(rows) + "\n")
    assert run("power", "--data", str(data), "--m", "5") == 2
    assert "two classes" in capsys.readouterr().err


def test_alt_pls_on_one_condition_data_names_the_reducer(tmp_path, capsys):
    rows = ["label,f0,f1"] + [f"0,{float(i)},{float(i % 3)}" for i in range(10)]
    data, out = tmp_path / "flat.csv", tmp_path / "r.json"
    data.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipeline": {"reducer": "pls"}}))
    args = ("alt", "--config", str(cfg), "--data", str(data), "--m", "5", "--out", str(out))
    assert run(*args) == 2
    assert capsys.readouterr() == ("", "config error: config field 'pipeline.reducer': pls cannot "
                                   "be frozen on one-condition data; use 'pca' or 'none'\n")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "flat.csv"]


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run("power", "--config", str(cfg)) == 2
    assert run("power", "--config", str(tmp_path / "absent.json")) == 2
    assert run("power", "--config", str(tmp_path)) == 2  # a directory
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"alpha": "\u00e9"}'.encode("latin-1"))
    assert run("power", "--config", str(latin1)) == 2
    assert capsys.readouterr().err.count("config error: config field 'config'") == 4


def _no_study(*args):
    raise AssertionError("the study ran before its output was checked")


@pytest.mark.parametrize("argv", [
    ("power", "--m", "5"),
    ("bound", "--n", "100", "--d", "2"),
    ("synth", "--n-per-class", "5", "--dim", "2"),
], ids=lambda argv: argv[0])
def test_out_in_missing_directory_exits_2(tmp_path, capsys, monkeypatch, blob_csv, argv):
    monkeypatch.setitem(cli._STUDIES, "power", _no_study)
    data = ("--data", blob_csv) if argv[0] == "power" else ()
    assert run(*argv, *data, "--out", str(tmp_path / "absent" / "r.json")) == 2
    assert "config field 'out'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (("power", "--m", "5", "--out", ""), None),
    (("power", "--m", "5"), {"out": ""}),
    (("bound", "--n", "100", "--d", "2", "--out", ""), None),
    (("synth", "--n-per-class", "5", "--dim", "2", "--out", ""), None),
], ids=["study_flag", "study_config", "bound_flag", "synth_flag"])
def test_empty_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, blob_csv, argv,
                                              config):
    # An empty path is no path: it names no default, and is not "no output".
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._STUDIES, "power", _no_study)
    data = ("--data", blob_csv) if argv[0] == "power" else ()
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        data += ("--config", "cfg.json")
    before = sorted(os.listdir(tmp_path))
    assert run(*argv, *data) == 2
    out, err = capsys.readouterr()
    assert "config field 'out': must not be empty" in err and out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("target", ["r.json", "r_hist.csv"])
def test_out_naming_a_directory_exits_2_before_the_study(tmp_path, capsys, monkeypatch, blob_csv,
                                                         target):
    # --force writes in place, so a directory at the report's or the
    # histogram's path fails at once, not after the whole study has run.
    (tmp_path / target).mkdir()
    args = ("power", "--data", blob_csv, "--m", "5", "--seed", "1", "--out", str(tmp_path / "r.json"))
    with monkeypatch.context() as patch:
        patch.setitem(cli._STUDIES, "power", _no_study)
        assert run(*args, "--force") == 2
    assert f"config field 'out': is a directory: {tmp_path / target}" in capsys.readouterr().err
    # Without --force an existing path is numbered, as for a file.
    assert run(*args) == 0
    # A report and its histogram share one suffix, the first at which both are free.
    assert all((tmp_path / name).is_file() for name in ("r-1.json", "r-1_hist.csv"))
    assert not (tmp_path / "r.json").is_file()


def test_a_file_at_the_histogram_path_numbers_the_report_too(tmp_path, capsys, blob_csv):
    (tmp_path / "r_hist.csv").write_text("kept\n")
    args = ("power", "--data", blob_csv, "--m", "5", "--seed", "1", "--out", str(tmp_path / "r.json"))
    assert run(*args) == 0
    assert str(tmp_path / "r-1.json") in capsys.readouterr().out
    assert (tmp_path / "r_hist.csv").read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["blobs.csv", "r-1.json", "r-1_hist.csv", "r_hist.csv"]
    # the next run takes the next suffix free for both
    assert run(*args) == 0
    assert (tmp_path / "r-2.json").is_file() and (tmp_path / "r-2_hist.csv").is_file()
    assert (tmp_path / "r_hist.csv").read_text() == "kept\n"


def test_repeated_header_name_exits_2(tmp_path, capsys):
    rows = ["label,f0,f0"] + [f"{i % 2},{0.1 * i},{0.2 * i}" for i in range(10)]
    data, out = tmp_path / "repeat.csv", tmp_path / "r.json"
    data.write_text("\n".join(rows) + "\n")
    assert run("power", "--data", str(data), "--m", "9", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "config field 'data.csv'" in err and "header name 'f0' repeats, at columns 2 and 3" in err
    assert not out.exists()


def test_column_range_past_the_float_maximum_runs_clean(tmp_path, capsys):
    rows = ["label,f0,f1"] + [f"{i % 2},{0.1 * i},{(i % 3) * 0.7}" for i in range(12)]
    rows[1], rows[2] = "0,1e308,0.5", "1,-1e308,0.25"
    data, out = tmp_path / "wide.csv", tmp_path / "r.json"
    data.write_text("\n".join(rows) + "\n")
    assert run("power", "--data", str(data), "--m", "9", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


@pytest.mark.parametrize("doc, field", [
    ({"alpha": "x"}, "alpha"),
    ({"eta": "x"}, "eta"),
    ({"m": True}, "m"),
    ({"seed": True}, "seed"),
    ({"k": True}, "k"),
    ({"pipeline": {"svm_c": True}}, "pipeline.svm_c"),
    ({"pipeline": {"pca_components": True}}, "pipeline.pca_components"),
    ({"pipeline": {"region_blocks": [["a"]]}}, "pipeline.region_blocks"),
    ({"pipeline": {"region_blocks": [[0, True]]}}, "pipeline.region_blocks"),
    ({"data": {"csv": "labels_only.csv"}}, "data.csv"),
    ({"out": 7}, "out"),
    ({"data": {"csv": 0}}, "data.csv"),
    ({"data": {"csv": "labels_only.csv", "label_column": 3}}, "data.label_column"),
    ({"data": {"synth": {"n_per_class": True, "dim": 2}}}, "data.synth.n_per_class"),
    ({"data": {"synth": {"n_per_class": 5, "dim": 2.5}}}, "data.synth.dim"),
    ({"data": {"synth": {"n_per_class": 5, "dim": 2, "classes": True}}}, "data.synth.classes"),
    ({"data": {"synth": {"n_per_class": 5, "dim": 2, "effect": "big"}}}, "data.synth.effect"),
    ({"data": {"synth": {"n_per_class": 5, "dim": 2, "effect": float("inf")}}}, "data.synth.effect"),
    pytest.param({"data": {"synth": {"n_per_class": 5, "dim": 2, "effect": 1e308, "classes": 3}}},
                 "data.synth", marks=pytest.mark.filterwarnings("ignore:overflow")),
    ({"alhpa": 0.01}, "alhpa"),
    ({"study": "alt"}, "study"),
    ({"data": {"csv": "labels_only.csv", "kind": "csv"}}, "data.kind"),
    ({"data": {"synth": {"n_per_class": 5, "dim": 2, "effects": 1.0}}}, "data.synth.effects"),
    ({"pipeline": {"svmc": 2.0}}, "pipeline.svmc"),
    ({"pipeline": {"ae": {"widths": [2], "epoch": 3}}}, "pipeline.ae.epoch"),
    ({"pipeline": {"ae": {"widths": [2], "epochs": True}}}, "pipeline.ae.epochs"),
    ({"pipeline": {"ae": {"widths": [2.7]}}}, "pipeline.ae.widths"),
    ({"pipeline": {"ae": {"widths": [2], "learning_rate": "x"}}}, "pipeline.ae.learning_rate"),
    ({"seed": 2**64}, "seed"),
    ({"seed": 2**64, "data": {"synth": {"n_per_class": 5, "dim": 2}}}, "seed"),
    ({"pipeline": {"region_blocks": [[0, 1], [1, 2]]}}, "pipeline.region_blocks"),
    ({"pipeline": {"region_blocks": []}}, "pipeline.region_blocks"),
    ({"pipeline": {"reducer": "pca", "pca_components": 5}}, "pipeline.pca_components"),
    ({"pipeline": {"ae": {"widths": [9]}}}, "pipeline.ae.widths"),
    ({"pipeline": {"ae": {"widths": [3]}, "region_blocks": [[0, 1], [2, 3]]}},
     "pipeline.ae.widths"),
    # JSON's Infinity parses to inf, with which training diverges at once
    ({"pipeline": {"ae": {"widths": [2], "learning_rate": float("inf")}}},
     "pipeline.ae.learning_rate"),
])
def test_malformed_field_exits_2_and_names_it(doc, field, tmp_path, blob_csv, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "labels_only.csv").write_text("label\n0\n1\n0\n1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"csv": blob_csv}, "m": 5, **doc}))
    assert run("power", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "power_report.json").exists()


def test_overflowing_svm_c_exits_2(tmp_path, blob_csv, capsys):
    # JSON's 1e400 parses to inf, which no SVM fit can use
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"data": {"csv": %s}, "m": 5, "pipeline": {"svm_c": 1e400}}' % json.dumps(blob_csv))
    assert run("power", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "config field 'pipeline.svm_c'" in err and "Traceback" not in err


def test_a_column_repeated_in_one_block_exits_2_and_names_the_block(tmp_path, blob_csv, capsys):
    out = tmp_path / "r.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"csv": blob_csv}, "m": 5, "out": str(out),
                               "pipeline": {"region_blocks": [[1, 2], [0, 3, 0]]}}))
    assert run("power", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == ("config error: config field 'pipeline.region_blocks': "
                                       "column 0 appears twice in block 1\n")
    assert not out.exists()


def test_single_replicate_report_is_strict_json(tmp_path, blob_csv):
    out = tmp_path / "m1.json"
    assert run("power", "--data", blob_csv, "--m", "1", "--seed", "2", "--out", str(out)) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["m"] == 1 and doc["null_sd"] == 0.0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        run("frobnicate")
    assert exc_info.value.code == 2
