"""The demos print the same bytes, on numpy alone, and README's examples run.

Each demo runs in a fresh interpreter where scipy cannot be imported,
since the package must run on numpy alone and scipy is a test oracle.
The SHA-256 of its standard output is compared with the value recorded
when the demo was last changed on purpose.  A demo prints results of
whole studies, so a refactor that moves any reported number fails here.
README's Python examples run as one script, and its command lines through
the CLI, so an API change that they do not follow fails here too; and its
config table lists exactly the keys that the CLI accepts.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys

import pytest

import permsig
from permsig import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


STDOUT_SHA256 = {
    "alt_scheme.py": "4b25ce89749a6b95b62d6d9023a643e66ab3760dfe7e2e2780f5779ce90e8aa3",
    "autoencoder_features.py": "bc361411795f0b2cb3e1bfe9c91f42f184d39ea72a35cd90918b79d7fc4fcb30",
    "bound_curves.py": "e73e46364f42b3095dcf7da4911e416ac1f2caa562e45f1045c5d34ca89ca890",
    "overfitting_diagnostic.py": "da909c8d57e0730763ae8be880b1f95bdfb3f1bab187fb27273b89877eb795a7",
    "power_study.py": "a3cd7a50fff734a1d3c0200360a8286d354894c90a8e982552c48a29189d9b51",
    "type1_control.py": "413c4200b6cf52d586c7c25cfa851c4f4f5680ed6691cbe3a716ed5fbaae238c",
}

NO_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(demo):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(permsig.__file__))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, os.path.join(DEMOS, demo)],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo]


def test_readme_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", readme(), flags=re.M | re.S)
    assert len(blocks) == 2
    exec(compile("".join(blocks), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # the study's p-value, then the batch's errors


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Each `permsig` line of README's shell examples, in order, in one
    # directory, so a line may read what an earlier one wrote.
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("permsig ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PERMSIG_SEED", raising=False)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).is_file(), line


def test_readme_config_table_lists_every_config_key():
    # Every key that the CLI accepts, but for the objects that only hold
    # other keys, has a row in the table, and the table has no other row.
    section = readme().split("\n## Config file\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    accepted = {prefix + key for prefix, keys in cli._KEYS.items() for key in keys}
    assert len(rows) == len(set(rows))
    assert set(rows) == accepted - {"data", "pipeline", "data.synth"}


def test_readme_test_counts_match_the_suites():
    # README's "Tests" section once said twelve golden reports and six null
    # designs after a thirteenth and a seventh were added.
    from test_golden import CASES
    from test_null_rejections import CELLS

    section = " ".join(readme().split("\n## Tests\n")[1].split("\n## ")[0].split())
    with open(os.path.join(ROOT, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        guarantees = len(re.findall(r"^def test_", fh.read(), flags=re.M))
    counts = [int(re.search(pattern, section)[1]) for pattern in (
        r"holds (\d+) end-to-end guarantees", r"SHA-256 of (\d+) small CLI reports",
        r"rejection counts of (\d+) null designs")]
    assert counts == [guarantees, len(CASES), len(CELLS)]
