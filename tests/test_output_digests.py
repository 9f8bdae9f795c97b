"""Smoke test of ``scripts/output_digests.py``, the before/after check of every output.

The script is loaded from its path and run in this process, with the source
tree first on the import path, on prefixes that keep it to about a second;
one test runs it as a command from the repository root.
"""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digests.py"
CONFIGS = ROOT / "configs"


@pytest.fixture
def digests(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parsed_prefix_prints_one_line_per_bundled_config(digests, capsys):
    assert digests.main(["parsed:"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(list(CONFIGS.glob("*.cfg"))) == 11
    assert all(re.fullmatch(r"parsed:\w+ config (MarketConfig|SweepSpec) [0-9a-f]{64}", line) for line in lines)


def test_one_market_prints_three_artifacts_per_run(digests, capsys):
    assert digests.main(["fedavg+loss-difference"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1:3] for line in lines] == [
        [run, artifact] for run in ("market", "twin") for artifact in ("trades_csv", "curves_csv", "summary_dict")
    ]


def test_unmatched_prefix_exits_2(digests, capsys):
    assert digests.main(["no-such-market"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no market name starts with" in err


def test_simulate_run_twice_prints_the_rewritten_files(digests, capsys):
    assert digests.main(["three_agents+pricing", "cli:simulate:three_agents+pricing"]) == 0
    digest = {tuple(line.split()[:-1]): line.split()[-1] for line in capsys.readouterr().out.splitlines()}
    cli = "cli:simulate:three_agents+pricing", "cli"
    assert digest[(*cli, "exit_code")] == "0"
    assert digest[(*cli, "trades.csv")] == digest[("three_agents+pricing", "market", "trades_csv")]
    assert digest[(*cli, "curves.csv")] == digest[("three_agents+pricing", "market", "curves_csv")]
    # A market's lines hash the files `write_run_outputs` wrote, as simulate's do.
    assert digest[(*cli, "summary.json")] == digest[("three_agents+pricing", "market", "summary_dict")]
    assert len(digest) == 6 + 5


def test_price_prints_its_exit_code_and_stdout_and_takes_no_out(digests, capsys):
    assert digests.main(["cli:price"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:3] for line in lines] == [
        [f"cli:price:{kind}", "cli", field] for kind in ("quadruple", "prior") for field in ("exit_code", "stdout")
    ]
    assert lines[0][3] == lines[2][3] == "0"
    assert lines[3][3] == hashlib.sha256(b"myerson_price=1.5\n").hexdigest()


def test_runs_from_the_repository_root_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(SCRIPT), "parsed:"], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert len(r.stdout.splitlines()) == 11
