"""Print the sha256 of every deterministic run output, for before/after diffs.

For each bundled config (sweep configs contribute their base market) plus two
fedavg variants, runs the market and its never-trade twin through
``experiments.run_with_twin`` and prints one line per output: config, run
(market or twin), artifact (trades_csv, curves_csv, summary_dict JSON) and
digest. A refactor that must not change results gives identical output on
both commits:

    PYTHONPATH=src python scripts/output_digests.py > after.txt
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from paramarket.broker import GainKind
from paramarket.config import load_config
from paramarket.experiments import run_with_twin
from paramarket.io import curves_csv, summary_dict, trades_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _markets():
    for path in sorted(CONFIGS.glob("*.cfg")):
        yield path.stem, load_config(str(path))
    fedavg = load_config(str(CONFIGS / "fedavg.cfg"))
    yield "fedavg+loss-difference", replace(fedavg, gain_kind=GainKind.LOSS_DIFFERENCE)
    yield "fedavg+start3-every2", replace(fedavg, trade_start=3, trade_every=2)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    for name, cfg in _markets():
        for run, log in zip(("market", "twin"), run_with_twin(cfg)):
            summary = json.dumps(summary_dict(log), indent=2, sort_keys=True)
            for artifact, text in (("trades_csv", trades_csv(log)),
                                   ("curves_csv", curves_csv(log)),
                                   ("summary_dict", summary)):
                print(f"{name} {run} {artifact} {_digest(text)}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
