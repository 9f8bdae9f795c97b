"""Print the sha256 of every deterministic run output, for before/after diffs.

It first prints, per bundled config, the digest of the ``repr`` of what the
parser makes of it (a ``MarketConfig``, or a ``SweepSpec`` for a sweep
config), under names such as ``parsed:paper_linear``. Then, for each
bundled config (sweep configs contribute their base market), every layer
set of the layer-subset sweep, that sweep's base at 100 broker and 180
agent rows (``mlp_subset_sweep@broker100``: 99 rows kept per agent, a row
count at which a change of the forward layout changes bytes on some BLAS
kernels), every cell of the endowment sweep (as
``cell_config`` makes it), two fedavg variants and two priced variants
that ask the Myerson price (``pricing`` with ``seller_pricing = myerson``,
``three_agents`` with pricing on), runs the market and its never-trade twin
through ``experiments.run_with_twin``, writes each run's files with
``io.write_run_outputs`` into a temporary directory and prints one line per
file: config, run (market or twin), artifact (trades_csv, curves_csv and
summary_dict for trades.csv, curves.csv and summary.json) and the digest of
the file's bytes. It then runs ``paramarket.cli`` into the same temporary
directory (``sweep`` on each bundled sweep config with its seeds cut to 2,
``bounds-check --trials 2000``, ``align-demo``, ``price`` on a valuation
quadruple and on a prior, which takes no ``--out`` and writes no file, and
``simulate`` on ``three_agents`` with pricing on, run twice into one
``--out`` so that the second run rewrites existing files) and prints the
exit code, the digest of what the command printed (with the temporary
directory written as ``<tmp>``) and the digest of every file it wrote, under
names such as ``cli:sweep:endowment_sweep``; for ``simulate`` these are the
second run's. A refactor that must not change results gives identical
output, 208 lines, on both commits. The ``parsed:`` lines hash a config's ``repr``, so they
change when a config class gains or loses a field; the output lines must not.
Run from a checkout's root, the script imports that checkout's
``src/paramarket``, so one copy of it checks each tree in turn:

    python scripts/output_digests.py > after.txt
    cd ../parent && python ../repo/scripts/output_digests.py > before.txt

Market-name prefixes as arguments keep only the markets whose name starts
with one of them, for a quicker check of one path; with none, every market
runs. For example, the neural merge path alone, the CLI files alone, or
the parsed configs alone:

    python scripts/output_digests.py mlp_subset_sweep
    python scripts/output_digests.py cli:
    python scripts/output_digests.py parsed:

The bytes depend on the BLAS kernel and numpy's SIMD level, which can be
forced for one process each. Compare two commits within one setting, never
one setting against another:

    OPENBLAS_CORETYPE=Haswell python scripts/output_digests.py
    OPENBLAS_CORETYPE=Sandybridge python scripts/output_digests.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" python scripts/output_digests.py
"""

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

# The package of the checkout the script runs in, ahead of any other on the path.
if (Path.cwd() / "src" / "paramarket" / "__init__.py").is_file():
    sys.path.insert(0, str(Path.cwd() / "src"))

from paramarket.broker import GainKind  # noqa: E402
from paramarket.cli import main as cli_main  # noqa: E402
from paramarket.config import cell_config, load_config, load_sweep  # noqa: E402
from paramarket.experiments import run_with_twin  # noqa: E402
from paramarket.io import write_run_outputs  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _markets():
    for path in sorted(CONFIGS.glob("*.cfg")):
        yield path.stem, load_config(str(path))
    layers = load_sweep(str(CONFIGS / "mlp_subset_sweep.cfg"))
    for layer_set in layers.values:
        label = "all" if layer_set is None else ",".join(map(str, layer_set))
        mlp = replace(layers.base.mlp, layer_set=layer_set)
        yield f"mlp_subset_sweep[{label}]", replace(layers.base, mlp=mlp)
    # A row count at which class-major and row-major products need not agree
    # bit for bit, so a change of the forward layout shows in the bytes.
    agents = tuple(replace(a, n_samples=180) for a in layers.base.agents)
    broker = replace(layers.base.broker, n_samples=100)
    yield "mlp_subset_sweep@broker100", replace(layers.base, agents=agents, broker=broker)
    endowment = load_sweep(str(CONFIGS / "endowment_sweep.cfg"))
    for fraction in endowment.values:
        yield f"endowment_sweep[{fraction}]", cell_config(endowment.base, "endowment", fraction)
    fedavg = load_config(str(CONFIGS / "fedavg.cfg"))
    yield "fedavg+loss-difference", replace(fedavg, gain_kind=GainKind.LOSS_DIFFERENCE)
    yield "fedavg+start3-every2", replace(fedavg, trade_start=3, trade_every=2)
    pricing = load_config(str(CONFIGS / "pricing.cfg"))
    yield "pricing+myerson", replace(pricing, seller_pricing="myerson")
    three = load_config(str(CONFIGS / "three_agents.cfg"))
    yield "three_agents+pricing", replace(three, pricing=True)


def _parsed_configs():
    for path in sorted(CONFIGS.glob("*.cfg")):
        sweep = "[sweep]" in path.read_text(encoding="utf-8")
        yield f"parsed:{path.stem}", (load_sweep if sweep else load_config)(str(path))


def _cli_commands(tmp: Path):
    """(name, argv without --out, runs into that --out) per CLI command; sweep configs get 2 seeds.

    Every command but ``price`` takes an ``--out``.
    """
    for path in sorted(CONFIGS.glob("*.cfg")):
        text = path.read_text(encoding="utf-8")
        if "[sweep]" not in text:
            continue
        cut = tmp / path.name
        cut.write_text(re.sub(r"(?m)^seeds\s*=.*$", "seeds = 2", text), encoding="utf-8")
        yield f"cli:sweep:{path.stem}", ["sweep", str(cut)], 1
    yield "cli:bounds-check", ["bounds-check", "--trials", "2000"], 1
    yield "cli:align-demo", ["align-demo"], 1
    quadruple = ["--va-self", "2", "--vb-of-a", "4", "--vb-self", "1", "--va-of-b", "3"]
    yield "cli:price:quadruple", ["price", *quadruple], 1
    yield "cli:price:prior", ["price", "--prior", "uniform:0,3"], 1
    # The second run rewrites the first run's files.
    priced = tmp / "three_agents+pricing.cfg"
    text = (CONFIGS / "three_agents.cfg").read_text(encoding="utf-8")
    priced.write_text(text.replace("[market]\n", "[market]\npricing = on\n"), encoding="utf-8")
    yield "cli:simulate:three_agents+pricing", ["simulate", str(priced)], 2


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main(prefixes) -> int:
    wanted = lambda name: not prefixes or name.startswith(tuple(prefixes))  # noqa: E731
    matched = False
    for name, parsed in _parsed_configs():
        if wanted(name):
            matched = True
            print(f"{name} config {type(parsed).__name__} {_digest(repr(parsed))}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, cfg in _markets():
            if not wanted(name):
                continue
            matched = True
            for run, log in zip(("market", "twin"), run_with_twin(cfg)):
                paths = write_run_outputs(log, str(tmp / "runs" / name / run))
                for artifact, key in (("trades_csv", "trades"), ("curves_csv", "curves"),
                                      ("summary_dict", "summary")):
                    print(f"{name} {run} {artifact} {_file_digest(paths[key])}")
                sys.stdout.flush()
        for name, argv, runs in _cli_commands(tmp):
            if not wanted(name):
                continue
            matched = True
            out = tmp / "out" / name.replace(":", "_")
            writes = argv[0] != "price"
            for _ in range(runs):  # the last run's exit code, printed lines and files count
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    code = cli_main([*argv, "--out", str(out)] if writes else argv)
            print(f"{name} cli exit_code {code}")
            # The printed counts (bounds-check's clamps, say) are output too;
            # the temporary directory's name is not.
            print(f"{name} cli stdout {_digest(stdout.getvalue().replace(str(tmp), '<tmp>'))}")
            for path in sorted(out.iterdir()) if writes else ():
                print(f"{name} cli {path.name} {_file_digest(path)}")
            sys.stdout.flush()
    if not matched:
        print(f"no market name starts with any of {prefixes}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
