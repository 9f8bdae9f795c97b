
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramarket import cli, engine
from paramarket import io as io_mod
from paramarket.broker import GainKind, GainReport
from paramarket.config import (
    AgentSpec,
    BrokerSpec,
    ConfigError,
    MarketConfig,
    MlpMarketSpec,
    Policy,
    PolicyKind,
    SweepSpec,
    config_echo,
    load_config,
    load_sweep,
    parse_config,
    parse_sweep,
)
from paramarket.engine import CurveRow, MarketLog, TradeRecord, run_simulation
from paramarket.experiments import layer_subset_table, run_with_twin
from paramarket.io import (
    CURVES_HEADER,
    TRADES_HEADER,
    VIOLATIONS_HEADER,
    csv_text,
    curves_csv,
    fmt,
    json_text,
    layer_table_csv,
    summary_dict,
    trades_csv,
    violations_csv,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"

MINIMAL = """
[market]
seed = 9
rounds = 12
gain_kind = error-ratio

[agent a]
dim = 8
n = 40

[agent b]
dim = 8
n = 20
noise = 0.3

[broker]
n = 300
"""

# An endowment cell's agents split one pool, so they share n and noise.
POOLED = MINIMAL.replace("n = 20\nnoise = 0.3\n", "n = 40\n")

# The neural market reads no linear-only key, so its fixture drops dim and noise.
MINIMAL_MLP = (
    MINIMAL.replace("gain_kind = error-ratio", "gain_kind = loss-difference\nmodel = mlp")
    .replace("dim = 8\n", "")
    .replace("noise = 0.3\n", "")
)

BUNDLED = sorted(CONFIGS.glob("*.cfg"))

# Replacement values for one key: corner cases of every value kind the schema
# has, plus arbitrary numbers and single-line text.
CORNER_VALUES = st.sampled_from([
    "", "0", "-1", "1", "2", "7", "0.5", "1.5", "-0.5", "nan", "inf", "1e400",
    "all", "0,1", "0,0", "4,x", "3 | x", "0 | 1", "on", "off", "auto",
    "asynchronous:-1", "asynchronous:x", "fedavg", "normal:x", "mlp", "layers",
])
TEXT_VALUES = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
MUTATED_VALUES = st.one_of(
    CORNER_VALUES, st.integers(-10**6, 10**6).map(str), st.floats().map(repr), TEXT_VALUES
)


class TestConfigParsing:
    def test_minimal_config_and_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 9 and cfg.rounds == 12
        assert cfg.gain_kind is GainKind.ERROR_RATIO
        assert cfg.trade_every == 1 and cfg.trade_start == 1
        assert not cfg.pricing
        assert [a.agent_id for a in cfg.agents] == ["a", "b"]
        assert cfg.agents[0].policy.kind is PolicyKind.TRADE_WHEN_BENEFICIAL

    def test_missing_required_key_names_section_and_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("seed = 9\n", ""))
        assert err.value.section == "market" and err.value.key == "seed"

    def test_bad_value_diagnostic(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("rounds = 12", "rounds = soon"))
        assert err.value.key == "rounds"

    def test_missing_broker_section(self):
        text = MINIMAL[: MINIMAL.index("[broker]")]
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.section == "broker"

    def test_single_agent_rejected(self):
        text = MINIMAL[: MINIMAL.index("[agent b]")] + "\n[broker]\nn = 300\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("value", ["nan", "-0.5", "inf"])
    @pytest.mark.parametrize(
        "section, key, text",
        [
            ("agent b", "noise", MINIMAL.replace("noise = 0.3", "noise = {}")),
        ],
    )
    def test_noise_must_be_finite_and_non_negative(self, section, key, text, value):
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(value))
        assert (err.value.section, err.value.key) == (section, key)

    @pytest.mark.parametrize("old, section", [("n = 40", "agent a"), ("n = 300", "broker")])
    def test_mlp_sample_counts_need_two_points(self, old, section):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_MLP.replace(old, "n = 1", 1))
        assert (err.value.section, err.value.key) == (section, "n")

    def test_mlp_bounds_accept_their_edges(self):
        cfg = parse_config(MINIMAL_MLP + "\n[mlp]\nhidden = 4,4\nlayer_set = 0,2\n")
        assert cfg.mlp.hidden == (4, 4) and cfg.mlp.layer_set == (0, 2)
        assert parse_config(MINIMAL_MLP + "\n[mlp]\nhidden =\nlayer_set = 0\n").mlp.layer_set == (0,)
        # A wholly empty list is no hidden layer, and no favored class.
        assert parse_config(MINIMAL_MLP + "\n[mlp]\nhidden =\n").mlp.hidden == ()
        none_favored = parse_config(MINIMAL_MLP.replace("n = 20", "n = 20\nfavored ="))
        assert none_favored.agents[1].favored_classes == ()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_bundled_config_parses_or_raises_config_error(self, data):
        path = data.draw(st.sampled_from(BUNDLED), label="config")
        lines = path.read_text(encoding="utf-8").splitlines()
        keyed = [i for i, line in enumerate(lines) if "=" in line and not line.startswith((";", "["))]
        i = data.draw(st.sampled_from(keyed), label="line")
        lines[i] = lines[i].split("=", 1)[0] + "= " + data.draw(MUTATED_VALUES, label="value")
        text = "\n".join(lines) + "\n"
        parse = parse_sweep if "\n[sweep]" in text else parse_config
        try:
            parse(text)
        except ConfigError:
            pass

    def test_bundled_configs_all_parse(self):
        for name in os.listdir(CONFIGS):
            if name.endswith(".cfg") and "sweep" not in name:
                load_config(CONFIGS / name)

    def test_bundled_sweeps_all_parse(self):
        for name in os.listdir(CONFIGS):
            if name.endswith("sweep.cfg"):
                spec = load_sweep(CONFIGS / name)
                assert spec.values

    def test_sweep_axis_validation(self):
        with pytest.raises(ConfigError) as err:
            parse_sweep(MINIMAL + "\n[sweep]\naxis = depth\nvalues = 1\n")
        assert err.value.key == "axis"

    def test_distance_cells_are_valid_theta_offsets(self):
        sweep = "\n[sweep]\naxis = distance\nvalues = 0 | {}\n"
        related = MINIMAL.replace("gain_kind = error-ratio", "gain_kind = loss-difference")
        assert parse_sweep(related + sweep.format("0.5")).values == (0.0, 0.5)
        for base, cell in [(related, "-0.5"), (related, "nan"), (MINIMAL, "0.5")]:
            with pytest.raises(ConfigError) as err:
                parse_sweep(base + sweep.format(cell))
            assert (err.value.section, err.value.key) == ("sweep", "values")

    @pytest.mark.parametrize(
        "text, section, key",
        [
            (MINIMAL.replace("dim = 8\nn = 20", "dim = 9\nn = 20"), "agent b", "dim"),
            (MINIMAL.replace("gain_kind = error-ratio", "gain_kind = loss-difference\npricing = on"),
             "market", "pricing"),
            (MINIMAL_MLP.replace("gain_kind = loss-difference", "gain_kind = error-ratio"), "market", "gain_kind"),
            (MINIMAL_MLP.replace("seed = 9", "seed = 9\npricing = on"), "market", "pricing"),
            (MINIMAL.replace("n = 40", "n = 40\npolicy = fedavg"), "agent b", "policy"),
            (MINIMAL.replace("seed = 9", "seed = 9\npricing = on").replace("n = 40", "n = 40\npolicy = fedavg")
             .replace("n = 20", "n = 20\npolicy = fedavg"), "market", "pricing"),
            (MINIMAL.replace("n = 40", "n = 40\npolicy = fedavg").replace("n = 20", "n = 20\npolicy = fedavg")
             + "\n[agent c]\ndim = 8\nn = 10\npolicy = fedavg\n", "agent a", "policy"),
            (MINIMAL_MLP.replace("n = 40", "n = 40\npolicy = fedavg").replace("n = 20", "n = 20\npolicy = fedavg"),
             "agent a", "policy"),
            (MINIMAL + "\n[agent  a ]\ndim = 8\nn = 10\n", "agent a", "-"),
            (MINIMAL.replace("[agent a]", "[agent a,c]"), "agent a,c", "-"),
        ],
        ids=["dims-differ", "pricing-on-loss-difference", "mlp-error-ratio", "mlp-pricing",
             "fedavg-on-some", "fedavg-pricing", "fedavg-three-agents", "fedavg-mlp", "duplicate-id",
             "comma-in-id"],
    )
    def test_cross_key_rule_names_its_key(self, text, section, key):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (err.value.section, err.value.key) == (section, key), err.value

    @pytest.mark.parametrize("agent_id", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_agent_id_that_breaks_a_csv_field_is_rejected(self, agent_id):
        # Built in code: a file cannot spell a line break in a section name.
        cfg = parse_config(MINIMAL)
        a, b = cfg.agents
        with pytest.raises(ConfigError) as err:
            replace(cfg, agents=(replace(a, agent_id=agent_id), b))
        assert (err.value.section, err.value.key) == (f"agent {agent_id}", "-"), err.value
        assert "comma, a double quote or a line break" in str(err.value)

    def test_layer_axis_values(self):
        spec = parse_sweep(MINIMAL_MLP + "\n[sweep]\naxis = layers\nvalues = 0,1 | all\nseeds = 2\n")
        assert spec.values == ((0, 1), None)


# Every float the run logs can hold: the corners that `fmt` formats specially or
# that shorter formats would round, then any float at all.
LOG_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 3.0, -2.0, 1e16, 1 / 3,
]) | st.floats()
TRADE_RECORDS = st.builds(
    TradeRecord, st.integers(0, 10**6), st.text(), st.text(), LOG_FLOATS,
    st.builds(GainReport, st.sampled_from(GainKind), LOG_FLOATS),
    st.none() | LOG_FLOATS, st.none() | LOG_FLOATS, st.none() | LOG_FLOATS,
)
CURVE_ROWS = st.builds(CurveRow, st.integers(0, 10**6), st.text(), LOG_FLOATS, LOG_FLOATS, LOG_FLOATS, LOG_FLOATS)


def fmt_fields_csvs(log: MarketLog) -> tuple:
    """``trades.csv`` and ``curves.csv`` with every field through `fmt`, the form the writers must equal."""
    return csv_text(TRADES_HEADER, (
        (r.round_index, r.buyer, r.seller, r.merge_weight, r.gain.kind.value, r.gain.value,
         r.gain.trade_beneficial, r.buyer_valuation, r.seller_valuation, r.payment, r.indicator)
        for r in log.trades
    )), csv_text(CURVES_HEADER, (
        (row.round_index, row.agent, row.broker_loss, row.own_loss, row.est_error, row.cum_payment)
        for row in log.curves
    ))


class TestFormatting:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(TRADE_RECORDS, max_size=4), st.lists(CURVE_ROWS, max_size=4))
    def test_run_logs_equal_their_fields_through_fmt(self, trades, curves):
        log = MarketLog(None, {}, (), curves, trades, {})
        assert (trades_csv(log), curves_csv(log)) == fmt_fields_csvs(log)

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_bundled_run_logs_equal_their_fields_through_fmt(self, path):
        text = path.read_text(encoding="utf-8")
        cfg = parse_sweep(text).base if "\n[sweep]" in text else parse_config(text)
        for log in run_with_twin(cfg):
            assert (trades_csv(log), curves_csv(log)) == fmt_fields_csvs(log)

    def test_seventeen_significant_digits(self):
        assert fmt(1 / 3) == "0.33333333333333331"
        assert fmt(None) == ""
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt(float("nan")) == "nan" and fmt(-math.nan) == "nan"
        assert fmt(math.inf) == "inf" and fmt(-math.inf) == "-inf"

    def test_headers_are_pinned(self):
        assert TRADES_HEADER == (
            "round,buyer,seller,merge_weight,gain_kind,gain_value,gain_beneficial,"
            "buyer_valuation,seller_valuation,payment,indicator"
        )
        assert CURVES_HEADER == "round,agent,broker_loss,own_loss,est_error,cum_payment"

    def test_csv_golden_shape(self):
        cfg = parse_config(MINIMAL)
        log = run_simulation(cfg)
        trades = trades_csv(log).splitlines()
        curves = curves_csv(log).splitlines()
        assert trades[0] == TRADES_HEADER
        assert curves[0] == CURVES_HEADER
        assert len(curves) == 1 + 2 * (cfg.rounds + 1)
        for line in trades[1:]:
            assert len(line.split(",")) == len(TRADES_HEADER.split(","))

    def test_summary_contents(self):
        log = run_simulation(parse_config(MINIMAL))
        s = summary_dict(log)
        assert set(s["agents"]) == {"a", "b"}
        assert s["config"]["seed"] == 9
        assert "final_broker_loss" in s["agents"]["a"]

    def test_summary_echoes_the_mlp_only_keys(self):
        echo = summary_dict(run_simulation(parse_config(SMALL_MLP)))["config"]
        # Fixed conventions keep their echo.
        assert echo["mlp"]["align_sweeps"] == 10
        assert echo["mlp"]["data_noise"] == 0.15 and echo["broker"]["noise"] == 0.0
        assert echo["agents"]["a"]["favored"] == [0]
        assert echo["agents"]["a"]["deprived_fraction"] == 0.5
        assert echo["agents"]["b"]["favored"] == []
        assert echo["agents"]["b"]["deprived_fraction"] == 1.0
        linear = summary_dict(run_simulation(parse_config(MINIMAL)))["config"]
        assert "mlp" not in linear
        assert linear["broker"]["noise"] == 0.0
        assert not {"favored", "deprived_fraction"} & set(linear["agents"]["a"])

    def test_violations_csv_rows(self):
        v = {"trial": 3, "scenario": "buy-sell", "realized": 0.1, "lower": 0.2,
             "upper": math.inf, "gain_a": 1 / 3, "alpha": 0.5, "beta": 1.0}
        assert violations_csv([v]) == (
            VIOLATIONS_HEADER + "\n"
            "3,buy-sell,0.10000000000000001,0.20000000000000001,inf,0.33333333333333331,0.5,1\n"
        )

    def test_layers_sweep_files_hold_the_io_encodings(self, tmp_path):
        text = SMALL_MLP + "\n[sweep]\naxis = layers\nvalues = 2 | 0,1 | all\nseeds = 2\n"
        (tmp_path / "sw.cfg").write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["sweep", str(tmp_path / "sw.cfg"), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["layer_table.csv", "layer_winners.json"]
        spec = parse_sweep(text)
        report = layer_subset_table(spec.base, list(spec.values), spec.seeds)
        table = (out / "layer_table.csv").read_bytes()
        assert table == layer_table_csv(report["table"]).encode("utf-8")
        assert (out / "layer_winners.json").read_bytes() == json_text(report["winners"]).encode("utf-8")
        lines = table.decode("utf-8").splitlines()
        assert lines[0] == "layer_set,a,b"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "0;1", "all"]
        assert sorted(report["winners"]) == [4, 5]


# What the exchange is in each case: libc's, absent, or one that fails as
# renameat2 does (-1, errno EINVAL) on a filesystem that cannot exchange.
EXCHANGES = {"renameat2": None, "no-renameat2": lambda: None, "einval": lambda: lambda *_: -1}


class TestAtomicWrite:
    @pytest.mark.parametrize("exchange", EXCHANGES)
    def test_rewrite_leaves_the_new_bytes_in_a_new_inode(self, tmp_path, monkeypatch, exchange):
        if EXCHANGES[exchange] is not None:
            monkeypatch.setattr(io_mod, "_renameat2", EXCHANGES[exchange])
        path = tmp_path / "trades.csv"
        io_mod.atomic_write_text(str(path), "old,contents\n" * 50)
        inode = path.stat().st_ino
        io_mod.atomic_write_text(str(path), "new\n")
        assert path.read_bytes() == b"new\n"
        assert path.stat().st_ino != inode
        assert os.listdir(tmp_path) == ["trades.csv"]

    def test_rewrite_exchanges_and_never_replaces(self, tmp_path, monkeypatch):
        if io_mod._renameat2() is None:
            pytest.skip("libc has no renameat2")
        path = tmp_path / "curves.csv"
        io_mod.atomic_write_text(str(path), "old\n")

        def replaced(*_):
            raise AssertionError("os.replace over an existing file")

        monkeypatch.setattr(io_mod.os, "replace", replaced)
        io_mod.atomic_write_text(str(path), "new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["curves.csv"]

    @pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
    def test_files_get_the_mode_open_gives(self, tmp_path, mask):
        saved = os.umask(mask)
        try:
            path = tmp_path / "summary.json"
            io_mod.atomic_write_text(str(path), "{}\n")
            created = path.stat().st_mode & 0o777
            io_mod.atomic_write_text(str(path), "[]\n")
            rewritten = path.stat().st_mode & 0o777
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            left = os.umask(saved)
        assert created == rewritten == (tmp_path / "plain").stat().st_mode & 0o777 == 0o666 & ~mask
        assert left == mask

    def test_a_rewrite_never_sets_the_umask_or_a_mode(self, tmp_path, monkeypatch):
        # The temp file is created at 0o666 and the kernel takes the umask off,
        # as for open: the process umask never changes, even for an instant.
        path = tmp_path / "trades.csv"
        io_mod.atomic_write_text(str(path), "old\n")
        with open(tmp_path / "plain", "w"):
            pass

        def changed(*_):
            raise AssertionError("the umask or a file mode was set")

        monkeypatch.setattr(io_mod.os, "umask", changed)
        monkeypatch.setattr(io_mod.os, "chmod", changed)
        io_mod.atomic_write_text(str(path), "new\n")
        assert path.read_bytes() == b"new\n"
        assert path.stat().st_mode & 0o777 == (tmp_path / "plain").stat().st_mode & 0o777

    def test_a_symlink_is_replaced_and_its_target_kept(self, tmp_path):
        target = tmp_path / "elsewhere.csv"
        target.write_text("kept\n", encoding="utf-8")
        link = tmp_path / "out" / "trades.csv"
        link.parent.mkdir()
        link.symlink_to(target)
        io_mod.atomic_write_text(str(link), "new\n")
        assert not link.is_symlink() and link.read_bytes() == b"new\n"
        assert target.read_bytes() == b"kept\n"
        assert os.listdir(link.parent) == ["trades.csv"]

    def test_a_reader_sees_one_whole_file_or_the_other(self, tmp_path):
        # The documented atomicity: an existing output is never absent or partial.
        path = tmp_path / "trades.csv"
        texts = ["a," * 4000 + "\n", "b," * 6000 + "\n"]
        io_mod.atomic_write_text(str(path), texts[0])
        seen, done = set(), threading.Event()

        def read():
            while not done.is_set():
                try:
                    seen.add(path.read_text(encoding="utf-8"))
                except OSError as exc:  # the path named no file
                    seen.add(repr(exc))

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for k in range(60):
                io_mod.atomic_write_text(str(path), texts[k % 2])
        finally:
            done.set()
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert seen <= set(texts) and seen
        assert os.listdir(tmp_path) == ["trades.csv"]


def run_python(*args, cwd, extra_env=None):
    # The child runs from ``cwd``, where a relative ``PYTHONPATH=src`` no
    # longer resolves; put the absolute source tree first on its path. A
    # child that hangs fails its test instead of stalling the suite.
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def run_cli(*args, cwd):
    """Run ``paramarket.cli.main`` in this process from ``cwd``, as a child would run.

    Returns the exit code and the captured output in a child's result fields.
    A ``SystemExit`` (argparse's usage errors) gives its exit code; any other
    exception escapes and fails the test, as a traceback in a child does.
    """
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


# Two small markets that each run a few rounds: a priced linear market that
# sets every optional market key, and a neural market with imbalanced data.
# Between them they set every key of the market, agent, broker and mlp
# sections, as README's schema lists them.
SMALL_LINEAR = """
[market]
seed = 4
rounds = 3
gain_kind = error-ratio
model = linear
pricing = on
seller_pricing = lower-bound
convergence_epsilon = 0.1
trade_every = 1
trade_start = 1

[agent a]
dim = 3
n = 10
theta_offset = 0
step_size = auto

[agent b]
dim = 3
n = 6
noise = 0.2
policy = always-trade

[broker]
n = 20
"""

SMALL_MLP = """
[market]
seed = 4
rounds = 2
model = mlp
gain_kind = loss-difference

[agent a]
n = 12
favored = 0
deprived_fraction = 0.5
step_size = 0.2

[agent b]
n = 12
policy = asynchronous:1

[broker]
n = 12

[mlp]
hidden = 4,4
layer_set = 0,1
"""


def _section_keys(text: str) -> dict:
    """The keys set in each section of config text; ``[agent <id>]`` sections pool as ``agent``."""
    keys, section = {}, None
    for line in text.splitlines():
        if m := re.match(r"\[(\w+)", line):
            section = m.group(1)
        elif m := re.match(r"(\w+)\s*=", line):
            keys.setdefault(section, set()).add(m.group(1))
    return keys


# The keys of each section of README's schema.
README_SCHEMA = _section_keys(
    re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
)


def test_readme_schema_lists_the_keys_of_the_small_markets():
    used = {}
    for text in (SMALL_LINEAR, SMALL_MLP):
        for section, keys in _section_keys(text).items():
            used.setdefault(section, set()).update(keys)
    for section in ("market", "agent", "broker", "mlp"):
        assert README_SCHEMA[section] == used[section], section


def echo_as_config_text(echo: dict) -> str:
    """Config text of the keys in a summary echo that its market's kind reads, lists as comma lists.

    The rest of the echo (fixed conventions, resolved step sizes, and the
    linear keys an mlp market echoes at their required values) is left out.
    """
    linear_only = {"dim", "noise", "theta_offset"} if echo["model"] == "mlp" else set()

    def section(name, values, keys):
        lines = [f"[{name}]"] + [f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}"
                                 for k, v in values.items() if k in keys]
        return "\n".join(lines) + "\n"

    parts = [section("market", echo, README_SCHEMA["market"]),
             section("broker", echo["broker"], README_SCHEMA["broker"])]
    parts += [section(f"agent {u}", a, README_SCHEMA["agent"] - linear_only) for u, a in echo["agents"].items()]
    if "mlp" in echo:
        parts.append(section("mlp", echo["mlp"], README_SCHEMA["mlp"]))
    return "\n".join(parts)


def _bundled_or_small_market(name: str) -> MarketConfig:
    if name == "SMALL_MLP":
        return parse_config(SMALL_MLP)
    text = (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
    return parse_sweep(text).base if "\n[sweep]" in text else parse_config(text)


@pytest.mark.parametrize("name", [*(p.stem for p in BUNDLED), "SMALL_MLP"])
def test_summary_echo_reads_back_as_the_same_market(name):
    cfg = _bundled_or_small_market(name)
    echo = json.loads(json_text(config_echo(cfg)))
    assert repr(parse_config(echo_as_config_text(echo))) == repr(cfg)


def test_summary_json_holds_the_config_echo():
    cfg = parse_config(SMALL_MLP)
    log = run_simulation(cfg)
    assert summary_dict(log)["config"] == {**config_echo(cfg), "resolved_step_sizes": log.step_sizes}


REQUIRED_ONLY = """
[market]
seed = 3
rounds = 5
gain_kind = {gain}
{model}
[agent a]
{dim}n = 10

[agent b]
{dim}n = 8

[broker]
n = 30
"""


def test_a_file_of_required_keys_equals_the_market_built_in_code():
    linear = MarketConfig(seed=3, rounds=5, gain_kind=GainKind.ERROR_RATIO,
                          agents=(AgentSpec("a", dim=4, n_samples=10), AgentSpec("b", dim=4, n_samples=8)),
                          broker=BrokerSpec(30))
    text = REQUIRED_ONLY.format(gain="error-ratio", model="", dim="dim = 4\n")
    assert parse_config(text) == linear
    sweep = parse_sweep(text + "\n[sweep]\naxis = start\nvalues = 1 | 2\n")
    assert sweep == SweepSpec("start", (1, 2), base=linear)
    mlp = MarketConfig(seed=3, rounds=5, gain_kind=GainKind.LOSS_DIFFERENCE,
                       agents=(AgentSpec("a", dim=0, n_samples=10), AgentSpec("b", dim=0, n_samples=8)),
                       broker=BrokerSpec(30), mlp=MlpMarketSpec())
    assert parse_config(REQUIRED_ONLY.format(gain="loss-difference", model="model = mlp\n", dim="")) == mlp


MARKET_FIELDS = ("agents", "seed", "rounds", "gain_kind", "broker.n", "trade_every", "trade_start",
                 "pricing", "convergence_epsilon", "seller_pricing", "endowment", "hidden", "layer_set",
                 "agent_id", "dim", "n", "noise", "policy", "step_size", "theta_offset", "favored",
                 "deprived_fraction")


@st.composite
def market_fields(draw):
    """`MarketConfig` fields: up to two (an agent field in any agent) drawn
    beyond their README range, any float including nan and the infinities,
    and every other one inside it."""
    beyond = draw(st.sets(st.sampled_from(MARKET_FIELDS), max_size=2))

    def pick(name, inside, outside):
        return draw(outside if name in beyond else inside)

    mlp, floats, dim = draw(st.booleans()), st.floats(), draw(st.integers(1, 4))
    ids = ["a", "b", "c"][: pick("agents", st.integers(2, 3), st.integers(0, 1))]
    kinds = [k for k in PolicyKind if k is not PolicyKind.FEDAVG]
    agents = tuple(
        AgentSpec(
            agent_id=pick("agent_id", st.just(u), st.sampled_from(ids)),
            dim=pick("dim", st.just(0 if mlp else dim), st.integers(-1, 4)),
            n_samples=pick("n", st.integers(2, 40), st.integers(-2, 1)),
            noise_variance=pick("noise", st.just(0.0) if mlp else st.floats(0.0, 2.0), floats),
            policy=pick("policy", st.builds(Policy, st.sampled_from(kinds)),
                        st.builds(Policy, st.sampled_from(PolicyKind), st.integers(-2, 3))),
            step_size=pick("step_size", st.none() | st.floats(1e-3, 2.0), floats),
            theta_offset=pick("theta_offset", st.just(0.0), floats),
            favored_classes=pick("favored", st.lists(st.integers(0, 1), max_size=2, unique=True).map(tuple)
                                 if mlp else st.just(()), st.lists(st.integers(-1, 3), max_size=3).map(tuple)),
            deprived_fraction=pick("deprived_fraction", st.floats(0.01, 1.0) if mlp else st.just(1.0), floats),
        )
        for u in ids
    )
    spec = None
    if mlp:
        hidden = pick("hidden", st.lists(st.integers(1, 16), max_size=3), st.lists(st.integers(-1, 16), max_size=3))
        layer_sets = st.lists(st.integers(0, len(hidden)), min_size=1, unique=True).map(tuple)
        any_layers = st.lists(st.integers(-1, 5), max_size=4).map(tuple)
        spec = MlpMarketSpec(tuple(hidden), pick("layer_set", st.none() | layer_sets, any_layers))
    counts = st.integers(1, 40), st.integers(-2, 0)
    return dict(
        seed=pick("seed", st.integers(0, 2**32), st.integers(-3, -1)),
        rounds=pick("rounds", *counts),
        gain_kind=pick("gain_kind", st.just(GainKind.LOSS_DIFFERENCE) if mlp else st.sampled_from(GainKind),
                       st.sampled_from(GainKind)),
        agents=agents,
        broker=BrokerSpec(pick("broker.n", st.integers(3, 100), st.integers(-2, 2))),
        trade_every=pick("trade_every", *counts),
        trade_start=pick("trade_start", *counts),
        pricing=pick("pricing", st.just(False), st.booleans()),
        convergence_epsilon=pick("convergence_epsilon", st.none() | st.floats(1e-6, 1.0), floats),
        mlp=spec,
        seller_pricing=pick("seller_pricing", st.sampled_from(["myerson", "lower-bound"]), st.text(max_size=4)),
        endowment=pick("endowment", st.none(), floats),
    )


@settings(max_examples=150, deadline=None)
@given(market_fields())
def test_market_config_constructs_or_names_a_documented_key(fields):
    # Builds configs only; no market runs. An [agent <id>] key is checked
    # against the schema's [agent a] keys.
    try:
        MarketConfig(**fields)
    except ConfigError as err:
        section = err.section.split(" ", 1)[0]
        assert section in README_SCHEMA and err.key in README_SCHEMA[section] | {"-"}, err


@settings(max_examples=150, deadline=None)
@given(market_fields())
def test_summary_echo_of_any_market_reads_back_as_it(fields):
    try:
        cfg = MarketConfig(**fields)
    except ConfigError:
        return
    echo = json.loads(json_text(config_echo(cfg)))
    # The parser orders agents by id, and an endowment is a sweep cell's, not a key.
    want = replace(cfg, agents=tuple(sorted(cfg.agents, key=lambda a: a.agent_id)), endowment=None)
    assert repr(parse_config(echo_as_config_text(echo))) == repr(want)


def _sizes_stay_small(raw: str) -> bool:
    for part in raw.split(","):
        try:
            if abs(int(part)) > 40:
                return False
        except ValueError:
            pass
    return True


# Replacement values that keep a mutated small market small: no count, width
# or round number above 40, which would make the run slow or large.
RUNNABLE_VALUES = st.one_of(
    CORNER_VALUES,
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    TEXT_VALUES.filter(_sizes_stay_small),
)


class TestCli:
    def test_simulate_writes_outputs_and_is_reproducible(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL, encoding="utf-8")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        # The module entry point in a child process, from a working directory
        # outside the repository; the rerun goes through main in this process.
        r1 = run_python("-m", "paramarket.cli", "simulate", str(cfg), "--out", str(out1), cwd=tmp_path)
        r2 = run_cli("simulate", str(cfg), "--out", str(out2), cwd=tmp_path)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        for name in ("trades.csv", "curves.csv", "summary.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
        assert b"\r" not in (out1 / "curves.csv").read_bytes()

    @pytest.mark.parametrize("name", ["pricing", "never_trade"])
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path, name):
        # OpenBLAS reads its thread count when it loads: one child per count.
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            r = run_python("-m", "paramarket.cli", "simulate", str(CONFIGS / f"{name}.cfg"),
                           "--out", str(out), cwd=tmp_path, extra_env={"OPENBLAS_NUM_THREADS": threads})
            assert r.returncode == 0, r.stderr
            outs.append(out)
        for artifact in ("trades.csv", "curves.csv", "summary.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact

    def test_ledger_that_does_not_replay_exits_1(self, tmp_path, monkeypatch):
        real = engine.run_round

        def leaky_round(states, broker, cfg, round_index, cum_payments):
            out = real(states, broker, cfg, round_index, cum_payments)
            if round_index == 2:
                cum_payments["a"] += 1e-9  # money that no trade record paid
            return out

        monkeypatch.setattr(engine, "run_round", leaky_round)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL, encoding="utf-8")
        r = run_cli("simulate", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert "internal check failed: ledger: agent a's cum_payment" in r.stderr
        assert "round 3" in r.stderr and "Traceback" not in r.stderr

    def test_settlement_outside_its_ask_and_bid_exits_1(self, tmp_path, monkeypatch):
        real = engine.quote

        def overpaying_quote(rule, bid, reverse_gain, alpha, beta):
            ask, payment = real(rule, bid, reverse_gain, alpha, beta)
            return ask, None if payment is None else bid + 1.0  # above every finite bid

        monkeypatch.setattr(engine, "quote", overpaying_quote)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL.replace("seed = 9", "seed = 9\npricing = on\nseller_pricing = lower-bound"),
                       encoding="utf-8")
        r = run_cli("simulate", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert "internal check failed: settlement: round " in r.stderr
        assert "outside its ask" in r.stderr and "Traceback" not in r.stderr

    def test_agent_id_with_a_comma_exits_2(self, tmp_path):
        # Its trades.csv rows would hold one field more than the header.
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("[agent a]", "[agent a,b]").replace("[agent b]", "[agent c]")
                       .replace("rounds = 12", "rounds = 2"), encoding="utf-8")
        r = run_cli("simulate", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "config error: [agent a,b] -:" in r.stderr
        assert not (tmp_path / "o" / "trades.csv").exists()

    def test_never_trade_config_has_zero_trade_records(self, tmp_path):
        r = run_cli(
            "simulate", str(CONFIGS / "never_trade.cfg"), "--out", str(tmp_path / "o"), cwd=tmp_path
        )
        assert r.returncode == 0, r.stderr
        trades = (tmp_path / "o" / "trades.csv").read_text(encoding="utf-8").splitlines()
        assert trades == [TRADES_HEADER]

    def test_schema_violation_exit_code_and_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("rounds = 12", "rounds = x"), encoding="utf-8")
        r = run_cli("simulate", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "[market] rounds" in r.stderr

    @pytest.mark.parametrize("value", ["0", "-0.1", "nan"])
    def test_invalid_step_size_exit_code_and_diagnostic(self, tmp_path, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("n = 40", f"n = 40\nstep_size = {value}"), encoding="utf-8")
        r = run_cli("simulate", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "[agent a] step_size:" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "old, new, diagnostic",
        [
            ("n = 40", "n = 0", "[agent a] n:"),
            ("dim = 8", "dim = 0", "[agent a] dim:"),
            ("n = 300", "n = 1", "[broker] n:"),
        ],
    )
    def test_invalid_count_exit_code_and_diagnostic(self, tmp_path, old, new, diagnostic):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace(old, new, 1), encoding="utf-8")
        r = run_cli("simulate", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert diagnostic in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "key, value",
        [
            ("align_sweeps", "0"),
            ("align_sweeps", "-1"),
            ("classes", "1"),
            ("input_dim", "3"),
            ("hidden", "0,4"),
            ("layer_set", "3"),
            ("layer_set", ""),
            ("layer_set", "2,2"),
            ("hidden", "16,,16"),
            ("hidden", "4,"),
            ("layer_set", "1,"),
        ],
    )
    def test_invalid_mlp_key_exit_code_and_diagnostic(self, tmp_path, key, value):
        mlp = {"hidden": "4,4", key: value}
        section = "".join(f"{k} = {v}\n" for k, v in mlp.items())
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL_MLP + "\n[mlp]\n" + section, encoding="utf-8")
        r = run_cli("simulate", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        # The class count, input width and sweep cap are fixed, not keys.
        retired = key in ("align_sweeps", "classes", "input_dim")
        assert (f"[mlp] {key}: unknown key" if retired else f"[mlp] {key}:") in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            ("[market\nseed = 1\n", "unparsable config"),
            (MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 3 | x\n", "[sweep] values:"),
            (MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 0\n", "[sweep] values:"),
            (MINIMAL + "\n[sweep]\naxis = start\nvalues = 0 | 5\n", "[sweep] values:"),
            (POOLED + "\n[sweep]\naxis = endowment\nvalues = 0.5 | 0\n", "[sweep] values: cannot parse cell '0'"),
            (POOLED + "\n[sweep]\naxis = endowment\nvalues = 1.5\n", "[sweep] values:"),
            (MINIMAL + "\n[sweep]\naxis = layers\nvalues = all\n", "[sweep] axis:"),
            (MINIMAL_MLP + "\n[sweep]\naxis = layers\nvalues = 0 | 4\n", "[sweep] values:"),
            (MINIMAL_MLP + "\n[sweep]\naxis = layers\nvalues = 2 | all | 2\n", "[sweep] values:"),
            (MINIMAL_MLP + "\n[sweep]\naxis = layers\nvalues = 2,3 | 3,2\n", "[sweep] values:"),
            (MINIMAL_MLP + "\n[sweep]\naxis = layers\nvalues = 0,1,2,3 | all\n", "[sweep] values:"),
            (MINIMAL_MLP + "\n[sweep]\naxis = layers\nvalues = 1 | 2,2\n", "[sweep] values:"),
            (POOLED + "\n[sweep]\naxis = endowment\nvalues = 0.5 | 0.50\n", "[sweep] values: cell '0.50' repeats"),
            (MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 2\nseed = 3\n", "[sweep] seed: unknown key"),
            (MINIMAL_MLP + "\n[sweep]\naxis = distance\nvalues = 0 | 0.5\n", "[sweep] axis:"),
            (MINIMAL_MLP + "\n[sweep]\naxis = endowment\nvalues = 0.5 | 1\n", "[sweep] axis:"),
            (MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 2\nseeds = 0\n", "[sweep] seeds:"),
            (MINIMAL + "\n[sweep]\naxis = endowment\nvalues = 0.5\n",
             "[sweep] values: cannot parse cell '0.5': [agent b] n:"),
            (MINIMAL + "\n[sweep]\naxis = frequency\nvalues = |\n", "[sweep] values: no cells given"),
        ],
        ids=["unparsable", "non-numeric-cell", "zero-frequency", "zero-start", "zero-endowment",
             "endowment-above-one", "layers-on-linear", "layer-out-of-range", "repeated-layer-cell",
             "reordered-layer-cell", "all-as-a-list", "repeated-index-in-cell", "repeated-endowment",
             "unknown-sweep-key", "distance-on-mlp", "endowment-on-mlp", "zero-seeds",
             "unequal-endowment-agents", "no-cells"],
    )
    def test_invalid_sweep_exit_code_and_diagnostic(self, tmp_path, text, diagnostic):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        # simulate reads the whole file too, so a bad [sweep] section fails it alike.
        for command in ("sweep", "simulate"):
            r = run_cli(command, str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
            assert r.returncode == 2, (command, r.stderr)
            assert diagnostic in r.stderr, command
            assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("bounds-check", "--trials", "-5"), "--trials"),
            (("bounds-check", "--trials", "0"), "--trials"),
            (("sweep", str(CONFIGS / "frequency_sweep.cfg"), "--jobs", "0"), "--jobs"),
            (("align-demo", "--width", "0"), "--width"),
            (("align-demo", "--points", "0"), "--points"),
            (("align-demo", "--depth", "-1"), "--depth"),
            (("simulate", str(CONFIGS / "never_trade.cfg"), "--seed", "-1"), "--seed"),
            (("bounds-check", "--seed", "-1"), "--seed"),
            (("align-demo", "--seed", "-1"), "--seed"),
        ],
        ids=["negative-trials", "zero-trials", "zero-jobs", "zero-width", "zero-points",
             "negative-depth", "negative-simulate-seed", "negative-bounds-seed", "negative-align-seed"],
    )
    def test_counts_in_flags_must_be_positive(self, tmp_path, args, flag):
        r = run_cli(*args, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"argument {flag}:" in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "base, old, new, diagnostic",
        [
            (MINIMAL, "seed = 9", "seed = -1", "[market] seed:"),
            (MINIMAL, "rounds = 12", "rounds = 12\nconvergence_epsilon = 0", "[market] convergence_epsilon:"),
            (MINIMAL, "rounds = 12", "rounds = 12\nconvergence_epsilon = -1", "[market] convergence_epsilon:"),
            (MINIMAL, "rounds = 12", "rounds = 12\nconvergence_epsilon = inf", "[market] convergence_epsilon:"),
            (MINIMAL, "n = 20", "n = 20\ntheta_offset = 0.5", "[agent b] theta_offset:"),
            (MINIMAL, "n = 20", "n = 20\ntheta_offset = -1", "[agent b] theta_offset:"),
            (MINIMAL_MLP, "n = 20", "n = 20\ndeprived_fraction = nan", "[agent b] deprived_fraction:"),
            (MINIMAL_MLP, "n = 20", "n = 20\ndeprived_fraction = 0", "[agent b] deprived_fraction:"),
            (MINIMAL_MLP, "n = 20", "n = 20\ndeprived_fraction = 1.5", "[agent b] deprived_fraction:"),
            (MINIMAL, "rounds = 12", "rounds = 0", "[market] rounds:"),
            (MINIMAL, "rounds = 12", "rounds = 12\ntrade_every = 0", "[market] trade_every:"),
            (MINIMAL, "rounds = 12", "rounds = 12\ntrade_start = -1", "[market] trade_start:"),
            (MINIMAL, "rounds = 12", "rounds = 12\ntrade_start = 0", "[market] trade_start:"),
            (MINIMAL, "rounds = 12", "rounds = 12\nseller_pricing = foo", "[market] seller_pricing:"),
            (MINIMAL, "rounds = 12", "rounds = 12\nmodel = foo", "[market] model:"),
            (MINIMAL_MLP, "n = 20", "n = 20\nfavored = 2", "[agent b] favored:"),
            (MINIMAL_MLP, "n = 20", "n = 20\nfavored = 7", "[agent b] favored:"),
            (MINIMAL_MLP, "n = 20", "n = 20\nfavored = -1", "[agent b] favored:"),
            (MINIMAL_MLP, "n = 20", "n = 20\nfavored = ,", "[agent b] favored:"),
            (MINIMAL_MLP, "n = 20", "n = 20\nfavored = 0,", "[agent b] favored:"),
            (MINIMAL_MLP, "n = 20", "n = 20\nfavored = 0,0", "[agent b] favored:"),
            (MINIMAL, "rounds = 12", "rounds = 12\ntrade_evry = 5", "[market] trade_evry: unknown key"),
            (MINIMAL, "n = 20", "n = 20\nfavoured = 0", "[agent b] favoured: unknown key"),
            (MINIMAL, "n = 300", "n = 300\nnosie = 0.1", "[broker] nosie: unknown key"),
            (MINIMAL, "[broker]", "[agnt c]\ndim = 8\nn = 5\n\n[broker]", "[agnt c] -: unknown section"),
            (MINIMAL, "n = 300", "n = 300\n\n[mlp]\nhidden = 4", "[mlp] hidden: unknown key"),
            (MINIMAL_MLP, "n = 20", "n = 20\ndim = 8", "[agent b] dim: unknown key"),
            (MINIMAL_MLP, "n = 20", "n = 20\nnoise = 3.0", "[agent b] noise: unknown key"),
            (MINIMAL_MLP, "n = 20", "n = 20\ntheta_offset = 0", "[agent b] theta_offset: unknown key"),
            # Broker labels are noiseless and the two-moons noise is fixed,
            # in both market kinds.
            (MINIMAL_MLP, "n = 300", "n = 300\nnoise = 0.0", "[broker] noise: unknown key"),
            (MINIMAL, "n = 300", "n = 300\nnoise = 0.0", "[broker] noise: unknown key"),
            (MINIMAL_MLP, "n = 300", "n = 300\n\n[mlp]\ndata_noise = 0.15", "[mlp] data_noise: unknown key"),
            (MINIMAL, "n = 300", "n = 300\n\n[mlp]\ndata_noise = 0.15", "[mlp] data_noise: unknown key"),
            (MINIMAL_MLP, "rounds = 12", "rounds = 12\ninit = zeros", "[market] init: unknown key"),
            (MINIMAL_MLP, "rounds = 12", "rounds = 12\nloss = sum-of-squares", "[market] loss: unknown key"),
            (MINIMAL, "n = 20", "n = 20\nfavored = 0", "[agent b] favored: unknown key"),
            (MINIMAL, "n = 20", "n = 20\ndeprived_fraction = 0.5", "[agent b] deprived_fraction: unknown key"),
            # Fixed conventions are unknown keys, also at their fixed values.
            (MINIMAL, "rounds = 12", "rounds = 12\nloss = mean-per-sample", "[market] loss: unknown key"),
            (MINIMAL, "rounds = 12", "rounds = 12\ninit = zeros", "[market] init: unknown key"),
            (MINIMAL_MLP, "n = 300", "n = 300\n\n[mlp]\nclasses = 2", "[mlp] classes: unknown key"),
            (MINIMAL_MLP, "n = 300", "n = 300\n\n[mlp]\nalign_sweeps = 10", "[mlp] align_sweeps: unknown key"),
            (MINIMAL, "n = 40", "n = 40\npolicy = asynchronous:-1", "[agent a] policy: a delay must be >= 0"),
        ],
        ids=["seed-negative",
             "epsilon-zero", "epsilon-negative", "epsilon-inf", "offset-under-error-ratio",
             "offset-negative", "deprived-nan", "deprived-zero", "deprived-above-one",
             "rounds-zero", "trade-every-zero", "trade-start-negative", "trade-start-zero",
             "seller-pricing-foo",
             "model-foo", "favored-two-classes", "favored-seven", "favored-negative",
             "favored-empty-entries", "favored-trailing-comma", "favored-repeated",
             "unknown-market-key", "unknown-agent-key", "unknown-broker-key", "unknown-section",
             "mlp-section-on-linear", "dim-on-mlp", "noise-on-mlp", "theta-offset-on-mlp",
             "broker-noise-on-mlp", "broker-noise-on-linear", "data-noise-on-mlp",
             "data-noise-on-linear", "init-on-mlp", "loss-on-mlp", "favored-on-linear",
             "deprived-fraction-on-linear", "loss-on-linear", "init-on-linear", "classes-on-mlp",
             "align-sweeps-on-mlp", "negative-delay"],
    )
    def test_invalid_market_or_agent_key_exit_code_and_diagnostic(
        self, tmp_path, base, old, new, diagnostic
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(base.replace(old, new, 1), encoding="utf-8")
        r = run_cli("simulate", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert diagnostic in r.stderr
        assert "Traceback" not in r.stderr

    # Each example runs a small market in process, well under a second for all 25.
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_small_config_exits_cleanly(self, tmp_path_factory, data):
        lines = data.draw(st.sampled_from([SMALL_LINEAR, SMALL_MLP]), label="config").splitlines()
        keyed = [i for i, line in enumerate(lines) if "=" in line]
        i = data.draw(st.sampled_from(keyed), label="line")
        value = data.draw(RUNNABLE_VALUES, label="value")
        lines[i] = lines[i].split("=", 1)[0] + "= " + value
        tmp = tmp_path_factory.mktemp("mutated")
        (tmp / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        r = run_cli("simulate", str(tmp / "run.cfg"), "--out", str(tmp / "o"), cwd=tmp)
        assert r.returncode in (0, 2, 3), r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("model", ["linear", "mlp", "mlp-step"])
    def test_divergence_exit_code(self, tmp_path, model):
        cfg = tmp_path / "div.cfg"
        # Both agents must blow up: a lone diverging agent gets rescued by
        # buying the healthy agent's parameters at full weight.
        if model == "linear":
            text = MINIMAL.replace("n = 40", "n = 40\nstep_size = 1e80").replace(
                "n = 20", "n = 20\nstep_size = 1e80"
            )
        elif model == "mlp":
            # The nets stay finite, but the unit similarities of their
            # alignment in the first trading round (3) overflow.
            text = (CONFIGS / "mlp_subset_sweep.cfg").read_text(encoding="utf-8")
            text = text.replace("rounds = 25", "rounds = 3").replace("step_size = 0.5", "step_size = 1e20")
        else:
            # The first gradient step of a one-hidden-layer net overflows its weights.
            # The [sweep] section goes: its cells 3 and 2,3 name layers a one-hidden-layer net lacks.
            text = (CONFIGS / "mlp_subset_sweep.cfg").read_text(encoding="utf-8").split("[sweep]")[0]
            text = (text.replace("rounds = 25", "rounds = 3").replace("step_size = 0.5", "step_size = 1e308")
                    .replace("hidden = 16,16,16", "hidden = 4"))
        cfg.write_text(text, encoding="utf-8")
        # Non-finite intermediates are checked where they arise, without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = run_cli("simulate", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 3, r.stderr
        assert "round" in r.stderr

    def test_diverging_twin_exits_3_without_a_warning(self, tmp_path):
        # Agent a's step overflows; in the market it buys b's parameters and
        # recovers, but its never-trade twin's loss overflows in round 2.
        cfg = tmp_path / "twin.cfg"
        cfg.write_text(
            "[market]\nseed = 1\nrounds = 5\ngain_kind = error-ratio\n\n"
            "[agent a]\ndim = 5\nn = 20\nstep_size = 1e150\n\n[agent b]\ndim = 5\nn = 20\n\n"
            "[broker]\nn = 50\n\n[sweep]\naxis = frequency\nvalues = 1\nseeds = 1\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            market = run_cli("simulate", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
            sweep = run_cli("sweep", str(cfg), "--jobs", "1", "--out", str(tmp_path / "s"), cwd=tmp_path)
        assert market.returncode == 0, market.stderr
        assert sweep.returncode == 3, sweep.stderr
        assert sweep.stderr == "divergence: non-finite loss for agent a (round 2)\n"

    def test_overflowing_neural_market_that_stays_finite_exits_0(self, tmp_path):
        # Pre-activations overflow to -inf, the ReLU zeroes them and every
        # loss stays finite: only non-finite losses count as divergence.
        text = (CONFIGS / "mlp_subset_sweep.cfg").read_text(encoding="utf-8")
        text = text.replace("rounds = 25", "rounds = 12").replace("step_size = 0.5", "step_size = 1e10")
        text = text.replace("policy = trade-when-beneficial", "policy = never-trade")
        cfg = tmp_path / "big_step.cfg"
        cfg.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = run_cli("simulate", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "Warning" not in r.stderr

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, command):
        r = run_cli(command, str(tmp_path), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert str(tmp_path) in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", str(CONFIGS / "never_trade.cfg")),
            ("sweep", "sweep.cfg"),
            ("bounds-check", "--trials", "10"),
        ],
        ids=["simulate", "sweep", "bounds-check"],
    )
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_through_an_existing_file_exits_2(self, tmp_path, args, out):
        (tmp_path / "sweep.cfg").write_text(
            MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 2\nseeds = 1\n", encoding="utf-8"
        )
        (tmp_path / "taken").write_text("", encoding="utf-8")
        r = run_cli(*args, "--out", out, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert str(tmp_path / out) in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", str(CONFIGS / "paper_linear.cfg")),
            ("sweep", str(CONFIGS / "related_tasks_sweep.cfg")),
            ("sweep", str(CONFIGS / "mlp_subset_sweep.cfg")),
            ("bounds-check", "--trials", "20000"),
            ("align-demo",),
        ],
        ids=["simulate", "sweep", "layer-sweep", "bounds-check", "align-demo"],
    )
    def test_out_through_an_existing_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys, args):
        def reached(*_, **__):
            raise AssertionError("the run started")

        for name in ("run_simulation", "run_sweep", "layer_subset_table", "soundness_sweep", "two_moons"):
            monkeypatch.setattr(cli, name, reached)
        (tmp_path / "taken").write_text("", encoding="utf-8")
        assert cli.main([*args, "--out", str(tmp_path / "taken" / "sub")]) == 2
        assert "path error:" in capsys.readouterr().err

    def test_unwritable_out_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        # Mode bits do not stop root, so creating the temporary file raises the
        # error the system gives for a directory without write permission.
        out = tmp_path / "locked"

        def denied(path, *args, real=os.open, **kwargs):
            if os.path.dirname(path) == str(out):
                raise PermissionError(13, "Permission denied", str(out))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(io_mod.os, "open", denied)
        assert cli.main(["bounds-check", "--trials", "10", "--out", str(out)]) == 2
        assert f"Permission denied: '{out}'" in capsys.readouterr().err

    def test_directory_at_an_output_name_exits_2_and_stays(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "o"
        (out / "trades.csv" / "inner").mkdir(parents=True)
        (out / "trades.csv" / "inner" / "kept").write_text("kept\n", encoding="utf-8")
        r = run_cli("simulate", str(cfg), "--out", str(out), cwd=tmp_path)
        assert r.returncode == 2 and "path error:" in r.stderr, r.stderr
        assert "Traceback" not in r.stderr
        assert os.listdir(out) == ["trades.csv"]
        assert (out / "trades.csv" / "inner" / "kept").read_bytes() == b"kept\n"

    def test_simulate_twice_into_one_out_gives_the_fresh_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL, encoding="utf-8")
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        for out in (again, again, fresh):
            assert run_cli("simulate", str(cfg), "--out", str(out), cwd=tmp_path).returncode == 0
        names = ["curves.csv", "summary.json", "trades.csv"]
        assert sorted(os.listdir(again)) == names
        for name in names:
            assert (again / name).read_bytes() == (fresh / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, command):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(MINIMAL.replace("seed = 9", "seed = 9 \xff").encode("latin-1"))
        r = run_cli(command, str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"{bad} is not UTF-8" in r.stderr
        assert "Traceback" not in r.stderr

    def test_bounds_check_passes(self, tmp_path):
        r = run_cli("bounds-check", "--trials", "500", "--out", str(tmp_path), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "violations=0" in r.stdout
        assert (tmp_path / "bounds_violations.csv").exists()

    def test_price_quadruple_line(self, tmp_path):
        r = run_cli(
            "price", "--va-self", "2", "--vb-of-a", "4", "--vb-self", "1", "--va-of-b", "3",
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "nash_price_difference=1" in r.stdout
        # A given -0.0 keeps its sign; a flag not given is +0.0.
        r = run_cli("price", "--va-self=-0.0", "--vb-of-a=-0.0", cwd=tmp_path)
        assert r.stdout.split() == [
            "nash_price_difference=-0", "surplus_product=0", "payment_for_a=-0", "payment_for_b=0",
        ]

    def test_price_near_the_float_maximum_stays_finite(self, tmp_path):
        r = run_cli("price", "--va-self", "1e308", "--vb-of-a", "1e308", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == [
            "nash_price_difference=1e+308", "surplus_product=0", "payment_for_a=1e+308", "payment_for_b=0",
        ]

    def test_price_prior_line(self, tmp_path):
        r = run_cli("price", "--prior", "uniform:0,3", cwd=tmp_path)
        assert r.returncode == 0 and "myerson_price=1.5" in r.stdout, r.stderr
        r = run_cli("price", "--prior", "exponential:4", cwd=tmp_path)
        assert "myerson_price=0.25" in r.stdout

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("--prior", "uniform:3,0"), "--prior"),
            (("--prior", "uniform:x"), "--prior"),
            (("--prior", "uniform:1"), "--prior"),
            (("--prior", "exponential:-1"), "--prior"),
            (("--prior", "exponential:"), "--prior"),
            (("--va-self", "nan"), "--va-self"),
            (("--vb-of-a", "inf"), "--vb-of-a"),
            (("--vb-self=-inf",), "--vb-self"),
            (("--va-of-b", "nan"), "--va-of-b"),
        ],
        ids=["uniform-reversed", "uniform-text", "uniform-one-bound", "exponential-negative",
             "exponential-empty", "va-self-nan", "vb-of-a-inf", "vb-self-minus-inf", "va-of-b-nan"],
    )
    def test_invalid_price_input_exit_code_and_diagnostic(self, tmp_path, args, flag):
        r = run_cli("price", *args, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"argument {flag}:" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flag", ["--va-self", "--vb-of-a", "--vb-self", "--va-of-b"])
    def test_price_prior_with_a_valuation_flag_exits_2(self, tmp_path, flag):
        # A prior prices no quadruple, so a valuation beside it would be dropped unseen.
        for args in (("--prior", "uniform:0,1", flag, "3"), (flag, "-0.0", "--prior", "uniform:0,1")):
            r = run_cli("price", *args, cwd=tmp_path)
            assert r.returncode == 2 and r.stdout == "", r.stderr
            assert f"argument {flag}: not allowed with argument --prior" in r.stderr
            assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flag", ["--va-self", "--vb-of-a", "--vb-self", "--va-of-b", "--vb-s"])
    def test_price_flag_takes_a_separate_negative_number(self, tmp_path, flag):
        # argparse reads "-1e5" as an option unless it follows its flag in one word.
        r = run_cli("price", flag, "-1e5", cwd=tmp_path)
        joined = run_cli("price", f"{flag}=-1e5", cwd=tmp_path)
        assert r.returncode == 0 and joined.returncode == 0, r.stderr + joined.stderr
        assert r.stdout == joined.stdout
        assert "nash_price_difference=" in r.stdout

    @pytest.mark.parametrize(
        "args, diagnostic",
        [
            (("bounds-check", "--seed", "-1e3"), "argument --seed: invalid int value: '-1e3'"),
            (("bounds-check", "--trials", "-inf"), "argument --trials: invalid int value: '-inf'"),
            (("align-demo", "--width", "-1.5"), "argument --width: invalid int value: '-1.5'"),
            (("bounds-check", "--seed", "-1"), "argument --seed: expected an integer >= 0, got -1"),
        ],
        ids=["seed-exponent", "trials-minus-inf", "width-fraction", "seed-minus-one"],
    )
    def test_every_flag_takes_a_separate_negative_number(self, tmp_path, args, diagnostic):
        # Not "expected one argument": the value reaches the flag's own check.
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert diagnostic in r.stderr
        assert "Traceback" not in r.stderr

    def test_help_and_words_after_a_double_dash_stay_apart(self):
        assert cli._attach_signed_values(["price", "--va-self", "-1", "--", "--vb-self", "-2"]) == [
            "price", "--va-self=-1", "--", "--vb-self", "-2",
        ]
        for flag in ("--help", "--he"):
            assert cli._attach_signed_values(["bounds-check", flag, "-1"]) == ["bounds-check", flag, "-1"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--va-self", "-inf"), ("--vb-of-a", "-nan"), ("--vb-self", "-inf"), ("--va-of-b", "-Infinity")],
    )
    def test_separate_negative_non_finite_price_value_is_named(self, tmp_path, flag, value):
        r = run_cli("price", flag, value, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"argument {flag}: expected a finite number, got {value}" in r.stderr
        assert "Traceback" not in r.stderr

    def test_align_demo(self, tmp_path):
        r = run_cli("align-demo", "--seed", "3", "--width", "8", "--out", str(tmp_path), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "recovered exactly: True" in r.stdout
        lines = (tmp_path / "align_demo.csv").read_text().splitlines()
        assert lines[0] == "weight,loss_aligned,loss_unaligned"

    def test_sweep_outputs_ordered_rows(self, tmp_path):
        text = MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 1 | 13\nseeds = 2\n"
        cfg = tmp_path / "sw.cfg"
        cfg.write_text(text, encoding="utf-8")
        r = run_cli("sweep", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "2", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("cell,axis,value,seed,")
        cells = [int(line.split(",")[0]) for line in rows[1:]]
        assert cells == sorted(cells)
        assert (tmp_path / "o" / "sweep_aggregate.csv").exists()

    def test_sweep_jobs_default_to_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert cli.build_parser().parse_args(["sweep", "any.cfg"]).jobs == 3


class TestStartup:
    def test_import_audit_and_price_load_no_scipy(self, tmp_path):
        script = """
import sys
import numpy as np
import paramarket, paramarket.cli
from paramarket.bounds import soundness_sweep
from paramarket.pricing import PriorDistribution, myerson_price
print(soundness_sweep(100, np.random.default_rng(0)).ok)
print(myerson_price(PriorDistribution.uniform(0.0, 3.0)))
print(sorted(m for m in sys.modules if m.split(".")[0].startswith("scipy")))
"""
        r = run_python("-c", script, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        ok, price, loaded = r.stdout.splitlines()
        assert ok == "True" and float(price) == pytest.approx(1.5)
        assert loaded == "[]"
