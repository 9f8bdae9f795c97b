
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramarket.broker import GainKind
from paramarket.config import ConfigError, load_config, load_sweep, parse_config, parse_sweep
from paramarket.core import LossSpec
from paramarket.engine import PolicyKind, run_simulation
from paramarket.io import CURVES_HEADER, TRADES_HEADER, curves_csv, fmt, summary_dict, trades_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

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

MINIMAL_MLP = MINIMAL.replace("gain_kind = error-ratio", "gain_kind = loss-difference\nmodel = mlp")

BUNDLED = sorted(CONFIGS.glob("*.cfg"))

# Replacement values for one key: corner cases of every value kind the schema
# has, plus arbitrary numbers and single-line text.
MUTATED_VALUES = st.one_of(
    st.sampled_from([
        "", "0", "-1", "1", "2", "7", "0.5", "1.5", "-0.5", "nan", "inf", "1e400",
        "all", "0,1", "0,0", "4,x", "3 | x", "0 | 1", "on", "off", "auto",
        "asynchronous:-1", "asynchronous:x", "fedavg", "normal:x", "mlp", "layers",
    ]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12),
)


class TestConfigParsing:
    def test_minimal_config_and_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 9 and cfg.rounds == 12
        assert cfg.gain_kind is GainKind.ERROR_RATIO
        assert cfg.trade_every == 1 and cfg.trade_start == 1
        assert not cfg.pricing
        assert cfg.loss_spec is LossSpec.MEAN_PER_SAMPLE
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
            ("broker", "noise", MINIMAL + "noise = {}\n"),
            ("mlp", "data_noise", MINIMAL_MLP + "\n[mlp]\ndata_noise = {}\n"),
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
        cfg = parse_config(MINIMAL_MLP + "\n[mlp]\nhidden = 4,4\nlayer_set = 0,2\nclasses = 2\nalign_sweeps = 1\n")
        assert cfg.mlp.hidden == (4, 4) and cfg.mlp.layer_set == (0, 2)
        assert parse_config(MINIMAL_MLP + "\n[mlp]\nhidden =\nlayer_set = 0\n").mlp.layer_set == (0,)

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

    def test_layer_axis_values(self):
        spec = parse_sweep(
            MINIMAL.replace("gain_kind = error-ratio", "gain_kind = loss-difference\nmodel = mlp")
            + "\n[sweep]\naxis = layers\nvalues = 0,1 | all\nseeds = 2\n"
        )
        assert spec.values == ((0, 1), None)


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert fmt(1 / 3) == "0.33333333333333331"
        assert fmt(None) == ""
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt(float("nan")) == "nan"

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


def run_cli(*args, cwd):
    # The child runs from ``cwd``, where a relative ``PYTHONPATH=src`` no
    # longer resolves; put the absolute source tree first on its path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "paramarket.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestCli:
    def test_simulate_writes_outputs_and_is_reproducible(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL, encoding="utf-8")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        r1 = run_cli("simulate", str(cfg), "--out", str(out1), cwd=tmp_path)
        r2 = run_cli("simulate", str(cfg), "--out", str(out2), cwd=tmp_path)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        for name in ("trades.csv", "curves.csv", "summary.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
        assert b"\r" not in (out1 / "curves.csv").read_bytes()

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
        ],
    )
    def test_invalid_mlp_key_exit_code_and_diagnostic(self, tmp_path, key, value):
        mlp = {"hidden": "4,4", key: value}
        section = "".join(f"{k} = {v}\n" for k, v in mlp.items())
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL_MLP + "\n[mlp]\n" + section, encoding="utf-8")
        r = run_cli("simulate", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"[mlp] {key}:" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            ("[market\nseed = 1\n", "unparsable config"),
            (MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 3 | x\n", "[sweep] values:"),
            (MINIMAL + "\n[sweep]\naxis = frequency\nvalues = 0\n", "[sweep] values:"),
            (MINIMAL + "\n[sweep]\naxis = endowment\nvalues = 0.5 | 0\n", "[sweep] values:"),
            (MINIMAL + "\n[sweep]\naxis = endowment\nvalues = 1.5\n", "[sweep] values:"),
            (MINIMAL + "\n[sweep]\naxis = layers\nvalues = all\n", "[sweep] axis:"),
            (MINIMAL_MLP + "\n[sweep]\naxis = layers\nvalues = 0 | 4\n", "[sweep] values:"),
        ],
        ids=["unparsable", "non-numeric-cell", "zero-frequency", "zero-endowment",
             "endowment-above-one", "layers-on-linear", "layer-out-of-range"],
    )
    def test_invalid_sweep_exit_code_and_diagnostic(self, tmp_path, text, diagnostic):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        r = run_cli("sweep", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert diagnostic in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("bounds-check", "--trials", "-5"), "--trials"),
            (("bounds-check", "--trials", "0"), "--trials"),
            (("sweep", str(CONFIGS / "frequency_sweep.cfg"), "--jobs", "0"), "--jobs"),
        ],
        ids=["negative-trials", "zero-trials", "zero-jobs"],
    )
    def test_counts_in_flags_must_be_positive(self, tmp_path, args, flag):
        r = run_cli(*args, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"argument {flag}:" in r.stderr
        assert not (tmp_path / "o").exists()

    def test_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "div.cfg"
        # Both agents must blow up: a lone diverging agent gets rescued by
        # buying the healthy agent's parameters at full weight.
        text = MINIMAL.replace("n = 40", "n = 40\nstep_size = 1e80").replace(
            "n = 20", "n = 20\nstep_size = 1e80"
        )
        cfg.write_text(text, encoding="utf-8")
        r = run_cli("simulate", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert r.returncode == 3, r.stderr
        assert "round" in r.stderr

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

    def test_price_prior_line(self, tmp_path):
        r = run_cli("price", "--prior", "uniform:0,3", cwd=tmp_path)
        assert r.returncode == 0 and "myerson_price=1.5" in r.stdout, r.stderr
        r = run_cli("price", "--prior", "exponential:4", cwd=tmp_path)
        assert "myerson_price=0.25" in r.stdout

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
