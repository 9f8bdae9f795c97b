"""Run-config files: a flat keyed text format parsed into MarketConfig.

The format is INI-style with one ``[market]`` section, one ``[broker]``
section, one ``[agent <id>]`` section per agent, and optional ``[mlp]`` and
``[sweep]`` sections. Keys are case-sensitive. See README for the schema and
the bundled example configs.
"""

import configparser
import math
from dataclasses import dataclass

from .broker import GainKind
from .core import LossSpec
from .engine import AgentSpec, BrokerSpec, MarketConfig, MlpMarketSpec, Policy

__all__ = ["ConfigError", "SweepSpec", "load_config", "load_sweep", "parse_config"]


class ConfigError(ValueError):
    """Schema violation with the offending section and key attached."""

    def __init__(self, section: str, key: str, message: str):
        self.section = section
        self.key = key
        super().__init__(f"[{section}] {key}: {message}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: cells (pipe-separated in the file) times seed count."""

    axis: str
    values: tuple
    seeds: int
    base: MarketConfig


def _reader(parser: configparser.ConfigParser, section: str):
    def get(key: str, cast, default=None, required: bool = False):
        if not parser.has_option(section, key):
            if required:
                raise ConfigError(section, key, "required key is missing")
            return default
        raw = parser.get(section, key).strip()
        try:
            return cast(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(section, key, f"cannot parse {raw!r}: {exc}") from exc

    return get


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _int_tuple(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(",") if v.strip() != "")


def _widths(raw: str) -> tuple:
    widths = _int_tuple(raw)
    if any(w < 1 for w in widths):
        raise ValueError("expected comma-separated hidden widths >= 1")
    return widths


def _layer_set(n_hidden: int):
    # A net with n hidden layers has weight layers 0..n.
    def cast(raw: str):
        if raw.strip() == "all":
            return None
        layers = _int_tuple(raw)
        if not layers or not all(0 <= i <= n_hidden for i in layers):
            raise ValueError(f"expected 'all' or a non-empty list of layer indices in [0, {n_hidden}]")
        return layers

    return cast


def _step_size(raw: str):
    if raw == "auto":
        return None
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("expected 'auto' or a finite value > 0")
    return value


def _noise(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("expected a finite value >= 0")
    return value


def _count(minimum: int, why: str = ""):
    def cast(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(f"expected an integer >= {minimum}{why}")
        return value

    return cast


def _input_dim(raw: str) -> int:
    if int(raw) != 2:
        raise ValueError("expected 2: two_moons supplies two features")
    return 2


def _fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError("expected a fraction in (0, 1]")
    return value


def _read(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("-", "-", f"unparsable config: {exc}") from exc
    return parser


def parse_config(text: str) -> MarketConfig:
    """Parse config text; raises ConfigError with a section/key diagnostic."""
    parser = _read(text)
    if not parser.has_section("market"):
        raise ConfigError("market", "-", "missing [market] section")
    market = _reader(parser, "market")
    model = market("model", str, default="linear")
    gain_kind = market("gain_kind", GainKind, required=True)
    loss = market("loss", LossSpec, default=LossSpec.MEAN_PER_SAMPLE)

    agent_sections = [s for s in parser.sections() if s.startswith("agent ")]
    if len(agent_sections) < 2:
        raise ConfigError("agent <id>", "-", "need at least two [agent <id>] sections")
    linear = model == "linear"
    min_n = 1 if linear else 2  # two_moons draws a point of each class
    agents = []
    for section in sorted(agent_sections):
        agent_id = section.split(" ", 1)[1].strip()
        if not agent_id:
            raise ConfigError(section, "-", "empty agent id")
        a = _reader(parser, section)
        agents.append(
            AgentSpec(
                agent_id=agent_id,
                dim=a("dim", _count(1) if linear else int, required=linear, default=0),
                n_samples=a("n", _count(min_n), required=True),
                noise_variance=a("noise", _noise, default=0.0),
                policy=a("policy", Policy.parse, default=Policy.parse("trade-when-beneficial")),
                step_size=a("step_size", _step_size, default=None),
                theta_offset=a("theta_offset", float, default=0.0),
                favored_classes=a("favored", _int_tuple, default=()),
                deprived_fraction=a("deprived_fraction", float, default=1.0),
            )
        )

    if not parser.has_section("broker"):
        raise ConfigError("broker", "-", "missing [broker] section")
    b = _reader(parser, "broker")
    # A linear broker draws at least one validation sample per agent.
    broker_min = _count(len(agents), " (one per agent)") if linear else _count(min_n)
    broker = BrokerSpec(
        n_samples=b("n", broker_min, required=True),
        noise_variance=b("noise", _noise, default=0.0),
    )

    mlp_spec = None
    if model == "mlp":
        m = _reader(parser, "mlp")
        hidden = m("hidden", _widths, default=(16, 16, 16))
        mlp_spec = MlpMarketSpec(
            hidden=hidden,
            input_dim=m("input_dim", _input_dim, default=2),
            n_classes=m("classes", _count(2), default=2),
            data_noise=m("data_noise", _noise, default=0.15),
            layer_set=m("layer_set", _layer_set(len(hidden)), default=None),
            align_sweeps=m("align_sweeps", _count(1), default=10),
        )

    try:
        return MarketConfig(
            seed=market("seed", int, required=True),
            rounds=market("rounds", int, required=True),
            gain_kind=gain_kind,
            agents=tuple(agents),
            broker=broker,
            trade_every=market("trade_every", int, default=1),
            trade_start=market("trade_start", int, default=1),
            pricing=market("pricing", _bool, default=False),
            seller_pricing=market("seller_pricing", str, default="myerson"),
            loss_spec=loss,
            init=market("init", str, default="zeros"),
            convergence_epsilon=market("convergence_epsilon", float, default=None),
            model=model,
            mlp=mlp_spec,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("market", "-", str(exc)) from exc


def load_config(path: str) -> MarketConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# Cell parser per sweep axis; the layers axis checks cells against the base net.
_SWEEP_CELLS = {"distance": float, "endowment": _fraction, "frequency": _count(1), "start": _count(0)}
_SWEEP_AXES = (*_SWEEP_CELLS, "layers")


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep config: its base market plus one [sweep] axis."""
    parser = _read(text)
    if not parser.has_section("sweep"):
        raise ConfigError("sweep", "-", "missing [sweep] section")
    s = _reader(parser, "sweep")
    axis = s("axis", str, required=True)
    if axis not in _SWEEP_AXES:
        raise ConfigError("sweep", "axis", f"expected one of {_SWEEP_AXES}, got {axis!r}")
    raw_values = s("values", str, required=True)
    cells = tuple(v.strip() for v in raw_values.split("|") if v.strip() != "")
    if not cells:
        raise ConfigError("sweep", "values", "no cells given (separate cells with '|')")
    seeds = s("seeds", _count(1), default=5)
    base = parse_config(text)
    if axis != "layers":
        cell = _SWEEP_CELLS[axis]
    elif base.mlp is None:
        raise ConfigError("sweep", "axis", "the layers axis needs an mlp market (model = mlp)")
    else:
        cell = _layer_set(len(base.mlp.hidden))
    values = []
    for raw in cells:
        try:
            values.append(cell(raw))
        except ValueError as exc:
            raise ConfigError("sweep", "values", f"cannot parse cell {raw!r}: {exc}") from exc
    return SweepSpec(axis=axis, values=tuple(values), seeds=seeds, base=base)


def load_sweep(path: str) -> SweepSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_sweep(fh.read())
