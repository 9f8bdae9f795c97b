"""Run-config files: a flat keyed text format parsed into MarketConfig.

The format is INI-style with one ``[market]`` section, one ``[broker]``
section, one ``[agent <id>]`` section per agent, and optional ``[mlp]`` and
``[sweep]`` sections. Keys are case-sensitive; any other section, and any key
the parser does not read, is an error. Each market kind reads only the keys
it acts on, so a linear-only key in a neural market (and the reverse) is an
unknown key too. See README for the schema and the bundled example configs.
"""

import configparser
import math
from dataclasses import dataclass

from .broker import GainKind
from .engine import AgentSpec, BrokerSpec, ConfigError, MarketConfig, MlpMarketSpec, Policy
from .mlp import MOONS_CLASSES

__all__ = ["ConfigError", "SweepSpec", "load_config", "load_sweep", "parse_config"]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: cells (pipe-separated in the file) times seed count."""

    axis: str
    values: tuple
    seeds: int
    base: MarketConfig


def _reader(parser: configparser.ConfigParser, section: str, read: set):
    def get(key: str, cast, default=None, required: bool = False):
        read.add((section, key))
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
        if not layers or len(set(layers)) < len(layers) or not all(0 <= i <= n_hidden for i in layers):
            raise ValueError(f"expected 'all' or a non-empty list of distinct layer indices in [0, {n_hidden}]")
        return layers

    return cast


def _favored(raw: str) -> tuple:
    favored = _int_tuple(raw)
    if not all(0 <= c < MOONS_CLASSES for c in favored):
        raise ValueError(f"expected class indices in [0, {MOONS_CLASSES - 1}]")
    return favored


def _positive(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("expected a finite value > 0")
    return value


def _step_size(raw: str):
    return None if raw == "auto" else _positive(raw)


def _non_negative(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("expected a finite value >= 0")
    return value


def _theta_offset(gain_kind: GainKind):
    # A distance-sweep cell: every agent after the first moves off the shared truth.
    def cast(raw: str) -> float:
        value = _non_negative(raw)
        if value > 0 and gain_kind is GainKind.ERROR_RATIO:
            raise ValueError("expected 0: the error-ratio gain needs one shared true parameter vector")
        return value

    return cast


def _count(minimum: int, why: str = ""):
    def cast(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(f"expected an integer >= {minimum}{why}")
        return value

    return cast


def _choice(*options: str):
    def cast(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw

    return cast


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
    for section in parser.sections():
        if section not in ("market", "broker", "mlp", "sweep") and not section.startswith("agent "):
            raise ConfigError(section, "-", "unknown section")
    return parser


def _reject_unread(parser: configparser.ConfigParser, read: set, sections) -> None:
    for section in sections:
        for key in parser.options(section):
            if (section, key) not in read:
                raise ConfigError(section, key, "unknown key")


def parse_config(text: str) -> MarketConfig:
    """Parse config text; raises ConfigError with a section/key diagnostic."""
    parser = _read(text)
    read = set()
    if not parser.has_section("market"):
        raise ConfigError("market", "-", "missing [market] section")
    market = _reader(parser, "market", read)
    linear = market("model", _choice("linear", "mlp"), default="linear") == "linear"
    gain_kind = market("gain_kind", GainKind, required=True)

    agent_sections = [s for s in parser.sections() if s.startswith("agent ")]
    if len(agent_sections) < 2:
        raise ConfigError("agent <id>", "-", "need at least two [agent <id>] sections")
    min_n = 1 if linear else 2  # two_moons draws a point of each class

    mlp_spec = None
    if not linear:
        m = _reader(parser, "mlp", read)
        hidden = m("hidden", _widths, default=(16, 16, 16))
        mlp_spec = MlpMarketSpec(
            hidden=hidden,
            data_noise=m("data_noise", _non_negative, default=0.15),
            layer_set=m("layer_set", _layer_set(len(hidden)), default=None),
        )

    agents = []
    for section in sorted(agent_sections):
        agent_id = section.split(" ", 1)[1].strip()
        if not agent_id:
            raise ConfigError(section, "-", "empty agent id")
        a = _reader(parser, section, read)
        if linear:
            kind_keys = dict(
                dim=a("dim", _count(1), required=True),
                noise_variance=a("noise", _non_negative, default=0.0),
                theta_offset=a("theta_offset", _non_negative, default=0.0),
            )
        else:
            kind_keys = dict(
                dim=0,
                favored_classes=a("favored", _favored, default=()),
                deprived_fraction=a("deprived_fraction", _fraction, default=1.0),
            )
        agents.append(
            AgentSpec(
                agent_id=agent_id,
                n_samples=a("n", _count(min_n), required=True),
                policy=a("policy", Policy.parse, default=Policy.parse("trade-when-beneficial")),
                step_size=a("step_size", _step_size, default=None),
                **kind_keys,
            )
        )

    if not parser.has_section("broker"):
        raise ConfigError("broker", "-", "missing [broker] section")
    b = _reader(parser, "broker", read)
    # A linear broker draws at least one validation sample per agent.
    broker_min = _count(len(agents), " (one per agent)") if linear else _count(min_n)
    broker = BrokerSpec(
        n_samples=b("n", broker_min, required=True),
        **({"noise_variance": b("noise", _non_negative, default=0.0)} if linear else {}),
    )

    # MarketConfig's cross-key rules raise ConfigError naming the key at fault.
    cfg = MarketConfig(
        seed=market("seed", _count(0), required=True),
        rounds=market("rounds", _count(1), required=True),
        gain_kind=gain_kind,
        agents=tuple(agents),
        broker=broker,
        trade_every=market("trade_every", _count(1), default=1),
        trade_start=market("trade_start", _count(1), default=1),
        pricing=market("pricing", _bool, default=False),
        seller_pricing=market(
            "seller_pricing", _choice("myerson", "lower-bound"), default="myerson"
        ),
        convergence_epsilon=market("convergence_epsilon", _positive, default=None),
        mlp=mlp_spec,
    )
    # The [sweep] keys are left to parse_sweep.
    _reject_unread(parser, read, [s for s in parser.sections() if s != "sweep"])
    return cfg


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("-", "-", f"{path} is not UTF-8 text: {exc}") from exc


def load_config(path: str) -> MarketConfig:
    return parse_config(_read_file(path))


# Cell parser per sweep axis; the distance and layers axes check cells against
# the base market.
_SWEEP_CELLS = {"endowment": _fraction, "frequency": _count(1), "start": _count(1)}
_SWEEP_AXES = ("distance", *_SWEEP_CELLS, "layers")


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep config: its base market plus one [sweep] axis of distinct cells."""
    parser = _read(text)
    if not parser.has_section("sweep"):
        raise ConfigError("sweep", "-", "missing [sweep] section")
    read = set()
    s = _reader(parser, "sweep", read)
    axis = s("axis", str, required=True)
    if axis not in _SWEEP_AXES:
        raise ConfigError("sweep", "axis", f"expected one of {_SWEEP_AXES}, got {axis!r}")
    raw_values = s("values", str, required=True)
    cells = tuple(v.strip() for v in raw_values.split("|") if v.strip() != "")
    if not cells:
        raise ConfigError("sweep", "values", "no cells given (separate cells with '|')")
    seeds = s("seeds", _count(1), default=5)
    base = parse_config(text)
    _reject_unread(parser, read, ["sweep"])
    if axis in ("distance", "endowment") and base.mlp is not None:
        raise ConfigError("sweep", "axis", f"the {axis} axis needs a linear market (model = linear)")
    if axis == "distance":
        cell = _theta_offset(base.gain_kind)
    elif axis != "layers":
        cell = _SWEEP_CELLS[axis]
    elif base.mlp is None:
        raise ConfigError("sweep", "axis", "the layers axis needs an mlp market (model = mlp)")
    else:
        cell = _layer_set(len(base.mlp.hidden))
    values, seen = [], {}
    for raw in cells:
        try:
            value = cell(raw)
        except ValueError as exc:
            raise ConfigError("sweep", "values", f"cannot parse cell {raw!r}: {exc}") from exc
        # Layer sets are equal when they name the same layers; all names every layer.
        key = frozenset(value or range(len(base.mlp.hidden) + 1)) if axis == "layers" else value
        if key in seen:
            raise ConfigError("sweep", "values", f"cell {raw!r} repeats cell {seen[key]!r}")
        seen[key] = raw
        values.append(value)
    return SweepSpec(axis=axis, values=tuple(values), seeds=seeds, base=base)


def load_sweep(path: str) -> SweepSpec:
    return parse_sweep(_read_file(path))
