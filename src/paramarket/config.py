"""Run-config files: a flat keyed text format parsed into MarketConfig, and its echo.

The format is INI-style with one ``[market]`` section, one ``[broker]``
section, one ``[agent <id>]`` section per agent, and optional ``[mlp]`` and
``[sweep]`` sections. Keys are case-sensitive; any other section, and any key
the parser does not read, is an error. Each market kind reads only the keys
it acts on, so a linear-only key in a neural market (and the reverse) is an
unknown key too. See README for the schema and the bundled example configs.

Each section's keys are declared once, as ``(key, field, reader)`` rows: the
parser reads a file through them and `config_echo` writes a market back in the
file's words for ``summary.json``. A key a file omits takes its field's
default in the config dataclass; a field without a default is required.

The parser only reads text into types and checks what is about the file
itself: its sections and keys, the market kind, agent ids, which sweep axis
needs which kind, and repeated sweep cells. Every rule on a value lives in
`engine.MarketConfig`, which raises ConfigError naming the key at fault; a
sweep cell is checked by building the market it runs (`cell_config`).
"""

import configparser
from dataclasses import MISSING, dataclass, field, fields, replace

from .broker import GainKind
from .engine import AgentSpec, BrokerSpec, ConfigError, MarketConfig, MlpMarketSpec, Policy
from .mlp import ALIGN_SWEEPS, MOONS_CLASSES, MOONS_FEATURES, MOONS_NOISE

__all__ = ["ConfigError", "SweepSpec", "cell_config", "config_echo", "load_config", "load_sweep", "parse_config"]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: cells (pipe-separated in the file) times seed count."""

    axis: str
    values: tuple
    seeds: int = 5
    base: MarketConfig = field(kw_only=True)

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError("sweep", "seeds", f"must be >= 1, got {self.seeds}")


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected on/off, got {raw!r}") from None


def _int_list(raw: str) -> tuple:
    """A comma list of integers; an empty value is the empty list."""
    if raw == "":
        return ()
    entries = raw.split(",")
    if any(v.strip() == "" for v in entries):
        raise ValueError(f"empty entry in comma list {raw!r}")
    return tuple(int(v) for v in entries)


def _layer_set(raw: str):
    return None if raw == "all" else _int_list(raw)


def _step_size(raw: str):
    return None if raw == "auto" else float(raw)


# Each section's keys as (file key, config field, reader), in reading order.
_MARKET = (
    ("seed", "seed", int), ("rounds", "rounds", int), ("gain_kind", "gain_kind", GainKind),
    ("trade_every", "trade_every", int), ("trade_start", "trade_start", int), ("pricing", "pricing", _bool),
    ("seller_pricing", "seller_pricing", str), ("convergence_epsilon", "convergence_epsilon", float),
)
_BROKER = (("n", "n_samples", int),)
_MLP = (("hidden", "hidden", _int_list), ("layer_set", "layer_set", _layer_set))
# An agent section reads its market kind's own keys first, then the shared ones.
_AGENT = (("n", "n_samples", int), ("policy", "policy", Policy.parse), ("step_size", "step_size", _step_size))
_LINEAR_AGENT = (("dim", "dim", int), ("noise", "noise_variance", float), ("theta_offset", "theta_offset", float))
_MLP_AGENT = (("favored", "favored_classes", _int_list), ("deprived_fraction", "deprived_fraction", float))

# A value in the file's words, per reader; any other reader's value is its own word.
_WORDS = {
    _bool: lambda on: "on" if on else "off",
    _int_list: list,
    _layer_set: lambda layers: "all" if layers is None else list(layers),
    _step_size: lambda step: "auto" if step is None else step,
    GainKind: lambda kind: kind.value,
    Policy.parse: lambda policy: policy.kind.value + (f":{policy.delay}" if policy.delay else ""),
}


def _section(parser: configparser.ConfigParser, section: str, rows, cls, read: set) -> dict:
    """``{field: value}`` for the keys of ``rows`` that ``section`` sets, each marked as read.

    An omitted key keeps its field's default in dataclass ``cls``; one whose field has none is required.
    """
    required = {f.name for f in fields(cls) if f.default is MISSING}
    values = {}
    for key, name, reader in rows:
        read.add((section, key))
        if not parser.has_option(section, key):
            if name in required:
                raise ConfigError(section, key, "required key is missing")
            continue
        raw = parser.get(section, key).strip()
        try:
            values[name] = reader(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(section, key, f"cannot parse {raw!r}: {exc}") from exc
    return values


def _echo(obj, rows, **fixed) -> dict:
    """``fixed`` plus each row's value on ``obj`` by file key, in the file's words.

    A None that has no word (an unset epsilon) is left out.
    """
    words = {key: _WORDS.get(reader, lambda value: value)(getattr(obj, name)) for key, name, reader in rows}
    return fixed | {key: word for key, word in words.items() if word is not None}


def config_echo(cfg: MarketConfig) -> dict:
    """The market as its config file states it, for ``summary.json``.

    An mlp market's agents echo the linear keys too, at the values it requires. The fixed conventions
    (loss, zero start, broker noise, moons data, alignment sweep cap) stay, so every summary keeps its keys.
    """
    echo = _echo(cfg, _MARKET, model=cfg.model, loss="mean-per-sample", init="zeros")
    echo["broker"] = _echo(cfg.broker, _BROKER, noise=0.0)
    agent_rows = _AGENT + _LINEAR_AGENT + (_MLP_AGENT if cfg.mlp is not None else ())
    echo["agents"] = {a.agent_id: _echo(a, agent_rows) for a in cfg.agents}
    if cfg.mlp is not None:
        echo["mlp"] = _echo(cfg.mlp, _MLP, input_dim=MOONS_FEATURES, n_classes=MOONS_CLASSES,
                            data_noise=MOONS_NOISE, align_sweeps=ALIGN_SWEEPS)
    if cfg.endowment is not None:
        echo["endowment"] = cfg.endowment
    return echo


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
    read = {("market", "model")}
    if not parser.has_section("market"):
        raise ConfigError("market", "-", "missing [market] section")
    model = parser.get("market", "model", fallback="linear").strip()
    if model not in ("linear", "mlp"):
        raise ConfigError("market", "model", f"expected linear or mlp, got {model!r}")
    mlp_spec = None if model == "linear" else MlpMarketSpec(**_section(parser, "mlp", _MLP, MlpMarketSpec, read))

    # An mlp agent reads no dim; its market requires 0.
    kind_rows, kind_values = (_LINEAR_AGENT, {}) if mlp_spec is None else (_MLP_AGENT, {"dim": 0})
    agents = []
    for section in sorted(s for s in parser.sections() if s.startswith("agent ")):
        agent_id = section.split(" ", 1)[1].strip()
        if not agent_id:
            raise ConfigError(section, "-", "empty agent id")
        values = _section(parser, section, kind_rows + _AGENT, AgentSpec, read)
        agents.append(AgentSpec(agent_id=agent_id, **kind_values, **values))

    if not parser.has_section("broker"):
        raise ConfigError("broker", "-", "missing [broker] section")
    broker = BrokerSpec(**_section(parser, "broker", _BROKER, BrokerSpec, read))
    settings = _section(parser, "market", _MARKET, MarketConfig, read)
    # The [sweep] keys are left to parse_sweep.
    _reject_unread(parser, read, [s for s in parser.sections() if s != "sweep"])
    # MarketConfig's rules raise ConfigError naming the key at fault.
    return MarketConfig(agents=tuple(agents), broker=broker, mlp=mlp_spec, **settings)


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("-", "-", f"{path} is not UTF-8 text: {exc}") from exc


def load_config(path: str) -> MarketConfig:
    return parse_config(_read_file(path))


# Cell reader per sweep axis; `cell_config` checks each cell as the market it runs.
_SWEEP_CELLS = {"distance": float, "endowment": float, "frequency": int, "start": int, "layers": _layer_set}


def cell_config(base: MarketConfig, axis: str, value) -> MarketConfig:
    """The market one sweep cell runs: ``base`` with ``value`` on ``axis``.

    An endowment cell is ``base`` whose agents each keep the fraction
    ``value`` of one shared data pool (`MarketConfig.endowment`).
    """
    if axis == "distance":
        # Sweep the gap between the first agent's task and everyone else's.
        first, *rest = base.agents
        return replace(base, agents=(first, *(replace(a, theta_offset=float(value)) for a in rest)))
    if axis == "frequency":
        return replace(base, trade_every=int(value))
    if axis == "start":
        return replace(base, trade_start=int(value))
    if axis == "layers":
        return replace(base, mlp=replace(base.mlp, layer_set=value))
    if axis == "endowment":
        return replace(base, endowment=float(value))
    raise ValueError(f"unknown sweep axis {axis!r}")


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep config: its base market plus one [sweep] axis of distinct cells."""
    parser = _read(text)
    if not parser.has_section("sweep"):
        raise ConfigError("sweep", "-", "missing [sweep] section")
    read = set()
    # One key at a time, so each is checked before the next is read.
    sweep_key = lambda key, reader: _section(parser, "sweep", [(key, key, reader)], SweepSpec, read)  # noqa: E731
    axis = sweep_key("axis", str)["axis"]
    if axis not in _SWEEP_CELLS:
        raise ConfigError("sweep", "axis", f"expected one of {tuple(_SWEEP_CELLS)}, got {axis!r}")
    raw_values = sweep_key("values", str)["values"]
    cells = tuple(v.strip() for v in raw_values.split("|") if v.strip() != "")
    if not cells:
        raise ConfigError("sweep", "values", "no cells given (separate cells with '|')")
    seeds = sweep_key("seeds", int)
    base = parse_config(text)
    _reject_unread(parser, read, ["sweep"])
    if axis in ("distance", "endowment") and base.mlp is not None:
        raise ConfigError("sweep", "axis", f"the {axis} axis needs a linear market (model = linear)")
    if axis == "layers" and base.mlp is None:
        raise ConfigError("sweep", "axis", "the layers axis needs an mlp market (model = mlp)")
    values, seen = [], {}
    for raw in cells:
        try:
            value = _SWEEP_CELLS[axis](raw)
            cell_config(base, axis, value)
        except ValueError as exc:  # ConfigError included: a market rule names its own key
            why = str(exc).removeprefix("[sweep] values: ")
            raise ConfigError("sweep", "values", f"cannot parse cell {raw!r}: {why}") from exc
        # Layer sets are equal when they name the same layers; all names every layer.
        key = frozenset(value or range(len(base.mlp.hidden) + 1)) if axis == "layers" else value
        if key in seen:
            raise ConfigError("sweep", "values", f"cell {raw!r} repeats cell {seen[key]!r}")
        seen[key] = raw
        values.append(value)
    return SweepSpec(axis=axis, values=tuple(values), base=base, **seeds)


def load_sweep(path: str) -> SweepSpec:
    return parse_sweep(_read_file(path))
