"""Run-config files: a flat keyed text format parsed into MarketConfig.

The format is INI-style with one ``[market]`` section, one ``[broker]``
section, one ``[agent <id>]`` section per agent, and optional ``[mlp]`` and
``[sweep]`` sections. Keys are case-sensitive; any other section, and any key
the parser does not read, is an error. Each market kind reads only the keys
it acts on, so a linear-only key in a neural market (and the reverse) is an
unknown key too. See README for the schema and the bundled example configs.

The parser only reads text into types and checks what is about the file
itself: its sections and keys, the market kind, agent ids, which sweep axis
needs which kind, and repeated sweep cells. Every rule on a value lives in
`engine.MarketConfig`, which raises ConfigError naming the key at fault; a
sweep cell is checked by building the market it runs (`cell_config`).
"""

import configparser
from dataclasses import dataclass, replace

from .broker import GainKind
from .engine import AgentSpec, BrokerSpec, ConfigError, MarketConfig, MlpMarketSpec, Policy

__all__ = ["ConfigError", "SweepSpec", "cell_config", "load_config", "load_sweep", "parse_config"]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: cells (pipe-separated in the file) times seed count."""

    axis: str
    values: tuple
    seeds: int
    base: MarketConfig

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError("sweep", "seeds", f"must be >= 1, got {self.seeds}")


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
    model = market("model", str, default="linear")
    if model not in ("linear", "mlp"):
        raise ConfigError("market", "model", f"expected linear or mlp, got {model!r}")
    linear = model == "linear"

    mlp_spec = None
    if not linear:
        m = _reader(parser, "mlp", read)
        mlp_spec = MlpMarketSpec(
            hidden=m("hidden", _int_list, default=(16, 16, 16)),
            layer_set=m("layer_set", _layer_set, default=None),
        )

    agents = []
    for section in sorted(s for s in parser.sections() if s.startswith("agent ")):
        agent_id = section.split(" ", 1)[1].strip()
        if not agent_id:
            raise ConfigError(section, "-", "empty agent id")
        a = _reader(parser, section, read)
        if linear:
            kind_keys = dict(
                dim=a("dim", int, required=True),
                noise_variance=a("noise", float, default=0.0),
                theta_offset=a("theta_offset", float, default=0.0),
            )
        else:
            kind_keys = dict(
                dim=0,
                favored_classes=a("favored", _int_list, default=()),
                deprived_fraction=a("deprived_fraction", float, default=1.0),
            )
        agents.append(
            AgentSpec(
                agent_id=agent_id,
                n_samples=a("n", int, required=True),
                policy=a("policy", Policy.parse, default=Policy.parse("trade-when-beneficial")),
                step_size=a("step_size", _step_size, default=None),
                **kind_keys,
            )
        )

    if not parser.has_section("broker"):
        raise ConfigError("broker", "-", "missing [broker] section")
    b = _reader(parser, "broker", read)
    broker = BrokerSpec(n_samples=b("n", int, required=True))
    settings = dict(
        seed=market("seed", int, required=True),
        rounds=market("rounds", int, required=True),
        gain_kind=market("gain_kind", GainKind, required=True),
        trade_every=market("trade_every", int, default=1),
        trade_start=market("trade_start", int, default=1),
        pricing=market("pricing", _bool, default=False),
        seller_pricing=market("seller_pricing", str, default="myerson"),
        convergence_epsilon=market("convergence_epsilon", float, default=None),
    )
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
    s = _reader(parser, "sweep", read)
    axis = s("axis", str, required=True)
    if axis not in _SWEEP_CELLS:
        raise ConfigError("sweep", "axis", f"expected one of {tuple(_SWEEP_CELLS)}, got {axis!r}")
    raw_values = s("values", str, required=True)
    cells = tuple(v.strip() for v in raw_values.split("|") if v.strip() != "")
    if not cells:
        raise ConfigError("sweep", "values", "no cells given (separate cells with '|')")
    seeds = s("seeds", int, default=5)
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
    return SweepSpec(axis=axis, values=tuple(values), seeds=seeds, base=base)


def load_sweep(path: str) -> SweepSpec:
    return parse_sweep(_read_file(path))
