"""Market settings: the config classes, every rule on their values, and the config file format.

`MarketConfig` and its specs hold every market setting, and `MarketConfig`
checks every rule on them when it is built, raising ConfigError naming the
config file's section and key at fault. A config file, a config built in code
and a sweep cell are checked alike.

The file format is INI-style with one ``[market]`` section, one ``[broker]``
section, one ``[agent <id>]`` section per agent, and optional ``[mlp]`` and
``[sweep]`` sections. Keys are case-sensitive; any other section, and any key
the parser does not read, is an error. Each market kind reads only the keys
it acts on, so a linear-only key in a neural market (and the reverse) is an
unknown key too. See README for the schema and the bundled example configs.

Each section's keys are declared once, as ``(key, field, reader)`` rows: the
parser reads a file through them and `config_echo` writes a market back in the
file's words for ``summary.json``. A key a file omits takes its field's
default in the config dataclass; a field without a default is required. A
kind-only agent row adds the value the other kind's market requires.

A config text is read once, into its market and its ``[sweep]``, if any. The
parser checks only what is about the file itself: its sections and keys, the
market kind, agent ids and repeated sweep cells. A sweep cell is checked by
building the market it runs (`cell_config`), its axis's market kind included.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum

from .broker import GainKind
from .mlp import ALIGN_SWEEPS, MOONS_CLASSES, MOONS_FEATURES, MOONS_NOISE

__all__ = [
    "ConfigError", "PolicyKind", "Policy", "AgentSpec", "BrokerSpec", "MlpMarketSpec", "MarketConfig",
    "SweepSpec", "cell_config", "config_echo", "load_config", "load_sweep", "parse_config", "parse_sweep",
]


class ConfigError(ValueError):
    """A malformed config or market setting, with its section and key attached."""

    def __init__(self, section: str, key: str, message: str):
        self.section = section
        self.key = key
        super().__init__(f"[{section}] {key}: {message}")


class PolicyKind(Enum):
    TRADE_WHEN_BENEFICIAL = "trade-when-beneficial"
    NEVER_TRADE = "never-trade"
    ALWAYS_TRADE = "always-trade"
    ASYNCHRONOUS = "asynchronous"
    FEDAVG = "fedavg"


@dataclass(frozen=True)
class Policy:
    """Buying behavior plus an optional start delay (asynchronous trading)."""

    kind: PolicyKind
    delay: int = 0

    @staticmethod
    def parse(text: str) -> "Policy":
        text = text.strip()
        if text.startswith("asynchronous:"):
            return Policy(PolicyKind.ASYNCHRONOUS, delay=int(text.split(":", 1)[1]))
        return Policy(PolicyKind(text))


@dataclass(frozen=True)
class AgentSpec:
    """Declarative description of one agent; the engine builds state from it."""

    agent_id: str
    dim: int  # linear only
    n_samples: int
    noise_variance: float = 0.0  # linear only
    policy: Policy = Policy(PolicyKind.TRADE_WHEN_BENEFICIAL)
    step_size: float | None = None  # None: 0.9 / smoothness of the training loss
    theta_offset: float = 0.0  # linear only: distance of this agent's truth from the shared base
    favored_classes: tuple = ()  # mlp only: classes kept in full
    deprived_fraction: float = 1.0  # mlp only: fraction kept of the other classes


@dataclass(frozen=True)
class BrokerSpec:
    n_samples: int


@dataclass(frozen=True)
class MlpMarketSpec:
    """Network shape and traded layers for neural markets."""

    hidden: tuple = (16, 16, 16)
    layer_set: tuple | None = None  # None trades every layer


@dataclass(frozen=True)
class MarketConfig:
    seed: int
    rounds: int
    gain_kind: GainKind
    agents: tuple
    broker: BrokerSpec
    trade_every: int = 1
    trade_start: int = 1
    pricing: bool = False
    convergence_epsilon: float | None = None
    mlp: MlpMarketSpec | None = None  # None: a linear market
    # Seller-side ask in competitive rounds: the Bayesian-optimal price on the
    # gain interval, or its lower endpoint (trades settle whenever beneficial).
    seller_pricing: str = "myerson"
    # Linear only, set by an endowment sweep cell: each agent keeps this
    # fraction of one shared data pool. None: each agent draws its own task.
    endowment: float | None = None

    def __post_init__(self):
        # Every rule of every setting lives here and names the config file's
        # section and key, so a market built in code (or by
        # dataclasses.replace) fails like a file that sets the same value.
        # Messages are formatted only on failure: every twin run builds one.
        if self.seed < 0:
            raise ConfigError("market", "seed", f"must be an integer >= 0, got {self.seed}")
        for key in ("rounds", "trade_every", "trade_start"):
            if getattr(self, key) < 1:
                raise ConfigError("market", key, f"must be >= 1, got {getattr(self, key)}")
        eps = self.convergence_epsilon
        if eps is not None and not 0 < eps < math.inf:
            raise ConfigError("market", "convergence_epsilon", f"must be finite and > 0, got {eps}")
        if self.seller_pricing not in ("myerson", "lower-bound"):
            raise ConfigError("market", "seller_pricing",
                              f"must be 'myerson' or 'lower-bound', got {self.seller_pricing!r}")
        mlp = self.model == "mlp"
        pooled = self.endowment is not None
        if pooled and not 0 < self.endowment <= 1:
            raise ConfigError("sweep", "values", f"an endowment fraction must lie in (0, 1], got {self.endowment}")
        if mlp:
            spec = self.mlp
            if not all(w >= 1 for w in spec.hidden):
                raise ConfigError("mlp", "hidden", f"expected hidden widths >= 1, got {spec.hidden}")
            layers, n_hidden = spec.layer_set, len(spec.hidden)  # weight layers 0..n_hidden
            if layers is not None and not (
                layers and len(set(layers)) == len(layers) and all(0 <= i <= n_hidden for i in layers)
            ):
                raise ConfigError("mlp", "layer_set", "expected all or a non-empty list of distinct "
                                                      f"layer indices in [0, {n_hidden}], got {layers}")
        if len(self.agents) < 2:
            raise ConfigError("agent <id>", "-", "a market needs at least two agents")
        ids = [a.agent_id for a in self.agents]
        # Each market kind ignores the other kind's agent settings, so they
        # must keep the values their rows require.
        other = _LINEAR_AGENT if mlp else _MLP_AGENT
        unused = [("sweep", "endowment", "axis", self.endowment, None)] if mlp else []
        min_n = 2 if mlp else 1  # two_moons draws a point of each class
        for a in self.agents:
            section = f"agent {a.agent_id}"
            if ids.count(a.agent_id) > 1:
                raise ConfigError(section, "-", f"duplicate agent id {a.agent_id!r}")
            if any(c in a.agent_id for c in ',"\r\n'):  # the CSV files write ids as bare fields
                raise ConfigError(section, "-", f"an agent id may not hold a comma, a double quote "
                                                f"or a line break, got {a.agent_id!r}")
            if a.n_samples < min_n:
                raise ConfigError(section, "n", f"must be >= {min_n}, got {a.n_samples}")
            if a.step_size is not None and not 0 < a.step_size < math.inf:
                raise ConfigError(section, "step_size", f"must be auto or finite and > 0, got {a.step_size}")
            if a.policy.delay < 0:
                raise ConfigError(section, "policy", f"a delay must be >= 0, got {a.policy.delay}")
            if a.policy.delay > 0 and a.policy.kind is not PolicyKind.ASYNCHRONOUS:
                raise ConfigError(section, "policy", "only the asynchronous policy takes a delay")
            if mlp:
                favored, classes = a.favored_classes, MOONS_CLASSES
                if len(set(favored)) < len(favored) or not all(0 <= c < classes for c in favored):
                    raise ConfigError(section, "favored",
                                      f"expected distinct class indices in [0, {classes - 1}], got {favored}")
                if not 0 < a.deprived_fraction <= 1:
                    raise ConfigError(section, "deprived_fraction",
                                      f"expected a fraction in (0, 1], got {a.deprived_fraction}")
            else:
                if a.dim < 1:
                    raise ConfigError(section, "dim", f"must be >= 1, got {a.dim}")
                if a.dim != self.agents[0].dim:
                    raise ConfigError(section, "dim", "all agents must share one parameter dimension")
                if not 0 <= a.noise_variance < math.inf:
                    raise ConfigError(section, "noise", f"must be finite and >= 0, got {a.noise_variance}")
                offset = a.theta_offset
                if not 0 <= offset < math.inf:
                    raise ConfigError(section, "theta_offset", f"must be finite and >= 0, got {offset}")
                if offset > 0 and self.gain_kind is GainKind.ERROR_RATIO:
                    raise ConfigError(section, "theta_offset", "expected 0: the error-ratio gain "
                                                               "needs one shared true parameter vector")
                if pooled:  # the agents split one pool: one n, one noise, one truth
                    first = self.agents[0]
                    for field, key in (("n_samples", "n"), ("noise_variance", "noise")):
                        if getattr(a, field) != getattr(first, field):
                            raise ConfigError(section, key, "an endowment cell's agents share one data "
                                                            f"pool, so must equal agent {first.agent_id}'s")
                    if offset > 0:
                        raise ConfigError(section, "theta_offset", "expected 0: an endowment cell's "
                                                                   "agents share one task")
            unused += [(section, field, key, getattr(a, field), v) for key, field, _, v in other]
        for section, field, key, value, default in unused:
            if value != default:
                raise ConfigError(section, key, f"{section} {field} is ignored by the {self.model} market")
        # A linear broker draws at least one validation sample per agent.
        n_min = 2 if mlp else len(self.agents)
        if self.broker.n_samples < n_min:
            raise ConfigError("broker", "n", f"must be >= {n_min}{'' if mlp else ' (one per agent)'}, "
                                             f"got {self.broker.n_samples}")
        if mlp and self.gain_kind is not GainKind.LOSS_DIFFERENCE:
            raise ConfigError("market", "gain_kind",
                              "neural markets have no known true parameters; use loss-difference gain")
        if self.pricing and self.gain_kind is not GainKind.ERROR_RATIO:
            raise ConfigError("market", "pricing",
                              "competitive pricing builds on the error-ratio gain of the linear market")
        fedavg = [a.policy.kind is PolicyKind.FEDAVG for a in self.agents]
        if any(fedavg):
            if self.pricing:
                raise ConfigError("market", "pricing", "the fedavg baseline runs without pricing")
            if not all(fedavg) or len(ids) != 2 or mlp:
                u = ids[fedavg.index(False)] if not all(fedavg) else ids[0]
                raise ConfigError(f"agent {u}", "policy",
                                  "fedavg is a market-wide baseline of exactly two linear agents")

    @property
    def model(self) -> str:
        return "linear" if self.mlp is None else "mlp"




@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: cells (pipe-separated in the file) times seed count."""

    axis: str
    values: tuple
    seeds: int = 5
    base: MarketConfig = field(kw_only=True)

    def __post_init__(self):
        if not self.values:
            raise ConfigError("sweep", "values", "no cells given (separate cells with '|')")
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


# Each section's keys as (file key, config field, reader), in reading order; a
# kind-only agent row adds the value the other kind's market requires.
_MARKET = (
    ("seed", "seed", int), ("rounds", "rounds", int), ("gain_kind", "gain_kind", GainKind),
    ("trade_every", "trade_every", int), ("trade_start", "trade_start", int), ("pricing", "pricing", _bool),
    ("seller_pricing", "seller_pricing", str), ("convergence_epsilon", "convergence_epsilon", float),
)
_BROKER = (("n", "n_samples", int),)
_MLP = (("hidden", "hidden", _int_list), ("layer_set", "layer_set", _layer_set))
# An agent section reads its market kind's own keys first, then the shared ones.
_AGENT = (("n", "n_samples", int), ("policy", "policy", Policy.parse), ("step_size", "step_size", _step_size))
_LINEAR_AGENT = (("dim", "dim", int, 0), ("noise", "noise_variance", float, 0.0),
                 ("theta_offset", "theta_offset", float, 0.0))
_MLP_AGENT = (("favored", "favored_classes", _int_list, ()), ("deprived_fraction", "deprived_fraction", float, 1.0))

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
    for key, name, reader, *_ in rows:
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
    words = {key: _WORDS.get(reader, lambda value: value)(getattr(obj, name)) for key, name, reader, *_ in rows}
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


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("-", "-", f"{path} is not UTF-8 text: {exc}") from exc


def load_config(path: str) -> MarketConfig:
    return parse_config(_read_file(path))


# Per sweep axis: its cell reader, the market kind it needs (None: either) and the market a cell runs.
_AXES = {
    # Sweep the gap between the first agent's task and everyone else's.
    "distance": (float, "linear", lambda base, v: replace(
        base, agents=(base.agents[0], *(replace(a, theta_offset=float(v)) for a in base.agents[1:])))),
    # Each agent keeps the fraction v of one shared data pool (`MarketConfig.endowment`).
    "endowment": (float, "linear", lambda base, v: replace(base, endowment=float(v))),
    "frequency": (int, None, lambda base, v: replace(base, trade_every=int(v))),
    "start": (int, None, lambda base, v: replace(base, trade_start=int(v))),
    "layers": (_layer_set, "mlp", lambda base, v: replace(base, mlp=replace(base.mlp, layer_set=v))),
}


def _axis(base: MarketConfig, axis: str) -> tuple:
    """The `_AXES` row of ``axis``; ConfigError naming ``[sweep] axis`` when ``base`` is of the other kind."""
    if axis not in _AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    kind = _AXES[axis][1]
    if kind not in (None, base.model):
        raise ConfigError("sweep", "axis", f"the {axis} axis needs model = {kind}, got {base.model}")
    return _AXES[axis]


def cell_config(base: MarketConfig, axis: str, value) -> MarketConfig:
    """The market one sweep cell runs: ``base`` with ``value`` on ``axis``."""
    return _axis(base, axis)[2](base, value)


def _parse(text: str) -> tuple:
    """``(market, sweep)`` of a config text, ``sweep`` None without a [sweep] section.

    Raises ConfigError with a section/key diagnostic. The [sweep] keys are
    read first, one at a time, so each is checked before the next is read;
    the sweep cells are checked on the market they run.
    """
    parser = _read(text)
    read = {("market", "model")}
    sweep = parser.has_section("sweep")
    if sweep:
        sweep_key = lambda key, reader: _section(parser, "sweep", [(key, key, reader)], SweepSpec, read)  # noqa: E731
        axis = sweep_key("axis", str)["axis"]
        if axis not in _AXES:
            raise ConfigError("sweep", "axis", f"expected one of {tuple(_AXES)}, got {axis!r}")
        raw_values = sweep_key("values", str)["values"]
        cells = tuple(v.strip() for v in raw_values.split("|") if v.strip() != "")
        seeds = sweep_key("seeds", int)

    if not parser.has_section("market"):
        raise ConfigError("market", "-", "missing [market] section")
    model = parser.get("market", "model", fallback="linear").strip()
    if model not in ("linear", "mlp"):
        raise ConfigError("market", "model", f"expected linear or mlp, got {model!r}")
    mlp_spec = None if model == "linear" else MlpMarketSpec(**_section(parser, "mlp", _MLP, MlpMarketSpec, read))
    # An agent reads its market kind's keys; the other kind's fields take the values its market requires.
    kind_rows, other_rows = (_LINEAR_AGENT, _MLP_AGENT) if mlp_spec is None else (_MLP_AGENT, _LINEAR_AGENT)
    required = {name: value for _, name, _, value in other_rows}
    agents = []
    for section in sorted(s for s in parser.sections() if s.startswith("agent ")):
        agent_id = section.split(" ", 1)[1].strip()
        if not agent_id:
            raise ConfigError(section, "-", "empty agent id")
        values = _section(parser, section, kind_rows + _AGENT, AgentSpec, read)
        agents.append(AgentSpec(agent_id=agent_id, **required, **values))
    if not parser.has_section("broker"):
        raise ConfigError("broker", "-", "missing [broker] section")
    broker = BrokerSpec(**_section(parser, "broker", _BROKER, BrokerSpec, read))
    settings = _section(parser, "market", _MARKET, MarketConfig, read)
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in read:
                raise ConfigError(section, key, "unknown key")
    # MarketConfig's rules raise ConfigError naming the key at fault.
    base = MarketConfig(agents=tuple(agents), broker=broker, mlp=mlp_spec, **settings)
    if not sweep:
        return base, None

    read_cell = _axis(base, axis)[0]
    values, seen = [], {}
    for raw in cells:
        try:
            value = read_cell(raw)
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
    return base, SweepSpec(axis=axis, values=tuple(values), base=base, **seeds)


def parse_config(text: str) -> MarketConfig:
    """Parse config text into its market, checking a [sweep] section too; raises ConfigError."""
    return _parse(text)[0]


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep config: its base market plus one [sweep] axis of distinct cells."""
    sweep = _parse(text)[1]
    if sweep is None:
        raise ConfigError("sweep", "-", "missing [sweep] section")
    return sweep


def load_sweep(path: str) -> SweepSpec:
    return parse_sweep(_read_file(path))
