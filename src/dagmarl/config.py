"""Experiment configuration: flat key = value files with section headers.

Sections: [run] (mode/seed/episodes/out), [env] (name plus environment
options), [agents] (goal dimension, state-flow stride, leader/distributor
switches), [ppo] (optimizer knobs), and optionally [dag] (node names and
arcs as name pairs, consumed by the micro environment as a node count and
index arcs; the names serve only to resolve the arcs).  Unknown sections,
[DEFAULT] among them, or keys fail loudly, and so does a file that does not
parse or a value that does not parse as the type of its default.  An [env]
key is a parameter of the named environment's constructor, and its default
is that parameter's default.  Command-line flags override file values.

``load_config`` reads this grammar and ``dump_config`` writes it, so the
config.ini that ``train`` records in a run directory reads back as the
config that trained the run.
"""

from __future__ import annotations

import configparser
import enum
import inspect
from dataclasses import dataclass, field, fields, replace

from .ppo import PpoConfig


class ConfigError(ValueError):
    pass


class RunMode(enum.Enum):
    GS = "gs"  # one global agent, joint action head
    SRM = "srm"  # independent learners on equal team-reward shares
    LFM = "lfm"  # SRM plus goal-issuing leader
    RFM = "rfm"  # SRM plus synthetic-reward generator/distributor
    PROPOSED = "proposed"  # leader and generator/distributor together
    DIFF_M = "diff-m"  # counterfactual difference rewards
    CAP_M = "cap-m"  # potential-based shaping on difference rewards

    @classmethod
    def parse(cls, text: str) -> "RunMode":
        key = text.strip().lower().replace("_", "-")
        for mode in cls:
            if mode.value == key:
                return mode
        raise ConfigError(f"unknown mode {text!r}; pick from "
                          f"{[m.value for m in cls]}")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: RunMode = RunMode.SRM
    env_name: str = "factory"
    env_options: dict = field(default_factory=dict)
    seed: int = 0
    episodes: int = 100
    goal_dim: int = 4
    flow_stride: int = 3
    disable_leader: bool = False
    disable_rgd: bool = False
    out_dir: str | None = None
    ppo: PpoConfig = field(default_factory=PpoConfig)

    def __post_init__(self):
        if self.episodes < 0 or self.seed < 0:
            raise ConfigError("episodes and seed must be non-negative")
        if self.goal_dim < 1 or self.flow_stride < 1:
            raise ConfigError("goal_dim and flow_stride must be >= 1")


def _typed(section: str, key: str, default, text: str):
    """Parses ``text`` as the type of the key's default value."""
    text = text.strip()
    if isinstance(default, RunMode):
        return RunMode.parse(text)
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if isinstance(default, tuple):
            return tuple(int(h) for h in text.split(","))
        return type(default)(text)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value {text!r} for {key!r} in "
                          f"[{section}]") from None


def _read(parser, section: str, defaults: dict) -> dict:
    """The keys set in ``section``, each parsed as the type of its default."""
    if not parser.has_section(section):
        return {}
    values = {}
    for key, text in parser[section].items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        values[key] = _typed(section, key, defaults[key], text)
    return values


def _env_defaults(name: str) -> dict:
    """``name`` plus every int, float or str parameter of the environment's
    constructor, with its default."""
    from .envs import env_builder

    params = inspect.signature(env_builder(name)).parameters.values()
    return {"name": name} | {p.name: p.default for p in params
                             if isinstance(p.default, (int, float, str))}


# [run] out sets out_dir, whose default is None, so it parses as a string
_RUN_DEFAULTS = {"mode": ExperimentConfig.mode, "seed": ExperimentConfig.seed,
                 "episodes": ExperimentConfig.episodes, "out": ""}
_AGENT_DEFAULTS = {key: getattr(ExperimentConfig, key) for key in (
    "goal_dim", "flow_stride", "disable_leader", "disable_rgd")}
_PPO_DEFAULTS = {f.name: f.default for f in fields(PpoConfig)}


def _parse_dag_section(section) -> dict:
    if "nodes" not in section:
        raise ConfigError("[dag] needs a nodes entry")
    names = [n.strip() for n in section["nodes"].split(",")]
    if "" in names:
        raise ConfigError(f"[dag] nodes {section['nodes']!r} has an empty "
                          f"name at entry {names.index('') + 1}")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ConfigError("[dag] node names must be unique")
    arcs = []
    text = section.get("arcs", "")
    for pair in (text.split(",") if text.strip() else []):
        pair = pair.strip()
        if "->" not in pair:
            raise ConfigError(f"[dag] arc {pair!r} must look like a->b")
        a, b = (p.strip() for p in pair.split("->", 1))
        if a not in index or b not in index:
            raise ConfigError(f"[dag] arc {pair!r} references unknown node")
        if (index[a], index[b]) in arcs:
            raise ConfigError(f"[dag] arc {pair!r} is listed twice")
        arcs.append((index[a], index[b]))
    for key in section:
        if key not in ("nodes", "arcs"):
            raise ConfigError(f"unknown key {key!r} in [dag]")
    return {"nodes": len(names), "arcs": tuple(arcs)}


def load_config(path) -> ExperimentConfig:
    # no default section, so [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as err:
            # the message names the file and may span several lines
            raise ConfigError(" ".join(str(err).split())) from None

    known = {"run", "env", "agents", "ppo", "dag"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")

    run = _read(parser, "run", _RUN_DEFAULTS)
    if "out" in run:
        run["out_dir"] = run.pop("out")
    env_name = parser.get("env", "name",
                          fallback=ExperimentConfig.env_name).strip()
    env_options = _read(parser, "env", _env_defaults(env_name))
    env_options.pop("name", None)
    if parser.has_section("dag"):
        env_options.update(_parse_dag_section(parser["dag"]))
    agents = _read(parser, "agents", _AGENT_DEFAULTS)
    ppo_values = _read(parser, "ppo", _PPO_DEFAULTS)
    try:
        ppo = PpoConfig(**ppo_values)
    except ValueError as err:
        raise ConfigError(f"bad [ppo] values: {err}") from None
    return ExperimentConfig(env_name=env_name, env_options=env_options,
                            ppo=ppo, **run, **agents)


def _text(value) -> str:
    """``value`` as ``_typed`` reads it back: the mode by its value, a tuple
    as ``a, b``, and a float by its repr (which str gives), so exactly."""
    if isinstance(value, RunMode):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def dump_config(config: ExperimentConfig) -> str:
    """``config`` as a file that ``load_config`` reads back equal to it, less
    ``out_dir``: every [run], [agents] and [ppo] key, the environment's name
    and options, and micro arcs as a [dag] over the nodes n0, n1, ..."""
    env = dict(config.env_options)
    sections = {
        "run": {key: getattr(config, key) for key in _RUN_DEFAULTS
                if key != "out"},
        "env": {"name": config.env_name},
        "agents": {key: getattr(config, key) for key in _AGENT_DEFAULTS},
        "ppo": {key: getattr(config.ppo, key) for key in _PPO_DEFAULTS},
    }
    if "arcs" in env:
        # a config built in Python may leave the node count at its default
        nodes = env.pop("nodes", _env_defaults(config.env_name)["nodes"])
        sections["dag"] = {
            "nodes": tuple(f"n{i}" for i in range(nodes)),
            "arcs": ", ".join(f"n{a}->n{b}" for a, b in env.pop("arcs"))}
    sections["env"].update(sorted(env.items()))
    lines = []
    for name, values in sections.items():
        lines += [f"[{name}]", *(f"{key} = {_text(value)}"
                                 for key, value in values.items()), ""]
    return "\n".join(lines)


def apply_overrides(config: ExperimentConfig, mode=None, seed=None,
                    episodes=None, out=None) -> ExperimentConfig:
    """Command-line values win over file values."""
    updates = {}
    if mode is not None:
        updates["mode"] = RunMode.parse(mode)
    if seed is not None:
        updates["seed"] = int(seed)
    if episodes is not None:
        updates["episodes"] = int(episodes)
    if out is not None:
        updates["out_dir"] = str(out)
    return replace(config, **updates) if updates else config
