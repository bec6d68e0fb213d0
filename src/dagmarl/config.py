"""Experiment configuration: flat key = value files with section headers.

Sections: [run] (mode/seed/episodes/out), [env] (name plus environment
options), [agents] (goal dimension, state-flow stride, leader/distributor
switches), [ppo] (optimizer knobs), and optionally [dag] (node names and
arcs as name pairs, consumed by the micro environment as a node count and
index arcs; the names serve only to resolve the arcs).  Unknown sections or
keys fail loudly, and so does a value that does not parse as the type of
its default.  An [env] key is a parameter of the named environment's
constructor, and its default is that parameter's default.
Command-line flags override file values.
"""

from __future__ import annotations

import configparser
import enum
import inspect
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

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
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_file(fh)

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


def _tuples(value):
    """``value`` with every JSON list in it, at any depth, made a tuple."""
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _fits(value, default) -> bool:
    """Whether a recorded value has the type of ``default``.  A float also
    takes an int, a None (out_dir) a string, and a tuple (a list in JSON)
    holds items like its first, of the same length when those are tuples."""
    if default is None:
        return value is None or type(value) is str
    if type(default) is tuple:
        item = default[0]
        return type(value) is tuple and all(
            _fits(v, item) and (type(item) is not tuple or len(v) == len(item))
            for v in value)
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


def _check(where: str, defaults: dict, got: dict, partial=False):
    """Fails unless ``got`` has the keys of ``defaults`` (some of them when
    ``partial``), each with a value of its default's type."""
    for key in sorted(got.keys() ^ defaults.keys()):
        if key in got or not partial:
            state = "unknown" if key in got else "missing"
            raise ConfigError(f"{where}: {state} key {key!r}")
    for key, value in got.items():
        if not _fits(value, defaults[key]):
            raise ConfigError(f"{where}: bad value {value!r} for {key!r}")


def read_run_config(path) -> ExperimentConfig:
    """The config that ``dagmarl train`` recorded in the ``config`` block of
    ``path``, a run's ``run_meta.json``.  A missing or unknown key fails, and
    so does a value without the type of its default; the env options are
    those ``load_config`` reads for the recorded environment."""
    try:
        values = _tuples(json.loads(Path(path).read_text())["config"])
        # the record of the default config has every key, and its type
        _check("config", asdict(ExperimentConfig()) | {"mode": "srm"}, values)
        _check("config.ppo", _PPO_DEFAULTS, values["ppo"])
        # the [env] keys of the recorded environment and the [dag] ones
        env = _env_defaults(values["env_name"]) | {"nodes": 1,
                                                   "arcs": ((0, 1),)}
        del env["name"]
        _check("config.env_options", env, values["env_options"], partial=True)
        ppo, mode = PpoConfig(**values["ppo"]), RunMode.parse(values["mode"])
        return ExperimentConfig(**values | {"ppo": ppo, "mode": mode})
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} is not a run record: {err}") from None
