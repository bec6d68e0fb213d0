"""Simulation environments, one agent per task-DAG node."""

from ..config import ConfigError
from .base import DagEnv, EnvSnapshot, InvalidAction, VersionMismatch
from .factory import FactoryEnv
from .logistics import LogisticsEnv
from .micro import MicroDagEnv
from .prey import PreyEnv

BUILDERS = {
    "factory": FactoryEnv,
    "logistics": LogisticsEnv,
    "prey": PreyEnv,
    "micro": MicroDagEnv.from_options,
}
ENV_NAMES = tuple(BUILDERS)


def env_builder(name: str):
    """The constructor of environment ``name``; unknown names fail loudly."""
    if name not in BUILDERS:
        raise ConfigError(f"unknown environment {name!r}; pick from {ENV_NAMES}")
    return BUILDERS[name]


def make_env(name: str, options: dict | None = None) -> DagEnv:
    """Builds a named environment; unknown names or option keys fail loudly."""
    builder = env_builder(name)
    try:
        return builder(**(options or {}))
    except TypeError as err:
        raise ConfigError(f"bad options for environment {name!r}: {err}") from None


__all__ = [
    "DagEnv",
    "EnvSnapshot",
    "InvalidAction",
    "VersionMismatch",
    "FactoryEnv",
    "LogisticsEnv",
    "PreyEnv",
    "MicroDagEnv",
    "make_env",
    "env_builder",
    "ENV_NAMES",
]
