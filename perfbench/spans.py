"""Outside-in instrumentation of dagmarl's public functions.

Nothing here edits dagmarl's source.  Each probe replaces a function or
method with a wrapper, at every name a caller can resolve it by: a function
imported into another module (``dagmarl.training.distribute``,
``dagmarl.ppo.compute_gae`` ...) is patched there too, so no call path
bypasses the wrapper.  ``uninstall`` puts the originals back.

``EpisodeProbe`` is always on: it wraps ``Trainer.run_episode`` to count
episodes and real environment steps and to check each episode's output.
``Tracer`` is the traced run only: it times a span around every call into
the layers listed in ``workloads.SPANS`` and keeps each span's self time
(its duration minus the time covered by spans it called).
"""

from __future__ import annotations

import importlib
import math
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class _Patcher:
    def __init__(self):
        self._saved = []

    def wrap(self, module_name: str, qualname: str, make_wrapper):
        """Replaces ``module.qualname`` and every dagmarl alias of it."""
        owner, attr = _resolve(module_name, qualname)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            # a module-level function: also patch modules that imported it
            for name, mod in list(sys.modules.items()):
                if mod is owner or not (name == "dagmarl"
                                        or name.startswith("dagmarl.")):
                    continue
                targets += [(mod, a) for a, v in vars(mod).items()
                            if v is original]
        for target, name in targets:
            self._saved.append((target, name, original))
            setattr(target, name, wrapper)

    def uninstall(self):
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved.clear()


class EpisodeProbe(_Patcher):
    """Counts episodes and real steps per phase and checks each episode.

    Real steps are read from ``env.step_count`` after the episode:
    ``restore`` rewinds it, so counterfactual branch steps do not count.
    """

    def __init__(self):
        super().__init__()
        self.attempted = 0
        self.failed = 0
        self.steps = Counter()  # phase ("train" / "frozen") -> real steps
        self.errors = Counter()  # failure kind -> count
        self.on_episode = None  # called after each completed episode
        self._flagged = None

    def flag(self, kind: str):
        """Marks the running episode as failed (used by tracer checks)."""
        if self._flagged is None:
            self._flagged = kind

    def install(self):
        self.wrap("dagmarl.training", "Trainer.run_episode", self._wrapper)
        return self

    def _wrapper(self, original):
        def run_episode(trainer, *args, **kwargs):
            self.attempted += 1
            self._flagged = None
            try:
                record = original(trainer, *args, **kwargs)
            except Exception as err:
                self.failed += 1
                self.errors[type(err).__name__] += 1
                raise
            steps = trainer.env.step_count
            if not math.isfinite(record.team_reward):
                self.flag("non-finite team reward")
            elif not 1 <= steps <= trainer.env.max_steps:
                self.flag(f"{steps} real steps")
            if self._flagged is not None:
                self.failed += 1
                self.errors[self._flagged] += 1
            self.steps["frozen" if kwargs.get("frozen") else "train"] += steps
            if self.on_episode is not None:
                self.on_episode()
            return record
        return run_episode


# (span, module, qualname); nn.forward.* is added separately
_TARGETS = (
    ("envs.step", "dagmarl.envs.base", "DagEnv.step"),
    ("envs.snapshot", "dagmarl.envs.base", "DagEnv.snapshot"),
    ("envs.restore", "dagmarl.envs.base", "DagEnv.restore"),
    ("nn.backward", "dagmarl.nn", "DenseNet.backward"),
    ("nn.adam_step", "dagmarl.nn", "adam_step"),
    ("nn.sample_and_logprob", "dagmarl.nn", "sample_and_logprob"),
    ("nn.frozen_action", "dagmarl.nn", "frozen_action"),
    ("nn.categorical_stats", "dagmarl.nn", "categorical_stats"),
    ("nn.beta_stats", "dagmarl.nn", "beta_stats"),
    ("ppo.act", "dagmarl.ppo", "PpoLearner.act"),
    ("ppo.frozen_act", "dagmarl.ppo", "PpoLearner.frozen_act"),
    ("ppo.update", "dagmarl.ppo", "PpoLearner.update"),
    ("ppo.compute_gae", "dagmarl.ppo", "compute_gae"),
    ("ppo.save", "dagmarl.ppo", "PpoLearner.save"),
    ("ppo.load", "dagmarl.ppo", "PpoLearner.load"),
    ("reward_flow.distribute", "dagmarl.reward_flow", "distribute"),
    ("training.init", "dagmarl.training", "Trainer.__init__"),
    ("training.run_episode", "dagmarl.training", "Trainer.run_episode"),
    ("training.counterfactual_rewards", "dagmarl.training",
     "counterfactual_rewards"),
    ("evaluate.evaluate", "dagmarl.evaluate", "evaluate"),
)

CONSERVATION_TOL = 1e-9


class Tracer(_Patcher):
    """Self time and call counts per span, kept in memory."""

    def __init__(self, probe: EpisodeProbe):
        super().__init__()
        self.probe = probe
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.root_s = 0.0  # summed duration of spans with no parent
        self.transitions = 0
        self.nonfinite = Counter()
        self._stack = []  # one [child seconds] cell per open span
        self._counted_errors = {}  # span -> exception type it counts

    def install(self):
        from dagmarl import nn, ppo

        for span, module, qualname in _TARGETS:
            self.wrap(module, qualname, self._timed(span))
        self.wrap("dagmarl.nn", "DenseNet.forward_cached", self._timed(
            lambda args: ("nn.forward.act" if getattr(args[1], "ndim", 2) == 1
                          else "nn.forward.batch")))
        self._counted_errors.update({"ppo.update": ppo.NonFiniteLoss,
                                     "nn.adam_step": nn.NonFiniteGradient})
        return self

    def _timed(self, span):
        name_of = span if callable(span) else (lambda args, s=span: s)

        def make(original):
            def wrapper(*args, **kwargs):
                name = name_of(args)
                cell = [0.0]
                self._stack.append(cell)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                except Exception as err:
                    error = self._counted_errors.get(name)
                    if error is not None and isinstance(err, error):
                        self.nonfinite[name] += 1
                    raise
                finally:
                    elapsed = perf_counter() - start
                    self._stack.pop()
                    self.calls[name] += 1
                    self.self_s[name] += elapsed - cell[0]
                    if self._stack:
                        self._stack[-1][0] += elapsed
                    else:
                        self.root_s += elapsed
                self._after(name, args, kwargs, result)
                return result
            return wrapper
        return make

    def _after(self, name, args, kwargs, result):
        if name == "ppo.update":
            self.transitions += int(result["transitions"])
        elif name == "reward_flow.distribute":
            # runtime twin of share conservation: node shares sum to 1 and
            # the period's paid-out synthetic rewards sum to its budget
            budget = args[2] if len(args) > 2 else kwargs["budget"]
            table, paid = result
            if not (abs(float(sum(table.node_share)) - 1.0) <= CONSERVATION_TOL
                    and abs(float(sum(paid)) - budget) <= CONSERVATION_TOL):
                self.probe.flag("synthetic reward shares not conserved")
