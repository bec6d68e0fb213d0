"""Tests for the experiment harness: config files, episode logs, metrics,
charts, the command-line entry point, and a statistical cross-check of the
frozen evaluator against exhaustive value computation."""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import xml.dom.minidom
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagmarl.cli import main
from dagmarl.config import (
    ConfigError,
    ExperimentConfig,
    RunMode,
    _env_defaults,
    apply_overrides,
    dump_config,
    load_config,
)
from dagmarl.envs import ENV_NAMES, make_env
from dagmarl.evaluate import evaluate
from dagmarl.logio import (
    IoError,
    SchemaMismatch,
    atomic_write_bytes,
    read_episode_csv,
    write_episode_csv,
    write_log,
)
from dagmarl.metrics import (
    EmptySeries,
    histogram,
    min_max_normalize,
    moving_average,
)
from dagmarl.nn import CategoricalHead
from dagmarl.plotting import histogram_chart, line_chart
from dagmarl.ppo import HeadRows, PpoConfig, PpoLearner
from dagmarl.seeding import substream
from dagmarl.training import EpisodeRecord, Trainer
from helpers import deterministic_policy, exact_values

CONFIG_TEXT = """
[run]
mode = proposed
seed = 3
episodes = 6
out = {out}

[env]
name = micro
states = 2
actions = 2
horizon = 8
goal_period = 4
table_seed = 1

[dag]
nodes = a, b, c
arcs = a->b, a->c

[agents]
goal_dim = 2
flow_stride = 2

[ppo]
hidden = 8, 8
batch_size = 32
epochs_per_update = 1
"""


def write_config(tmp_path, out="run", text=CONFIG_TEXT):
    path = tmp_path / "experiment.ini"
    path.write_text(text.format(out=tmp_path / out))
    return path


def micro_srm_config(seed=0, episodes=2):
    return ExperimentConfig(
        mode=RunMode.SRM, env_name="micro",
        env_options=dict(nodes=2, arcs=((0, 1),), states=2, actions=2,
                         horizon=8, goal_period=4),
        seed=seed, episodes=episodes,
        ppo=PpoConfig(hidden=(8, 8), batch_size=32, epochs_per_update=1))


# -- config files ----------------------------------------------------------------


def test_load_config_full_file(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.mode is RunMode.PROPOSED
    assert cfg.seed == 3 and cfg.episodes == 6
    assert cfg.env_name == "micro"
    assert cfg.env_options["nodes"] == 3
    assert cfg.env_options["arcs"] == ((0, 1), (0, 2))
    assert cfg.env_options["states"] == 2
    assert cfg.goal_dim == 2 and cfg.flow_stride == 2
    assert cfg.ppo.hidden == (8, 8)
    assert cfg.ppo.batch_size == 32
    assert cfg.out_dir == str(tmp_path / "run")


def test_overrides_beat_file_values(tmp_path):
    cfg = load_config(write_config(tmp_path))
    new = apply_overrides(cfg, mode="srm", seed=9, episodes=2, out="/tmp/x")
    assert new.mode is RunMode.SRM
    assert new.seed == 9 and new.episodes == 2 and new.out_dir == "/tmp/x"
    assert new.env_name == "micro"  # untouched fields survive


# files that configparser refuses, and what their error says
MALFORMED_FILES = [
    ("mode = srm\n", "File contains no section headers"),
    ("[run]\nseed = 1\nseed = 2\n", "option 'seed' in section 'run' already"),
    ("[run]\n[run]\n", "section 'run' already exists"),
]
# configparser's default section, which a config file may not hold
DEFAULT_SECTION_FILES = [
    "[DEFAULT]\nlearning_rate = 5\n",
    "[DEFAULT]\nseed = 3\n[env]\nname = factory\n",
]


def test_config_rejects_unknown_bits(tmp_path):
    bad_key = CONFIG_TEXT.replace("seed = 3", "sedd = 3")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text=bad_key))
    bad_section = CONFIG_TEXT + "\n[rewards]\nx = 1\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text=bad_section))
    bad_arc = CONFIG_TEXT.replace("a->b, a->c", "a=>b")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text=bad_arc))
    unknown_node = CONFIG_TEXT.replace("a->b, a->c", "a->z")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text=unknown_node))
    bad_agent_key = CONFIG_TEXT.replace("goal_dim = 2", "goal_dims = 2")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text=bad_agent_key))
    dag_key_in_env = CONFIG_TEXT.replace("[env]\n", "[env]\narcs = 0\n")
    with pytest.raises(ConfigError, match=r"unknown key 'arcs' in \[env\]"):
        load_config(write_config(tmp_path, text=dag_key_in_env))
    empty_node = CONFIG_TEXT.replace("nodes = a, b, c", "nodes = a, , b, c")
    with pytest.raises(ConfigError, match=r"'a, , b, c' has an empty name "
                                          r"at entry 2"):
        load_config(write_config(tmp_path, text=empty_node))
    repeated_arc = CONFIG_TEXT.replace("a->b, a->c", "a->b, a->c, a->b")
    with pytest.raises(ConfigError, match="arc 'a->b' is listed twice"):
        load_config(write_config(tmp_path, text=repeated_arc))
    # configparser's errors, in one line that names the file
    for text, names in MALFORMED_FILES:
        path = write_config(tmp_path, text=text)
        with pytest.raises(ConfigError, match=re.escape(names)) as err:
            load_config(path)
        assert str(path) in str(err.value) and "\n" not in str(err.value)
    for text in DEFAULT_SECTION_FILES:
        with pytest.raises(ConfigError,
                           match=re.escape("unknown sections ['DEFAULT']")):
            load_config(write_config(tmp_path, text=text))


def config_with(section, key, value):
    """CONFIG_TEXT with ``key = value`` in ``section``, replacing any old
    value of the key."""
    line = f"{key} = {value}"
    if re.search(rf"^{key} = ", CONFIG_TEXT, flags=re.M):
        return re.sub(rf"^{key} = .*$", line, CONFIG_TEXT, flags=re.M)
    return CONFIG_TEXT.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


@pytest.mark.parametrize("section, key, value", [
    ("agents", "disable_leader", "maybe"),
    ("agents", "goal_dim", "2.5"),
    ("agents", "flow_stride", "two"),
    ("ppo", "batch_size", "2.5"),
    ("ppo", "epochs_per_update", "1.5"),
    ("ppo", "learning_rate", "abc"),
    ("ppo", "hidden", "8, x"),
    ("ppo", "hidden", "8,,8"),
    ("run", "seed", "3.5"),
    ("env", "horizon", "5.7"),
    ("env", "goal_period", "true"),
    ("env", "table_seed", "1e3"),
])
def test_config_rejects_mistyped_values(tmp_path, section, key, value):
    text = config_with(section, key, value)
    with pytest.raises(ConfigError, match=rf"'{key}' in \[{section}\]"):
        load_config(write_config(tmp_path, text=text))


def test_config_reads_values_by_field_type(tmp_path):
    text = config_with("agents", "disable_rgd", "1")
    text = text.replace("[ppo]\n", "[ppo]\nlearning_rate = 3\n")
    cfg = load_config(write_config(tmp_path, text=text))
    assert cfg.disable_rgd is True
    assert cfg.ppo.learning_rate == 3.0 and type(cfg.ppo.learning_rate) is float
    assert type(cfg.ppo.batch_size) is int and cfg.ppo.hidden == (8, 8)


@pytest.mark.parametrize("key, value", [
    ("learning_rate", "nan"), ("learning_rate", "-1"),
    ("entropy_coef", "inf"), ("value_coef", "-0.5"),
])
def test_config_rejects_untrainable_ppo_values(tmp_path, key, value):
    text = config_with("ppo", key, value)
    with pytest.raises(ConfigError, match=r"bad \[ppo\] values"):
        load_config(write_config(tmp_path, text=text))


def test_run_mode_parsing():
    assert RunMode.parse("DIFF_M") is RunMode.DIFF_M
    assert RunMode.parse("cap-m") is RunMode.CAP_M
    assert RunMode.parse(" proposed ") is RunMode.PROPOSED
    with pytest.raises(ConfigError):
        RunMode.parse("centralised")


# one strategy per type of env option; an option of another type fails here
ENV_VALUES = {int: st.integers(-2 ** 63, 2 ** 64)}
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(0.0, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)


@st.composite
def experiment_configs(draw):
    """Any valid config without ``out_dir``: env options from the named
    environment's table, micro DAGs as ascending unique arcs on up to 4
    nodes, and floats anywhere in each PpoConfig range."""
    env_name = draw(st.sampled_from(ENV_NAMES))
    options = {key: draw(ENV_VALUES[type(default)])
               for key, default in _env_defaults(env_name).items()
               if key != "name" and draw(st.booleans())}
    if env_name == "micro" and draw(st.booleans()):
        options["nodes"] = draw(st.integers(1, 4))
        pairs = list(itertools.combinations(range(options["nodes"]), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        options["arcs"] = tuple(itertools.compress(pairs, keep))
    ppo = PpoConfig(
        clip_epsilon=draw(st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True)),
        learning_rate=draw(POSITIVE), gamma=draw(UNIT),
        gae_lambda=draw(UNIT), entropy_coef=draw(NON_NEGATIVE),
        value_coef=draw(NON_NEGATIVE),
        batch_size=draw(st.integers(1, 10 ** 6)),
        epochs_per_update=draw(st.integers(1, 100)),
        hidden=tuple(draw(st.lists(st.integers(1, 4096), min_size=1,
                                   max_size=3))))
    return ExperimentConfig(
        mode=draw(st.sampled_from(RunMode)), env_name=env_name,
        env_options=options, seed=draw(st.integers(0, 2 ** 64)),
        episodes=draw(st.integers(0, 10 ** 6)),
        goal_dim=draw(st.integers(1, 64)),
        flow_stride=draw(st.integers(1, 64)),
        disable_leader=draw(st.booleans()), disable_rgd=draw(st.booleans()),
        ppo=ppo)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=experiment_configs())
@example(config=ExperimentConfig(
    mode=RunMode.PROPOSED, env_name="micro",
    env_options={"nodes": 3, "arcs": ((0, 1), (0, 2))},
    disable_leader=True,
    ppo=PpoConfig(learning_rate=5e-324, entropy_coef=1e300,
                  gamma=0.1 + 0.2, gae_lambda=1 / 3)))
@example(config=ExperimentConfig(env_name="micro",
                                 env_options={"nodes": 2, "arcs": ()}))
def test_dumped_config_reads_back_equal(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "dumped.ini"
    path.write_text(dump_config(config))
    assert load_config(path) == config


def test_dumped_arcs_without_a_node_count_keep_the_topology(tmp_path):
    config = ExperimentConfig(env_name="micro",
                              env_options={"arcs": ((0, 1),)})
    path = tmp_path / "config.ini"
    path.write_text(dump_config(config))
    loaded = load_config(path)
    assert loaded.env_options["arcs"] == ((0, 1),)
    want, got = (make_env("micro", c.env_options).topology
                 for c in (config, loaded))
    assert (got.node_count, got.arcs) == (want.node_count, want.arcs)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(goal_dim=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(flow_stride=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(episodes=-1)


# -- episode logs ------------------------------------------------------------------


def sample_records():
    return [
        EpisodeRecord(0, 1.25, 3, {"follower-0": 0.625, "follower-1": 0.625},
                      np.array([0.1, 0.0])),
        EpisodeRecord(1, -2.0 / 3.0, 3, {"follower-0": -1.0 / 3.0,
                                         "follower-1": -1.0 / 3.0},
                      np.array([0.25, 0.5])),
    ]


def test_episode_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "episodes.csv"
    records = sample_records()
    write_episode_csv(path, records)
    cols = read_episode_csv(path)
    np.testing.assert_array_equal(cols["episode"], [0, 1])
    np.testing.assert_array_equal(cols["goal_periods"], [3, 3])
    # repr-formatted floats parse back bit for bit
    assert cols["team_reward"][1] == -2.0 / 3.0
    assert cols["reward:follower-0"][1] == -1.0 / 3.0
    assert cols["sr:1"][1] == 0.5


def test_write_refuses_empty_or_ragged(tmp_path):
    with pytest.raises(IoError):
        write_episode_csv(tmp_path / "x.csv", [])
    ragged = sample_records()
    ragged[1] = EpisodeRecord(1, 0.0, 3, {"follower-0": 0.0}, None)
    with pytest.raises(SchemaMismatch):
        write_episode_csv(tmp_path / "y.csv", ragged)


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    assert os.listdir(tmp_path) == ["blob.bin"]


def test_atomic_write_fsyncs_the_whole_file_before_replace(tmp_path,
                                                          monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_size))
        fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    atomic_write_bytes(tmp_path / "blob.bin", b"payload")
    assert calls == [("fsync", len(b"payload")), ("replace", "blob.bin")]
    assert (tmp_path / "blob.bin").read_bytes() == b"payload"


def test_failed_replace_keeps_old_files(tmp_path, monkeypatch):
    csv_path = tmp_path / "episodes.csv"
    ckpt_path = tmp_path / "agent.ckpt"
    write_episode_csv(csv_path, sample_records()[:1])
    agent = PpoLearner(3, CategoricalHead((4,)), PpoConfig(hidden=(8,)),
                       [np.random.default_rng(0)], 1)
    agent.save(0, ckpt_path)
    old_csv, old_ckpt = csv_path.read_bytes(), ckpt_path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoError):
        write_episode_csv(csv_path, sample_records())
    other = PpoLearner(3, CategoricalHead((4,)), PpoConfig(hidden=(8,)),
                       [np.random.default_rng(1)], 1)
    assert other.to_bytes(0) != old_ckpt
    with pytest.raises(OSError):
        other.save(0, ckpt_path)

    assert csv_path.read_bytes() == old_csv
    assert ckpt_path.read_bytes() == old_ckpt
    assert sorted(os.listdir(tmp_path)) == ["agent.ckpt", "episodes.csv"]


def test_failed_replace_keeps_old_evaluation_files(tmp_path, monkeypatch,
                                                   capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--episodes", "2"]) == 0
    eval_dir = tmp_path / "eval"
    evaluate_args = ["evaluate", str(tmp_path / "run"), "--episodes", "5",
                     "--out", str(eval_dir)]
    assert main(evaluate_args + ["--seed", "1"]) == 0
    names = ["eval_histogram.svg", "eval_rewards.csv", "eval_summary.json"]
    assert sorted(os.listdir(eval_dir)) == names
    old = {name: (eval_dir / name).read_bytes() for name in names}

    replace = os.replace

    def refuse(name):
        def refusing_replace(src, dst):
            if os.path.basename(dst) == name:
                raise OSError("replace refused")
            replace(src, dst)
        return refusing_replace

    # each output in turn fails to replace; the others may go through
    capsys.readouterr()
    for name in names:
        before = (eval_dir / name).read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refuse(name))
            assert main(evaluate_args + ["--seed", "2"]) == 1
        assert "error: replace refused" in capsys.readouterr().err
        assert sorted(os.listdir(eval_dir)) == names
        assert (eval_dir / name).read_bytes() == before
    # the refused evaluation would have written other bytes to every file
    assert main(evaluate_args + ["--seed", "2"]) == 0
    for name in names:
        assert (eval_dir / name).read_bytes() != old[name]
    capsys.readouterr()


def test_read_validates_header_and_width(tmp_path):
    bad_version = tmp_path / "v.csv"
    bad_version.write_text("# dagmarl-log v9\nepisode\n0\n")
    with pytest.raises(SchemaMismatch):
        read_episode_csv(bad_version)

    no_header = tmp_path / "h.csv"
    no_header.write_text("episode,team_reward\n0,1.0\n")
    with pytest.raises(SchemaMismatch):
        read_episode_csv(no_header)

    ragged = tmp_path / "r.csv"
    ragged.write_text("# dagmarl-log v1\nepisode,team_reward\n0,1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        read_episode_csv(ragged)

    doubled = tmp_path / "d.csv"
    doubled.write_text("# dagmarl-log v1\nepisode,episode\n0,0\n")
    with pytest.raises(SchemaMismatch):
        read_episode_csv(doubled)

    with pytest.raises(IoError):
        read_episode_csv(tmp_path / "absent.csv")


# -- metrics -----------------------------------------------------------------------


def test_moving_average_matches_loop_oracle():
    rng = np.random.default_rng(1)
    series = rng.normal(size=57)
    for window in (1, 4, 10, 57, 80):
        got = moving_average(series, window=window)
        want = np.array([series[max(0, t - window + 1):t + 1].mean()
                         for t in range(series.size)])
        np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(moving_average(series, window=1), series)


def test_moving_average_edge_cases():
    with pytest.raises(EmptySeries):
        moving_average([])
    with pytest.raises(ValueError):
        moving_average([1.0], window=0)


def test_min_max_normalize():
    out = min_max_normalize([2.0, 4.0, 3.0])
    np.testing.assert_allclose(out, [0.0, 1.0, 0.5])
    np.testing.assert_allclose(min_max_normalize([5.0, 5.0]), [0.5, 0.5])
    with pytest.raises(EmptySeries):
        min_max_normalize([])


def test_min_max_normalize_refuses_a_width_past_the_float_range():
    with pytest.raises(ValueError, match=r"^cannot normalize values from "
                       r"-1\.7e\+308 to 1\.7e\+308$"):
        min_max_normalize([-1.7e308, 0.0, 1.7e308])
    # the widest range that fits keeps its ends
    np.testing.assert_array_equal(min_max_normalize([-8e307, 8e307]),
                                  [0.0, 1.0])


@pytest.mark.parametrize("value", [1e16, -1e16, 2.0 ** 53, 1e300, 3.0])
def test_a_constant_column_charts_flat_and_bins_into_one_bin(value):
    svg = line_chart({"flat": [value] * 3})
    xml.dom.minidom.parseString(svg)
    [points] = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len({point.split(",")[1] for point in points.split()}) == 1
    counts, edges = histogram([value] * 3)
    assert counts.tolist() == [3]
    assert edges[0] < value < edges[1]
    xml.dom.minidom.parseString(histogram_chart(counts, edges))


def test_histogram_counts_and_edges():
    counts, edges = histogram([0.0, 0.5, 1.0, 1.0], bins=2)
    assert counts.sum() == 4
    assert edges.shape == (3,)
    counts, edges = histogram([3.0, 3.0, 3.0])
    assert counts.tolist() == [3]
    np.testing.assert_allclose(edges, [2.5, 3.5])
    with pytest.raises(EmptySeries):
        histogram([])


# -- charts ------------------------------------------------------------------------


def test_line_chart_is_deterministic_and_well_formed():
    series = {"run-a": np.linspace(-1.0, 3.0, 40),
              "run-b": np.sin(np.linspace(0.0, 6.0, 40))}
    one = line_chart(series, y_label="team reward", title="smoke")
    two = line_chart(series, y_label="team reward", title="smoke")
    assert one == two
    xml.dom.minidom.parseString(one)
    assert "run-a" in one and "run-b" in one


def test_line_chart_rejects_bad_series():
    with pytest.raises(EmptySeries):
        line_chart({})
    with pytest.raises(EmptySeries):
        line_chart({"x": np.array([])})
    with pytest.raises(ValueError):
        line_chart({"x": np.array([1.0, np.nan])})


def test_histogram_chart_renders():
    counts, edges = histogram(np.arange(30.0), bins=5)
    svg = histogram_chart(counts, edges, x_label="reward", title="dist")
    xml.dom.minidom.parseString(svg)
    with pytest.raises(ValueError):
        histogram_chart(np.array([1.0, 2.0]), np.array([0.0, 1.0]))


# -- command line ---------------------------------------------------------------


def test_cli_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_cli_train_requires_out(capsys):
    assert main(["train"]) == 1
    assert "output directory" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_train_rejects_empty_episodes(tmp_path, capsys):
    cfg = tmp_path / "prey.ini"
    cfg.write_text("[env]\nname = prey\nmax_steps = 0\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error: max_steps" in capsys.readouterr().err


def test_cli_train_rejects_fractional_step_limit(tmp_path, capsys):
    cfg = tmp_path / "prey.ini"
    cfg.write_text("[env]\nname = prey\nmax_steps = 5.7\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: bad value '5.7' for 'max_steps' in [env]\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, args", [
    ("[env]\nname = factory\ngoal_periods = 0\n", []),
    ("[env]\nname = prey\nmax_steps = 0\n", []),
    ("[env]\nname = prey\nmax_steps = 20\n", ["--episodes", "0"]),
    # the rollout of 10^12 steps would need 233 TiB
    ("[env]\nname = prey\nmax_steps = 1000000000000\n", []),
    *[(text, []) for text, _ in MALFORMED_FILES],
    *[(text, []) for text in DEFAULT_SECTION_FILES],
], ids=["factory-no-periods", "prey-no-steps", "no-episodes",
        "prey-huge-rollout", "no-header",
        "repeated-key", "repeated-section", "default-section",
        "default-section-beside-env"])
def test_cli_train_rejected_run_leaves_no_output(tmp_path, capsys, text, args):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_cli_train_reports_a_diverging_run_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "diverge.ini"
    cfg.write_text("[run]\nmode = srm\nseed = 1\nepisodes = 3\n"
                   "[env]\nname = micro\n"
                   "[ppo]\nhidden = 8, 8\nbatch_size = 4\n"
                   "epochs_per_update = 2\nlearning_rate = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: follower-0 update in episode 0: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("target", ["file", "under-file", "dangling-link"])
def test_cli_refuses_an_output_path_that_is_not_a_directory(
        tmp_path, capsys, monkeypatch, command, target):
    cfg = write_config(tmp_path)
    if command == "train":
        args = ["train", "--config", str(cfg), "--episodes", "1000000"]
    else:
        assert main(["train", "--config", str(cfg), "--episodes", "2"]) == 0
        args = ["evaluate", str(tmp_path / "run"), "--episodes", "100000"]
    blocker = tmp_path / "blocker"
    if target == "dangling-link":
        blocker.symlink_to(tmp_path / "gone")
    else:
        blocker.write_bytes(b"not a directory\n")
    out = blocker / "sub" if target == "under-file" else blocker

    def never(*args, **kwargs):
        raise AssertionError(f"{command} ran an episode")

    monkeypatch.setattr(sys.modules["dagmarl.training"], "train", never)
    monkeypatch.setattr(sys.modules["dagmarl.evaluate"], "evaluate", never)
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: output directory {out}: {blocker} is not a directory\n")
    if target == "dangling-link":
        assert not blocker.exists() and blocker.is_symlink()
    else:
        assert blocker.read_bytes() == b"not a directory\n"


def test_cli_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run_dir = tmp_path / "run"

    assert main(["train", "--config", str(cfg)]) == 0
    assert (run_dir / "episodes.csv").exists()
    assert (run_dir / "checkpoints" / "leader.ckpt").exists()
    assert load_config(run_dir / "config.ini").mode is RunMode.PROPOSED
    meta = json.loads((run_dir / "run_meta.json").read_text())
    assert meta.keys() == {"wall_seconds", "episodes_run"}
    assert meta["episodes_run"] == 6

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", str(run_dir), "--episodes", "5",
                 "--out", str(eval_dir)]) == 0
    summary = json.loads((eval_dir / "eval_summary.json").read_text())
    assert summary["episodes"] == 5
    assert (eval_dir / "eval_histogram.svg").exists()
    # without --out the outputs land in the run directory
    assert main(["evaluate", str(run_dir), "--episodes", "5"]) == 0
    assert (run_dir / "eval_summary.json").read_bytes() == \
        (eval_dir / "eval_summary.json").read_bytes()

    svg_path = tmp_path / "curve.svg"
    assert main(["plot", str(run_dir / "episodes.csv"), "--window", "3",
                 "--out", str(svg_path)]) == 0
    xml.dom.minidom.parseString(svg_path.read_text())
    capsys.readouterr()


@pytest.mark.parametrize("env_name, options", [
    ("factory", "goal_period = 2\ngoal_periods = 1"),
    ("logistics", "goal_period = 2\ngoal_periods = 1"),
    ("prey", "grid_size = 5\nmax_steps = 3\ngoal_period = 2"),
    ("micro", "horizon = 3\ngoal_period = 2\ntable_seed = 4\n"
              "[dag]\nnodes = a, b, c\narcs = a->b, a->c"),
])
@pytest.mark.parametrize("mode", [m.value for m in RunMode])
def test_run_record_round_trips(tmp_path, capsys, env_name, options, mode):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nmode = {mode}\nseed = 4\nepisodes = 1\n"
                   f"[agents]\ngoal_dim = 2\nflow_stride = 2\n"
                   f"[ppo]\nhidden = 4, 4\nbatch_size = 8\n"
                   f"[env]\nname = {env_name}\n{options}\n")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    recorded = load_config(run_dir / "config.ini")
    assert recorded == replace(load_config(cfg), out_dir=None)


def test_cli_evaluate_refuses_a_bad_run_record(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--episodes", "2"]) == 0
    record_path = run_dir / "config.ini"
    record = record_path.read_text()
    env = record[record.index("[env]"):record.index("[agents]")]

    eval_dir = tmp_path / "eval"
    for text, names in [
            (None, f"No such file or directory: '{record_path}'"),
            ("[]\n", f"no section headers. file: '{record_path}'"),
            (record.replace("[run]\n", "[run]\nhorizon = 40\n"),
             "unknown key 'horizon' in [run]"),
            (record.replace("seed = 3\n", "seed = 3.5\n"),
             "bad value '3.5' for 'seed' in [run]"),
            (record.replace(env, "[env]\nname = prey\nmax_steps = 5.7\n\n"),
             "bad value '5.7' for 'max_steps' in [env]"),
            (record.replace("hidden = 8, 8", "hidden = 8.5, 8"),
             "bad value '8.5, 8' for 'hidden' in [ppo]"),
            (record.replace("arcs = n0->n1, n0->n2", "arcs = n0->n1->n2"),
             "[dag] arc 'n0->n1->n2' references unknown node")]:
        if text is None:
            record_path.unlink()
        else:
            record_path.write_text(text)
        capsys.readouterr()
        assert main(["evaluate", str(run_dir), "--episodes", "2",
                     "--out", str(eval_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(record_path) in err and names in err, err
        assert not eval_dir.exists()
        if text is not None:
            with pytest.raises(ConfigError, match=re.escape(names)):
                load_config(record_path)


def test_cli_eval_rewards_are_a_readable_log(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--episodes", "2"]) == 0
    checkpoints = tmp_path / "run" / "checkpoints"
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", str(tmp_path / "run"),
                 "--episodes", "5", "--seed", "3",
                 "--out", str(eval_dir)]) == 0
    want = evaluate(load_config(cfg), checkpoints, episodes=5, seed=3)
    columns = read_episode_csv(eval_dir / "eval_rewards.csv")
    np.testing.assert_array_equal(columns["episode"], np.arange(5))
    assert columns["team_reward"].tobytes() == want.rewards.tobytes()
    assert main(["plot", str(eval_dir / "eval_rewards.csv"),
                 "--out", str(tmp_path / "eval.svg")]) == 0
    xml.dom.minidom.parseString((tmp_path / "eval.svg").read_text())
    capsys.readouterr()


def test_cli_plot_unknown_column(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--episodes", "2"]) == 0
    code = main(["plot", str(tmp_path / "run" / "episodes.csv"),
                 "--column", "bananas", "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert "bananas" in capsys.readouterr().err


def test_cli_plot_rejects_zero_window(tmp_path, capsys):
    log = tmp_path / "run.csv"
    write_episode_csv(log, sample_records())
    code = main(["plot", str(log), "--window", "0",
                 "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert "error: window must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_cli_plot_draws_every_log(tmp_path, capsys):
    logs = [tmp_path / "a" / "run.csv", tmp_path / "b" / "run-2.csv",
            tmp_path / "c" / "run.csv"]
    for log in logs:
        log.parent.mkdir()
        write_episode_csv(log, sample_records())
    svg = tmp_path / "all.svg"
    assert main(["plot", *map(str, logs), "--out", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 3
    capsys.readouterr()


# a column whose tick step rounds away at 1e16, one whose width overflows
# and one whose width underflows
@pytest.mark.parametrize("values, error", [
    ([1e16, 1.0000000000000002e16, 1.0000000000000004e16], None),
    ([-1.7e308, 1.7e308], "error: cannot chart values from -1.7e+308 to "
                          "1.7e+308\n"),
    ([5e-324, 1e-323], "error: cannot chart values from 5e-324 to 1e-323\n"),
], ids=["near-1e16", "overflow", "underflow"])
def test_cli_plot_charts_or_refuses_extreme_ranges(tmp_path, values, error):
    log, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    write_log(log, [{"episode": i, "team_reward": v}
                    for i, v in enumerate(values)])
    # in a fresh interpreter, so a plot that never returns fails the bound
    proc = python_run("import sys\n"
                      "from dagmarl.cli import main\n"
                      "sys.exit(main(sys.argv[1:]))\n",
                      "plot", str(log), "--out", str(svg), timeout=60)
    if error is None:
        assert proc.returncode == 0, proc.stderr
        xml.dom.minidom.parseString(svg.read_text())
    else:
        assert (proc.returncode, proc.stderr) == (1, error)
        assert not svg.exists()


# a normalized column whose width overflows, and a constant 1e16 column
@pytest.mark.parametrize("values, args, error", [
    ([-1.7e308, 1.7e308], ["--normalize"],
     "error: cannot normalize values from -1.7e+308 to 1.7e+308\n"),
    ([1e16] * 3, [], None),
], ids=["normalize-overflow", "constant-1e16"])
def test_cli_plot_refuses_or_charts_without_warnings(tmp_path, values, args,
                                                     error):
    log, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    write_log(log, [{"episode": i, "team_reward": v}
                    for i, v in enumerate(values)])
    proc = python_run("import sys, warnings\n"
                      "warnings.simplefilter('error', RuntimeWarning)\n"
                      "from dagmarl.cli import main\n"
                      "sys.exit(main(sys.argv[1:]))\n",
                      "plot", str(log), *args, "--out", str(svg), timeout=60)
    if error is None:
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        xml.dom.minidom.parseString(svg.read_text())
    else:
        assert (proc.returncode, proc.stderr) == (1, error)
        assert not svg.exists()


def test_histogram_chart_of_a_range_near_1e16_returns():
    proc = python_run("from dagmarl.plotting import histogram_chart\n"
                      "histogram_chart([1, 2], [1e16, 1.0000000000000002e16,"
                      " 1.0000000000000004e16])\n", timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_evaluate_missing_checkpoints(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--episodes", "2"]) == 0
    shutil.rmtree(tmp_path / "run" / "checkpoints")
    capsys.readouterr()
    code = main(["evaluate", str(tmp_path / "run")])
    assert code == 1
    assert "error: missing checkpoint" in capsys.readouterr().err


def python_run(code, *args, timeout=300):
    """Runs ``code`` in a fresh interpreter with this checkout's ``src``
    first on the import path; returns the finished process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)


def run_python(code, *args):
    """``python_run``, which must succeed; returns its standard output."""
    proc = python_run(code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_imports_no_scipy():
    loaded = run_python(
        "import sys\n"
        "import dagmarl, dagmarl.cli, dagmarl.training, dagmarl.evaluate\n"
        "import dagmarl.oracle, dagmarl.plotting\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    assert loaded == "[]\n"


def test_beta_modes_run_without_scipy(tmp_path):
    # proposed trains the leader and the generator/distributor, so every
    # Beta path runs: sampling, the batched stats and the frozen mean
    cfg = write_config(tmp_path)
    run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from dagmarl.cli import main\n"
        "cfg, run, ev = sys.argv[1:]\n"
        "assert main(['train', '--config', cfg, '--episodes', '2']) == 0\n"
        "assert main(['evaluate', run, '--episodes', '3', '--out', ev]) == 0\n",
        str(cfg), str(tmp_path / "run"), str(tmp_path / "eval"))
    summary = json.loads((tmp_path / "eval" / "eval_summary.json").read_text())
    assert summary["episodes"] == 3


def test_cli_verify_theorem(capsys):
    assert main(["verify-theorem", "--trials", "4", "--seed", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 4
    assert report["violations"] == 0


@pytest.mark.parametrize("flag, value", [("--trials", "0"),
                                         ("--trials", "-2"),
                                         ("--gamma", "1.0"),
                                         ("--seed", "-5")])
def test_cli_verify_theorem_rejects_empty_audit(capsys, flag, value):
    assert main(["verify-theorem", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if flag == "--seed":
        assert "seed" in captured.err


def test_cli_train_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "episodes.csv").read_bytes() == (b / "episodes.csv").read_bytes()
    assert (a / "config.ini").read_bytes() == (b / "config.ini").read_bytes()
    capsys.readouterr()


# -- frozen evaluation ------------------------------------------------------------


def test_evaluate_is_repeatable_and_prefix_stable(tmp_path):
    """Episode i's result depends only on the checkpoints, the eval seed and
    i: reruns agree, and a longer run extends a shorter one."""
    cfg = micro_srm_config(seed=4)
    trainer = Trainer(cfg)
    trainer.run_episode(0)
    trainer.save_checkpoints(tmp_path)

    first = evaluate(cfg, tmp_path, episodes=8, seed=100)
    again = evaluate(cfg, tmp_path, episodes=8, seed=100)
    np.testing.assert_array_equal(first.rewards, again.rewards)
    np.testing.assert_array_equal(first.goal_periods, again.goal_periods)
    assert first.summary == again.summary

    short = evaluate(cfg, tmp_path, episodes=4, seed=100)
    np.testing.assert_array_equal(first.rewards[:4], short.rewards)
    np.testing.assert_array_equal(first.goal_periods[:4], short.goal_periods)


def test_substream_uses_the_whole_seed():
    def draws(seed):
        return substream(seed, "env").integers(2 ** 63, size=4)

    assert not np.array_equal(draws(3), draws(3 + 2 ** 64))
    assert not np.array_equal(draws(0), draws(2 ** 70))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        substream(-1, "env")


def test_evaluate_rejects_a_negative_seed(tmp_path):
    cfg = micro_srm_config()
    Trainer(cfg).save_checkpoints(tmp_path)
    with pytest.raises(ValueError, match="seed"):
        evaluate(cfg, tmp_path, episodes=1, seed=-1)


def test_cli_evaluate_rejects_a_negative_seed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--episodes", "2"]) == 0
    capsys.readouterr()
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", str(tmp_path / "run"), "--seed", "-1",
                 "--out", str(eval_dir)]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert not eval_dir.exists()


def test_evaluate_checks_bins_before_running(tmp_path):
    with pytest.raises(ValueError, match="bins must be >= 1"):
        evaluate(micro_srm_config(), tmp_path / "missing", episodes=200,
                 bins=0)


def test_evaluate_matches_exhaustive_values(tmp_path):
    """Frozen followers are a deterministic tabular policy on the micro env,
    so the evaluator's mean must agree with the exact expected total."""
    cfg = micro_srm_config(seed=8)
    trainer = Trainer(cfg)
    for episode in range(2):
        trainer.run_episode(episode)
    trainer.save_checkpoints(tmp_path)

    env = trainer.env
    choice = []
    for i in range(env.topology.node_count):
        per_state = []
        for s in range(env.n_states[i]):
            onehot = np.zeros(env.n_states[i])
            onehot[s] = 1.0
            learner, k = trainer.agents[f"follower-{i}"]
            learner.inputs[...] = onehot
            action = HeadRows([learner]).frozen_act()[k]
            per_state.append(action)
        choice.append(per_state)
    policy = deterministic_policy(env, choice)
    sink_v = exact_values(env, policy, gamma=1.0)
    expected = sum(sink_v.values())

    result = evaluate(cfg, tmp_path, episodes=600, seed=52)
    sem = result.rewards.std(ddof=1) / np.sqrt(result.rewards.size)
    assert abs(result.summary["mean"] - expected) <= 4.0 * sem + 1e-9
