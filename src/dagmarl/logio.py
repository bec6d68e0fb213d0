"""Episode logs as versioned CSV.

Layout: a `# dagmarl-log v1` header line, a column row, one row per
episode.  Training logs have `episode,team_reward,goal_periods`, a
`reward:<role>` column per agent and `sr:<node>` columns when synthetic
rewards were active; evaluation logs have `episode,team_reward`.  Floats are
written with repr so a parse round-trips bit for bit.  Wall-clock time goes
in the run_meta.json sidecar, so reruns with one seed diff clean.
"""

from __future__ import annotations

import os

import numpy as np

VERSION_LINE = "# dagmarl-log v1"


class IoError(OSError):
    pass


class SchemaMismatch(ValueError):
    pass


def atomic_write_bytes(path, data: bytes) -> None:
    """Writes `data` to `path` so readers see the old file or the new one.

    The bytes go to a temporary file in the same directory and are fsynced
    there, so a power loss after the rename cannot leave an empty target;
    the temporary file then replaces the target in one `os.replace`.  On
    any failure the temporary file is removed and the target is left as it
    was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def episode_columns(record) -> dict:
    """Flatten an EpisodeRecord into an ordered column -> value mapping."""
    row = {"episode": record.episode,
           "team_reward": record.team_reward,
           "goal_periods": record.goal_periods}
    for role, value in record.agent_rewards.items():
        row[f"reward:{role}"] = value
    if record.sr_sums is not None:
        for i, value in enumerate(record.sr_sums):
            row[f"sr:{i}"] = float(value)
    return row


def write_episode_csv(path, records) -> None:
    write_log(path, [episode_columns(r) for r in records])


def write_log(path, rows) -> None:
    """Writes rows, column -> value mappings in column order, as a log."""
    if not rows:
        raise IoError("refusing to write an empty log")
    header = list(rows[0])
    for row in rows:
        if list(row) != header:
            raise SchemaMismatch("log rows disagree on columns")
    lines = [VERSION_LINE, ",".join(header)]
    lines += [",".join(_format(row[c]) for c in header) for row in rows]
    try:
        atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())
    except OSError as err:
        raise IoError(str(err)) from err


def read_episode_csv(path) -> dict:
    """Parse a log back into {column: array}; validates the version line."""
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh]
    except OSError as err:
        raise IoError(str(err)) from err
    if not lines or not lines[0].startswith("# dagmarl-log"):
        raise SchemaMismatch(f"{path}: missing dagmarl-log header")
    if lines[0] != VERSION_LINE:
        raise SchemaMismatch(f"{path}: unsupported log version "
                             f"{lines[0]!r}")
    if len(lines) < 2:
        raise SchemaMismatch(f"{path}: missing column row")
    header = lines[1].split(",")
    body = [line for line in lines[2:] if line]
    columns = {name: [] for name in header}
    if len(set(header)) != len(header):
        raise SchemaMismatch(f"{path}: duplicate column names")
    for line in body:
        parts = line.split(",")
        if len(parts) != len(header):
            raise SchemaMismatch(f"{path}: row width {len(parts)} does not "
                                 f"match {len(header)} columns")
        for name, text in zip(header, parts):
            columns[name].append(float(text))
    out = {}
    for name, values in columns.items():
        arr = np.asarray(values, dtype=float)
        if name in ("episode", "goal_periods"):
            arr = arr.astype(int)
        out[name] = arr
    return out
