"""Helpers for tests that start new interpreters and watch their processes."""

import os

import logigof


def fresh_env():
    """Environment for a new interpreter that imports this copy of logigof."""
    src = os.path.dirname(os.path.dirname(logigof.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def live_processes() -> dict:
    """{pid: session id} of every process that has not exited; a zombie has."""
    live = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != "Z":
            live[int(pid)] = int(fields[3])
    return live
