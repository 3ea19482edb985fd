"""CPU time and peak memory of this process and all its descendants, from /proc.

The tree is the benchmark's own Python process, the Spark JVM it launches and
the JVM's Python daemon and workers. ``psutil`` is not a dependency of
the repository, so the numbers are read from ``/proc/<pid>/stat`` and
``/proc/<pid>/status`` directly.
"""
from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # the process ended while the tree was read
        return None
    # Field 2 (comm) may hold spaces; everything after its ")" is split.
    return raw[raw.rindex(")") + 2:].split()


def tree_pids(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and every descendant that has not exited."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None and fields[0] != "Z":  # a zombie has exited
                children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def cpu_seconds(root: int | None = None) -> float:
    """User + system CPU of the live tree, plus that of its reaped children.

    A finished child's time moves into its parent's ``cutime``/``cstime``
    once the parent waits for it, so nothing is counted twice.
    """
    ticks = 0
    for pid in tree_pids(root):
        fields = _stat(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17 (1-based).
            ticks += sum(int(v) for v in fields[11:15])
    return ticks / _TICK


def peak_rss_mb(root: int | None = None) -> float:
    """Sum over the live tree of each process's peak resident set (VmHWM)."""
    kb = 0
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0
