"""Process helpers: the driver's descendants, their peak resident set, and
waiting for them to end.  Linux ``/proc`` only."""

from __future__ import annotations

import os
import time


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants() -> list[int]:
    kids, out, todo = _children(), [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().split(b"\0")[0].decode(errors="replace")
    except OSError:
        return ""


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of the driver plus every live Ray worker
    (processes titled ``ray::...``), summed.  Recorded in the detail line,
    not as a metric: Ray recycles workers and starts helper actors, so the
    set of live processes -- and this sum -- changes from run to run."""
    pids = [os.getpid()] + [p for p in descendants()
                            if _cmdline(p).startswith("ray::")]
    return sum(_hwm_kb(p) for p in pids) / 1024


def wait_gone(pids: list[int], timeout_s: float = 20.0) -> None:
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break       # exited; its parent reaps it
            except OSError:
                break
            time.sleep(0.05)
