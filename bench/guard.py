"""The cleanliness guard: what a benchmark run must leave as it found it.

No child process, no new shared-memory block, no socket still
listening, an empty scratch directory, and an unchanged
``git status --porcelain`` (where the checkout is a git repository).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time

__all__ = ["Guard", "git_status"]


def _listening_ports() -> set[int]:
    """Ports this process holds a listening TCP socket on."""
    mine = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            mine.add(target[8:-1])
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                for line in list(handle)[1:]:
                    fields = line.split()
                    if fields[3] == "0A" and fields[9] in mine:  # TCP_LISTEN
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except OSError:
            pass
    return ports


def _shm_blocks() -> set[str]:
    """Python shared-memory blocks (``psm_*``) present in /dev/shm."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _children() -> list[str]:
    """Live direct children of this process (zombies excluded)."""
    found = []
    me = str(os.getpid())
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.append(pid)
    return found


def git_status(root: str) -> str | None:
    """``git status --porcelain`` of ``root``; ``None`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class Guard:
    """Snapshot taken before a run; :meth:`violations` compares after."""

    def __init__(self, root: str):
        self.root = root
        self.shm = _shm_blocks()
        self.ports = _listening_ports()
        self.git = git_status(root)

    def violations(self, scratch: str) -> list[str]:
        problems = []
        if not _wait_until(lambda: not _children(), 5.0):
            problems.append(f"child processes survive: {_children()}")
        leaked = _shm_blocks() - self.shm
        if leaked:
            problems.append(f"new /dev/shm blocks: {sorted(leaked)}")
        # A listener whose owner closed it while its accept() was blocked
        # in another thread lingers until that accept returns
        # (TcpTransport.close does this today); one connection wakes it.
        # Only a socket that is still accepting afterwards was left open.
        opened = _listening_ports() - self.ports
        for port in opened:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            except OSError:
                pass
        if not _wait_until(lambda: not _listening_ports() - self.ports, 2.0):
            problems.append(
                "listening sockets left: "
                f"{sorted(_listening_ports() - self.ports)}"
            )
        elif opened:
            print(f"note: {len(opened)} closed listener(s) lingered until "
                  "woken (accept thread blocked past close())", file=sys.stderr)
        if os.listdir(scratch):
            problems.append(f"scratch not empty: {os.listdir(scratch)}")
        if self.git is not None and git_status(self.root) != self.git:
            problems.append("git status changed during the run")
        return problems
