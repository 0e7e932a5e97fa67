"""Child-process helpers: spawn until a ready line, stop, confirm gone."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from queue import Empty, Queue


class Child:
    """A started process whose stdout lines arrive on a queue."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                     bufsize=1)
        self.lines = Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def next_line(self, timeout):
        """The next stdout line, or ``None`` at EOF or after ``timeout``."""
        try:
            return self.lines.get(timeout=timeout)
        except Empty:
            return None

    def last_line(self, timeout):
        """Wait for exit (up to ``timeout``); return the final stdout line."""
        last, deadline = None, time.monotonic() + timeout
        while True:
            line = self.next_line(max(0.0, deadline - time.monotonic()))
            if line is None:
                return last
            last = line

    def stop(self, timeout):
        """Wait up to ``timeout`` for exit, then kill; returns the code.

        A process that had to be killed reports ``None``.
        """
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        return code


def spawn_ready(argv, prefix, timeout=120.0):
    """Start ``argv``; return ``(child, seconds, line)`` at its ready line.

    The ready line is the first stdout line starting with ``prefix``.
    Raises ``RuntimeError`` (after stopping the child) if it never comes.
    """
    started = time.perf_counter()
    child = Child(argv)
    deadline = time.monotonic() + timeout
    while True:
        line = child.next_line(max(0.0, deadline - time.monotonic()))
        if line is None:
            child.stop(timeout=5)
            raise RuntimeError(f"{argv[1]} exited before it was ready")
        if line.startswith(prefix):
            return child, time.perf_counter() - started, line


def _stat(pid):
    """``(state, parent pid)`` from ``/proc``, or ``None`` once gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def live_children():
    """PIDs of this process's children that are still running."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        stat = _stat(entry) if entry.isdigit() else None
        if stat is not None and stat[1] == me and stat[0] != "Z":
            pids.append(int(entry))
    return pids


def survivors(pids, grace):
    """PIDs still alive after ``grace`` seconds; those are then killed."""
    deadline = time.monotonic() + grace
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [pid for pid in left if alive(pid)]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while any(alive(pid) for pid in left) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left
