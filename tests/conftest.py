"""Snapshot files in both formats, and byte-level edits of them; the
process map (fields.fork_map) kept in one process or forced onto a count
of processes, and blocks that must leave no child process."""

import contextlib
import io
import os
import signal
import sys

import numpy as np
import pytest

from qnslab import fields
from qnslab.fields import ScalarField
from qnslab.snapshots import write_field

HEADER_LINES = 9    # the magic line, seven header lines, the data marker


class SnapshotFiles:
    """Writes a field as a version-1 text or version-2 snapshot and edits
    the file's bytes: a version-2 payload does not decode as text."""

    formats = ("v1", "v2")

    def write(self, fmt, path, field, name="rho", time=0.0):
        """path, holding field as write_field writes it (v2) or as the
        version-1 writer did (v1): its header, then the values as
        np.savetxt(fmt="%.17g") writes them."""
        if fmt == "v2":
            write_field(path, field, name, time)
            return path
        grid = field.grid
        scalar = isinstance(field, ScalarField)
        head = "".join(line + "\n" for line in (
            "# qnslab-field v1",
            f"dim: {grid.dim}",
            "n: " + " ".join(str(m) for m in grid.n),
            "length: " + " ".join(repr(L) for L in grid.length),
            f"name: {name}",
            f"time: {time!r}",
            "kind: " + ("scalar" if scalar else "vector"),
            f"components: {1 if scalar else grid.dim}",
            "data:"))
        buf = io.BytesIO()
        np.savetxt(buf, field.values.reshape(-1), fmt="%.17g")
        path.write_bytes(head.encode() + buf.getvalue())
        return path

    @staticmethod
    def split(path):
        """(header bytes through the data marker line, payload bytes)."""
        parts = path.read_bytes().split(b"\n", HEADER_LINES)
        return b"\n".join(parts[:HEADER_LINES]) + b"\n", parts[-1]

    def edit(self, path, header=None, payload=None):
        """Replaces the header and/or the payload bytes of path."""
        old_header, old_payload = self.split(path)
        path.write_bytes((old_header if header is None else header)
                         + (old_payload if payload is None else payload))

    def drop_values(self, path, count):
        """Cuts the last count values off the payload of path."""
        header, payload = self.split(path)
        if header.startswith(b"# qnslab-field v1"):
            payload = b"".join(payload.splitlines(keepends=True)[:-count])
        else:
            payload = payload[:-8 * count]
        self.edit(path, payload=payload)

    def set_header_line(self, path, key, value):
        """Sets the header line of key to "key: value"."""
        header, _ = self.split(path)
        self.edit(path, header=b"".join(
            f"{key}: {value}\n".encode() if line.startswith(f"{key}:".encode())
            else line for line in header.splitlines(keepends=True)))


@pytest.fixture
def snapfiles():
    return SnapshotFiles()


@pytest.fixture
def serial(monkeypatch):
    """fork_map runs every job in this process, as on a one-CPU machine:
    what a test counts in the process of a seeded verify pass is the whole
    pass's work."""
    monkeypatch.setattr(fields, "_workers", lambda jobs: 1)


forking = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "fork"),
    reason="fork_map forks workers on Linux only")


def force_workers(monkeypatch, count):
    """fork_map on count processes (at most one per job, and at most its
    cap), whatever the machine's CPUs; returns the list each os.fork call
    appends to."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(fields, "_workers", lambda jobs: min(count, jobs))
    return forks


@contextlib.contextmanager
def no_child_left(seconds=60):
    """A block that must end within seconds (SIGALRM raises TimeoutError
    in it; a forked child inherits no timer) and leave no child process,
    running or unreaped."""
    def expire(signum, frame):
        raise TimeoutError(f"not done in {seconds} s")
    saved = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
