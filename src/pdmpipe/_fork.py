"""Work split into parts, every part after the first done by a forked child.

``_bounds`` plans the parts and ``_children`` starts their children. A
child writes what it makes into a file, which the parent reads back in part
order, so the result is the same for any number of parts. The table writer
streams row parts through ``_children`` itself. ``_gather`` hands back
each part's result: the forest fit grows tree parts with it, the simulator
builds channel parts and the spike screen screens channel parts.

Every other stage runs in this process. The ICS row screen works per
sequence id, and two ids hold most rows (250,800 of the 320,100 rows of a
110-cycle run), so per-id parts would leave one CPU waiting on the other.

``_cpus`` counts the CPUs in the affinity mask, not the idle ones: on a
machine whose CPUs are busy a stage still splits, and its parts then
share the CPUs with the other work.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import tempfile

_CAUSE_BYTES = 512   # of a failed child's cause: an atomic write to an empty pipe


def _cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bounds(units: int, least: int) -> list:
    """Bounds of the parts ``units`` units of work are cut in, from 0 to
    ``units``: one contiguous part per CPU, each of at least ``least``
    units, or else one part."""
    parts = max(1, min(_cpus(), units // least))
    return [k * units // parts for k in range(parts + 1)]


class _Child:
    """``work(file)`` run by a forked child into an unlinked temporary file in
    ``folder`` (None: the default temporary directory); ``name`` says in an
    error which process failed.

    The child does nothing else, and ends with ``os._exit``: it flushes no
    file it shares with the parent and runs no exit handler. A child that
    fails sends ``TypeName: message`` of its exception back through a pipe.
    The parent reaps it in ``join``, or kills and reaps it in ``close``.
    """

    def __init__(self, name, work, folder=None):
        self.name = name
        self.file = tempfile.TemporaryFile(dir=folder)
        try:
            self.cause, report = os.pipe()
        except BaseException:
            self.file.close()
            raise
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(report)
            os.close(self.cause)
            self.file.close()
            raise
        if self.pid == 0:
            status = 1
            try:
                work(self.file)
                self.file.flush()
                status = 0
            except Exception as exc:
                os.write(report, f"{type(exc).__name__}: {exc}".encode()[:_CAUSE_BYTES])
            finally:
                os._exit(status)
        os.close(report)

    def join(self):
        """Wait for the child; returns its file, read from the start. A child
        that failed raises a ``RuntimeError`` naming it and its cause."""
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status:
            cause = os.read(self.cause, _CAUSE_BYTES).decode(errors="replace")
            raise RuntimeError(f"{self.name} exited with status {status}"
                               + (f": {cause}" if cause else ""))
        self.file.seek(0)
        return self.file

    def close(self) -> None:
        """Kill and reap the child unless it was reaped, and drop its pipe and file."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.cause)
        self.file.close()


@contextlib.contextmanager
def _children(bounds, what, work, folder=None):
    """Start one ``_Child`` for every part of ``bounds`` after the first, in
    order, and yield the list. The child of part ``lo:hi`` runs
    ``work(file, lo, hi)`` and is named ``f"{what} {lo} to {hi}"``. On
    leaving, every child is reaped (killed first if it still runs) and its
    file dropped, also when the block or a fork fails."""
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_Child(f"{what} {lo} to {hi}",
                                   lambda file, lo=lo, hi=hi: work(file, lo, hi), folder))
        yield children
    finally:
        for child in children:
            child.close()


def _gather(units, least, what, work) -> list:
    """``work(lo, hi)`` for every part of ``_bounds(units, least)``, each
    part's result in part order. This process does the first part; the
    child of each other part pickles its result into its file. A child that
    fails raises the ``RuntimeError`` of ``_Child.join``, named as
    ``_children`` names it, and no child outlives the call."""
    bounds = _bounds(units, least)
    with _children(bounds, what, lambda file, lo, hi: pickle.dump(
            work(lo, hi), file, pickle.HIGHEST_PROTOCOL)) as children:
        results = [work(bounds[0], bounds[1])]
        results += [pickle.load(child.join()) for child in children]
    return results
