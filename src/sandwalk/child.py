"""Work beside this process: forked children, and a count that they share."""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import traceback
from contextlib import suppress

__all__ = ["Child", "Counter", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, so that `taskset`
    limits them), or every CPU where the mask cannot be read."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class Child:
    """``fn(inbox, *args)`` run beside this process, as a context manager.

    Where ``os.fork`` exists and ``usable_cpus()`` is 2 or more, entering
    forks a child that runs ``fn`` over its inbox, an iterator of the
    objects ``send`` pickles to it on a pipe; otherwise ``result()`` runs
    ``fn`` in-process over them.  ``result()``, called once, ends the inbox,
    reaps the child and returns ``fn``'s value or raises its error of a type
    in ``errors``, pickled back on a second pipe; a nonzero exit status
    raises OSError naming the child by ``name``.  Leaving before ``result()``
    kills and reaps the child.  The child ignores SIGINT, writes the
    traceback of any other error to stderr and ends with ``os._exit``.
    Several may be open at once: a child closes the pipe ends this process
    holds of the others, so that each sees the end of its own inbox."""

    _parent_ends: set[int] = set()  # of the open Children's pipes, held by this process

    def __init__(self, name: str, fn, *args, errors: tuple):
        self.name, self._fn, self._args, self._errors = name, fn, args, errors
        self.pid = None
        self._sent = []

    def __enter__(self) -> Child:
        if hasattr(os, "fork") and usable_cpus() >= 2:
            fds = []
            try:
                for _ in range(2):
                    fds += os.pipe()
                pid = os.fork()
            except BaseException:  # a failed fork leaks no pipe
                for fd in fds:
                    os.close(fd)
                raise
            inbox_r, inbox_w, result_r, result_w = fds
            if pid == 0:
                for fd in (inbox_w, result_r, *Child._parent_ends):
                    os.close(fd)
                self._run(inbox_r, result_w)
            os.close(inbox_r)
            os.close(result_w)
            self._ends = inbox_w, result_r
            Child._parent_ends.update(self._ends)
            self.pid, self._inbox, self._result = pid, open(inbox_w, "wb"), open(result_r, "rb")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def send(self, obj) -> None:
        """Put ``obj`` in the child's inbox."""
        if self.pid is None:
            self._sent.append(obj)
            return
        try:
            pickle.dump(obj, self._inbox)
            self._inbox.flush()
        except BrokenPipeError as exc:
            raise OSError(f"{self.name} exited before the end of its inbox") from exc

    def result(self):
        """End the inbox and return ``fn``'s value."""
        if self.pid is None:
            return self._fn(iter(self._sent), *self._args)
        self._inbox.close()
        data = self._result.read()
        status = self._reap()
        if status:
            raise OSError(f"{self.name} exited with status {status}")
        value, raised = pickle.loads(data)
        if raised:
            raise value
        return value

    def _reap(self) -> int:
        """Close the pipes and reap the child; returns its exit code."""
        Child._parent_ends.difference_update(self._ends)
        with suppress(OSError):  # the flush of an object cut short by an error
            self._inbox.close()
        self._result.close()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def _run(self, inbox_fd: int, result_fd: int) -> None:
        """The child's side; never returns."""
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent kills it
            try:
                value = self._fn(_received(inbox_fd), *self._args), False
            except self._errors as exc:
                value = exc, True
            with open(result_fd, "wb") as fh:
                pickle.dump(value, fh)
            status = 0
        except BaseException:  # the parent sees only the exit status
            # straight to the descriptor: no buffer copied from the parent is flushed
            os.write(2, traceback.format_exc().encode())
            raise
        finally:
            os._exit(status)


def _received(fd: int):
    """The objects pickled on the pipe ``fd``, up to its end."""
    with open(fd, "rb") as fh:
        while True:
            try:
                yield pickle.load(fh)
            except EOFError:
                return


class Counter:
    """The count 0, 1, ..., n - 1, each value taken once by one of the
    processes forked while it is open: an unnamed temporary file that holds
    the values, whose offset the processes share, so that one read takes a
    value and moves the offset past it.  There is no step between a read
    and a write for a process to die in: a killed one takes no value with
    it but its own."""

    def __init__(self, n: int):
        self._n = n

    def __enter__(self) -> Counter:
        self._file = tempfile.TemporaryFile()
        self._file.write(b"".join(i.to_bytes(8, "little") for i in range(self._n)))
        self._file.seek(0)  # flushes the values, then rewinds the shared offset
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def take(self) -> int | None:
        """The next value of the count, or None once every value is taken."""
        data = os.read(self._file.fileno(), 8)
        return int.from_bytes(data, "little") if data else None
