"""Child processes of a multi-worker run: a task mapped over shares of trial ranges.

:func:`.simulation._reduce` imports this module on its first multi-worker
call, so a serial run neither compiles nor loads it. The task takes one
range and returns its float64 rows. On Linux a child is made by ``os.fork``
and pickles its messages onto a raw ``os.pipe``; elsewhere it is a
``multiprocessing.Process`` under the default start method, sending them
through a ``multiprocessing`` pipe. A child computes its whole share (it
would block on a full pipe while the caller evaluates its own), then sends
``None`` or the error its share raised, then each range's rows as ``bytes``:
every child is a fresh process, where an array's first pickle is slow.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator

import numpy as np


def _send(dump: Callable, task: Callable, share: list[range]) -> None:
    """A child's messages through ``dump``: ``None`` or its error, then each range's rows."""
    try:
        parts, error = [task(trials) for trials in share], None
    except Exception as raised:
        parts, error = [], raised
    try:  # an error the caller could not rebuild is sent by name
        pickle.loads(pickle.dumps(error))
    except Exception:
        error = RuntimeError(f"a worker process raised {type(error).__name__}: {error}")
    for message in (error, *(part.tobytes() for part in parts)):
        dump(message)


def _rows(child, share: list[range]) -> Iterator[np.ndarray]:
    """A child's rows in trial order, one range at a time; its error is raised."""
    try:
        error = child.load()
        for trials in share if error is None else ():
            yield np.frombuffer(child.load()).reshape(len(trials), -1)
    except child.ended:
        raise RuntimeError(f"a worker process exited with code {child.exit_code()} "
                           "before sending all its trials") from None
    if error is not None:
        raise error


class _Forked:
    """A child made by ``os.fork``, pickling to a raw ``os.pipe`` (Linux)."""

    ended = (EOFError, pickle.UnpicklingError)

    def __init__(self, task: Callable, share: list[range]):
        fd_read, fd_write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(fd_read)
            os.close(fd_write)
            raise
        if not self.pid:  # the child leaves by os._exit, never into the caller's stack
            code = 1
            try:
                os.close(fd_read)
                with open(fd_write, "wb") as stream:
                    _send(partial(pickle.dump, file=stream), task, share)
                code = 0
            finally:
                os._exit(code)
        os.close(fd_write)  # then only the child holds it: its exit reads as EOF
        self.stream, self.status = open(fd_read, "rb"), None
        self.load = partial(pickle.load, self.stream)

    def exit_code(self) -> int:
        """The child's exit code (minus the signal that ended it), once it has exited."""
        if self.status is None:
            self.status = os.waitpid(self.pid, 0)[1]
        return os.waitstatus_to_exitcode(self.status)

    def terminate(self) -> None:
        if self.status is None:  # a reaped child's pid may be another process's by now
            os.kill(self.pid, signal.SIGTERM)

    def close(self) -> None:
        self.exit_code()
        self.stream.close()


class _Process:
    """A ``multiprocessing.Process``, sending its messages through a ``multiprocessing`` pipe."""

    ended = (EOFError, OSError)  # OSError: the pipe ended inside a message

    def __init__(self, task: Callable, share: list[range]):
        import multiprocessing  # here: Linux never loads it

        self.conn, send = multiprocessing.Pipe(duplex=False)
        self.process = multiprocessing.Process(target=_send, args=(send.send, task, share))
        with send:  # then only the child holds it: its exit reads as EOF
            self.process.start()
        self.load = self.conn.recv

    def exit_code(self) -> int:
        self.process.join()
        return self.process.exitcode

    def terminate(self) -> None:
        self.process.terminate()

    def close(self) -> None:
        self.process.join()
        self.conn.close()


@contextmanager
def children(task: Callable[[range], np.ndarray], shares: list[list[range]]):
    """Run ``task`` over each share in a child; give each child's rows lazily, in trial order.

    On any error every child not yet reaped is sent SIGTERM. Every child is
    reaped, and its pipe closed, before the ``with`` block is left.
    """
    start = _Forked if sys.platform == "linux" else _Process
    started = []
    try:
        for share in shares:
            started.append(start(task, share))
        yield [_rows(child, share) for child, share in zip(started, shares)]
    except BaseException:
        for child in started:
            child.terminate()
        raise
    finally:
        for child in started:
            child.close()
