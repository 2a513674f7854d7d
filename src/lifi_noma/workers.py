"""Child processes of a multi-worker run, one per share of its trial ranges.

:func:`.simulation._reduce` imports this module on its first multi-worker
call, so a serial run neither compiles nor loads it. On Linux a child is
made by ``os.fork`` and writes to a raw ``os.pipe``; elsewhere it is a
``multiprocessing.Process`` under the default start method, writing to a
``multiprocessing`` pipe. Either way the child sends one stream, in the
units the caller reads: the length of a pickled header (8 bytes,
little-endian), the header (``None``, or the error its share raised), then
its float64 rows, one range after another.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from . import simulation


def _header(error: Exception | None) -> bytes:
    """``error`` pickled if the caller can rebuild it, else a RuntimeError naming it."""
    try:
        header = pickle.dumps(error)
        pickle.loads(header)
    except Exception:
        header = pickle.dumps(RuntimeError(f"a worker process raised {type(error).__name__}: {error}"))
    return header


def _send(write: Callable, config, share: list[range], caps_dl, caps_ul) -> None:
    """A child's share through ``write``: its header, then its rows one range at a time."""
    try:
        parts, error = [simulation._chunk_values(config, trials, caps_dl, caps_ul)
                        for trials in share], None
    except Exception as raised:
        parts, error = [], raised
    header = _header(error)
    for data in (len(header).to_bytes(8, "little"), header, *parts):
        write(data)


def _rows(child, share: list[range], columns: int) -> Iterator[np.ndarray]:
    """A child's rows in trial order, one range at a time; its error is raised."""

    def read(size: int) -> bytes:
        data = child.read(size)
        if len(data) != size:
            raise RuntimeError(f"a worker process exited with code {child.exit_code()} "
                               "before sending all its trials")
        return data

    error = pickle.loads(read(int.from_bytes(read(8), "little")))
    for trials in share if error is None else ():
        yield np.frombuffer(read(8 * len(trials) * columns)).reshape(len(trials), columns)
    if error is not None:
        raise error


class _Forked:
    """A child made by ``os.fork``, writing to a raw ``os.pipe`` (Linux)."""

    def __init__(self, *task):
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
                    _send(stream.write, *task)
                code = 0
            finally:
                os._exit(code)
        os.close(fd_write)  # then only the child holds it: its exit reads as EOF
        self.stream, self.status = open(fd_read, "rb"), None

    def read(self, size: int) -> bytes:
        return self.stream.read(size)

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
    """A ``multiprocessing.Process``, writing one message per unit to its pipe."""

    def __init__(self, *task):
        import multiprocessing  # here: Linux never loads it

        self.conn, send = multiprocessing.Pipe(duplex=False)
        self.process = multiprocessing.Process(target=_send, args=(send.send_bytes, *task))
        with send:  # then only the child holds it: its exit reads as EOF
            self.process.start()

    def read(self, size: int) -> bytes:
        try:
            return self.conn.recv_bytes()
        except EOFError:
            return b""

    def exit_code(self) -> int:
        self.process.join()
        return self.process.exitcode

    def terminate(self) -> None:
        self.process.terminate()

    def close(self) -> None:
        self.process.join()
        self.conn.close()


@contextmanager
def children(config, shares: list[list[range]], caps_dl, caps_ul, columns: int):
    """Start one child per share; give each child's rows, lazily and in trial order.

    On any error every child not yet reaped is sent SIGTERM. Every child is
    reaped, and its pipe closed, before the ``with`` block is left.
    """
    start = _Forked if sys.platform == "linux" else _Process
    started = []
    try:
        for share in shares:
            started.append(start(config, share, caps_dl, caps_ul))
        yield [_rows(child, share, columns) for child, share in zip(started, shares)]
    except BaseException:
        for child in started:
            child.terminate()
        raise
    finally:
        for child in started:
            child.close()
