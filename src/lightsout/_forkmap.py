"""A map over forked worker processes, for the census.

``forked_map`` runs a function over a task list in children forked from
the caller, with ``os``, ``select`` and ``marshal`` alone: no process
pool, no pickling and no helper threads. The children pull their tasks
from one shared token pipe, the idiom of GNU make's jobserver, so the
parent hands nothing out. It lives apart from :mod:`lightsout.scan` so
that only a census that forks pays to load it.
"""

from __future__ import annotations

import marshal
import os
import select
import signal
from typing import Any, Callable, Iterable, Iterator


def forked_map(fn: Callable[..., Any], tasks: Iterable[tuple], workers: int) -> Iterator[Any]:
    """``starmap(fn, tasks)`` run by ``workers`` forked children, yielded in task order.

    The children inherit the task list, so no task is pickled. They pull
    tasks as from a jobserver: one token, the 4-byte index of the next
    task, sits in a pipe they share. A child takes it, puts back the next
    index, and on its own result pipe writes the index it took, then the
    result as length-prefixed ``marshal`` bytes. The parent only reads.
    On every way out it closes its pipes, kills any child still running
    and reaps them all; a child that dies holding a task, or exits
    nonzero, raises ``RuntimeError``.
    """
    tasks = list(tasks)
    token = os.pipe()
    os.write(token[1], bytes(4))  # index 0
    pids: dict[int, int] = {}  # result fd -> pid (0 until forked), until reaped
    held: dict[int, int] = {}  # result fd -> index its child claimed
    done: dict[int, Any] = {}
    try:
        for _ in range(workers):
            fd, result_w = os.pipe()
            pids[fd] = 0
            try:
                if (pid := os.fork()) == 0:
                    _serve(fn, tasks, *token, result_w)  # never returns
            finally:
                os.close(result_w)
            pids[fd] = pid
        for i in range(len(tasks)):
            while i not in done:
                for fd in select.select(list(pids), [], [])[0]:
                    head = _read_exact(fd, 4)
                    if fd in held:
                        index = held.pop(fd)
                        size = int.from_bytes(head, "little")
                        body = _read_exact(fd, size)
                        if len(head) < 4 or len(body) < size:
                            raise RuntimeError(f"a worker exited before returning block {index}")
                        done[index] = marshal.loads(body)
                    elif head:
                        held[fd] = int.from_bytes(head, "little")
                    else:  # its child put the token back and exited, or died between blocks
                        os.close(fd)
                        if os.waitpid(pids.pop(fd), 0)[1]:
                            raise RuntimeError("a worker died between blocks")
            yield done.pop(i)
    finally:
        for fd in (*token, *pids):
            os.close(fd)
        for pid in filter(None, pids.values()):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn: Callable[..., Any], tasks: list[tuple], token_r: int, token_w: int,
           result_fd: int) -> None:
    """A forked child: claim and run tasks by the token until its index passes the last.

    It never returns into the caller's code and never flushes the parent's
    stdio or runs ``atexit``: every way out is ``os._exit``.
    """
    code = 1
    try:
        while (index := int.from_bytes(_read_exact(token_r, 4), "little")) < len(tasks):
            os.write(token_w, (index + 1).to_bytes(4, "little"))
            os.write(result_fd, index.to_bytes(4, "little"))
            body = marshal.dumps(fn(*tasks[index]))
            view = memoryview(len(body).to_bytes(4, "little") + body)
            while view:
                view = view[os.write(result_fd, view):]
        os.write(token_w, index.to_bytes(4, "little"))  # the others stop on it too
        code = 0
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _read_exact(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer only at end of file."""
    data = b""
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data
