"""A map over forked worker processes, for the census.

``forked_map`` runs a function over a task list in children forked from
the caller, with ``os``, ``select`` and ``marshal`` alone: no process
pool, no pickling and no helper threads. It lives apart from
:mod:`lightsout.scan` so that only a census that forks pays to load it.
"""

from __future__ import annotations

import marshal
import os
import select
import signal
from typing import Any, Callable, Iterable, Iterator


def forked_map(fn: Callable[..., Any], tasks: Iterable[tuple], workers: int) -> Iterator[Any]:
    """``starmap(fn, tasks)`` run by ``workers`` forked children, yielded in task order.

    The children inherit the task list, so no task is pickled. Each child
    has its own task pipe and result pipe, and is handed a 4-byte task
    index at a time, one more whenever it returns a result, so it holds at
    most two and no pipe fills however many tasks there are. A result
    comes back as length-prefixed ``marshal`` bytes. On every way out the
    parent closes its pipes, kills any child still running and reaps them
    all; a child that exits without a result raises ``RuntimeError``.
    """
    tasks = list(tasks)
    unsent = iter(range(len(tasks)))
    held: dict[int, list[int]] = {}  # result fd -> [task fd, indices it holds, oldest first]
    done: dict[int, Any] = {}
    pids: list[int] = []
    ours: list[int] = []  # the parent's pipe ends

    def hand(queue: list[int]) -> None:
        index = next(unsent, None)
        if index is not None:
            queue.append(index)
            try:
                os.write(queue[0], index.to_bytes(4, "little"))
            except BrokenPipeError:  # the child is gone; its result pipe says so
                pass

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            ours += task_w, result_r
            try:
                if (pid := os.fork()) == 0:
                    _serve(fn, tasks, task_r, result_w, ours)  # never returns
            finally:
                os.close(task_r)
                os.close(result_w)
            pids.append(pid)
            held[result_r] = [task_w]
        for _ in range(2):
            for queue in held.values():
                hand(queue)
        for i in range(len(tasks)):
            while i not in done:
                busy = [fd for fd, queue in held.items() if len(queue) > 1]
                for fd in select.select(busy, [], [])[0]:
                    index = held[fd].pop(1)
                    head = _read_exact(fd, 4)
                    size = int.from_bytes(head, "little")
                    body = _read_exact(fd, size)
                    if len(head) < 4 or len(body) < size:
                        raise RuntimeError(f"a worker exited before returning block {index}")
                    done[index] = marshal.loads(body)
                    hand(held[fd])
            yield done.pop(i)
    finally:
        for fd in ours:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn: Callable[..., Any], tasks: list[tuple], task_fd: int, result_fd: int,
           inherited: list[int]) -> None:
    """A forked child: run each task whose index arrives on ``task_fd``, until EOF.

    It never returns into the caller's code and never flushes the parent's
    stdio or runs ``atexit``: every way out is ``os._exit``.
    """
    code = 1
    try:
        for fd in inherited:  # the parent's pipe ends, held open here, would hide EOFs
            os.close(fd)
        while len(index := _read_exact(task_fd, 4)) == 4:
            body = marshal.dumps(fn(*tasks[int.from_bytes(index, "little")]))
            view = memoryview(len(body).to_bytes(4, "little") + body)
            while view:
                view = view[os.write(result_fd, view):]
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
