"""Run tasks in this process and in forked copies of it, one per spare CPU.

A fit's L-BFGS restarts are Python loops around small BLAS calls, so threads
would take turns on the interpreter lock; a forked process has its own. Fork,
not spawn: a child starts as a copy of the parent, with the prepared batch
already in memory, so nothing is pickled on the way in and nothing is imported
again (a fresh interpreter takes longer than a whole fit at n <= 100).

Before forking, the parent writes every task index to one pipe. The parent and
its children then each read the next index whenever they are free, so a long
task does not hold up the others. Each child pickles its (index, result) pairs
back through a pipe of its own and leaves with `os._exit`, which runs no
atexit handler and flushes no stdio buffer copied from the parent. The parent
reaps every child before `run_tasks` returns or raises.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import traceback
import warnings
from typing import Callable, TypeVar

T = TypeVar("T")

_INDEX = struct.Struct("=I")


def spare_cpus() -> int:
    """CPUs this process may run on besides the one it runs on; 0 where the
    platform has no `os.fork` or no `os.sched_getaffinity`."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    return len(os.sched_getaffinity(0)) - 1


def run_tasks(fn: Callable[[int], T], count: int) -> list[T]:
    """`[fn(0), ..., fn(count - 1)]`, computed by this process and up to
    `count - 1` forked children, one per spare CPU.

    Each task runs once, in whichever process reads its index. `fn` may
    change state, but no task may depend on what another task changed: a
    child's changes stay in that child. An exception that `fn`
    raises in a child is raised here with its type and message; a child that
    dies first is a RuntimeError naming its exit status. With no spare CPU, or
    more indices than one atomic pipe write holds, every task runs here in
    order.
    """
    workers = min(spare_cpus(), count - 1)
    if workers < 1 or count * _INDEX.size > select.PIPE_BUF:
        return [fn(i) for i in range(count)]

    tasks, tasks_w = os.pipe()
    # one write of at most PIPE_BUF bytes, finished before any read, so each
    # read of _INDEX.size bytes returns one whole index until the pipe is empty
    os.write(tasks_w, b"".join(_INDEX.pack(i) for i in range(count)))
    os.close(tasks_w)
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers):
            results_r, results_w = os.pipe()
            pid = _fork()
            if pid == 0:
                _child(fn, tasks, results_w)
            os.close(results_w)
            children[pid] = results_r
        done = dict(_drain(fn, tasks))
        while children:
            pid, fd = children.popitem()
            try:
                with os.fdopen(fd, "rb") as results:
                    payload = results.read()
            finally:
                _, status = os.waitpid(pid, 0)
            done.update(_decode(pid, status, payload))
    finally:
        for pid, fd in children.items():
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        os.close(tasks)
    if sorted(done) != list(range(count)):
        raise RuntimeError(f"forked tasks returned indices {sorted(done)}, not 0..{count - 1}")
    return [done[i] for i in range(count)]


def _drain(fn: Callable[[int], T], tasks: int) -> list[tuple[int, T]]:
    """(index, fn(index)) for each index read from the task pipe until it is empty."""
    done = []
    while raw := os.read(tasks, _INDEX.size):
        (index,) = _INDEX.unpack(raw)
        done.append((index, fn(index)))
    return done


def _fork() -> int:
    # Python 3.12+ warns on every fork of a process with threads, since a lock
    # held by another thread stays locked in the child. The only other threads
    # here are OpenBLAS's idle pool, which OpenBLAS shuts down before a fork
    # through its pthread_atfork handler, and the child runs only this
    # package's numpy and scipy code, pickle and os calls before os._exit.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        return os.fork()


def _child(fn: Callable[[int], T], tasks: int, results_w: int) -> None:
    """Run tasks from the pipe, send back what they gave or raised, and exit;
    never returns into the caller's stack."""
    status = 1
    try:
        try:
            payload = pickle.dumps(("done", _drain(fn, tasks)))
        except BaseException as exc:  # reported to the parent, which re-raises it
            trace = traceback.format_exc()
            try:
                payload = pickle.dumps(("raised", exc, trace))
            except Exception:  # an exception holding what pickle cannot send
                plain = RuntimeError(f"{type(exc).__name__}: {exc}")
                payload = pickle.dumps(("raised", plain, trace))
        with os.fdopen(results_w, "wb") as results:
            results.write(payload)
        status = 0
    finally:
        os._exit(status)


def _decode(pid: int, status: int, payload: bytes) -> list:
    """The (index, result) pairs a reaped child sent; its exception re-raised;
    a RuntimeError if it died before sending them whole."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(
            f"forked worker {pid} {how} before returning its tasks "
            f"({len(payload)} bytes of results received)"
        )
    try:
        kind, *body = pickle.loads(payload)
    except Exception as exc:  # cut short, or naming a class that cannot be rebuilt here
        raise RuntimeError(
            f"forked worker {pid} exited with status 0, but its {len(payload)} bytes "
            f"of results do not unpickle: {exc!r}"
        ) from exc
    if kind == "raised":
        exc, trace = body
        raise exc from RuntimeError(f"raised in forked worker {pid}:\n{trace}")
    return body[0]
