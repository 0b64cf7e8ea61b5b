"""Ordered map over forked worker processes. Results are merged in call
order, so every output is bitwise independent of the worker count."""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal

# Inputs with fewer rows run in-process. On a 2-vCPU host a fork and join
# costs 2.4-3 ms: forked k-means broke even at 500 rows (K=20, 4 restarts),
# and forking the benchmark's 120-row warm-up took it from 40 to 70 ms.
FORK_MIN_ROWS = 1000


def ordered_map(fn, calls: list, workers: int, rows: int) -> list:
    """``[fn(*a) for a in calls]``, call i run by process ``i % n`` of
    ``n = min(workers, len(calls))`` when the input has ``FORK_MIN_ROWS`` rows.

    Process 0 is the caller. The others are forked children that pickle
    their results, or the exception that stopped them, into a pipe and end in
    ``os._exit``, so a child never unwinds into the caller's stack. The first
    failure in call order is raised once every child is reaped. BLAS runs one
    thread per process meanwhile: two processes of two BLAS threads on two
    cores made k-means slower than serial (2.9 against 1.8 s, 6000 rows).
    """
    n = min(workers, len(calls)) if rows >= FORK_MIN_ROWS else 1
    if n <= 1:
        return [fn(*a) for a in calls]
    get_threads, set_threads = _openblas()
    threads = get_threads()
    children = []
    try:
        set_threads(1)
        for i in range(1, n):
            children.append(_fork(fn, calls[i::n]))
        shares = [[fn(*a) for a in calls[0::n]]]
        while children:
            shares.append(_join(*children.pop(0)))
    finally:
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        set_threads(threads)
    out = [None] * len(calls)
    for i, share in enumerate(shares):
        out[i::n] = share
    return out


def _fork(fn, share: list) -> tuple[int, int]:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        try:
            blob = pickle.dumps((True, [fn(*a) for a in share]))
        except BaseException as exc:  # sent to the caller, which raises it
            blob = pickle.dumps((False, exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(blob)
        status = 0
    finally:
        os._exit(status)


def _join(pid: int, fd: int) -> list:
    try:
        with os.fdopen(fd, "rb") as pipe:
            blob = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not blob:
        raise RuntimeError(f"worker process {pid} exited with status {code}")
    ok, value = pickle.loads(blob)
    if not ok:
        raise value
    return value


@functools.cache
def _openblas():
    """(get, set) for the thread count of the OpenBLAS numpy loaded; without
    OpenBLAS, two functions that do nothing."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:  # e.g. a library deleted since it was loaded
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(dll, name.format("get")):
                return getattr(dll, name.format("get")), getattr(dll, name.format("set"))
    return (lambda: None), (lambda threads: None)
