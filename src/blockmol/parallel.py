"""Run a function over consecutive row chunks, one forked process per CPU.

Chunk 0 runs in this process; every other chunk runs in a child forked for
it, which pickles its result back through a pipe.  Results come back in
chunk order, so a caller that joins them gets the same output for any
process count.  Stdlib only: ``os.fork``, ``os.pipe`` and ``pickle``.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading

log = logging.getLogger(__name__)


def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def chunk_bounds(n: int, min_rows: int) -> list[tuple[int, int]]:
    """Consecutive (lo, hi) bounds covering n rows, one chunk per CPU but none
    of fewer than ``min_rows`` rows; one chunk where forking is missing or
    unsafe, as it is once a second thread runs."""
    count = max(1, min(cpu_count(), n // min_rows))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        count = 1
    edges = [n * k // count for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def map_rows(fn, rows: list, min_rows: int, name: str, unit: str) -> list:
    """``[fn(row) for row in rows]`` over ``chunk_bounds`` through
    ``map_chunks``; logs ``<name>: processes N, <unit> per chunk a, b``."""
    bounds = chunk_bounds(len(rows), min_rows)
    log.info("%s: processes %d, %s per chunk %s", name, len(bounds), unit,
             ", ".join(str(hi - lo) for lo, hi in bounds))
    chunks = map_chunks(lambda lo, hi: [fn(row) for row in rows[lo:hi]], bounds)
    return [result for chunk in chunks for result in chunk]


def map_chunks(fn, bounds: list[tuple[int, int]]) -> list:
    """``[fn(lo, hi) for lo, hi in bounds]``, each chunk after the first in a
    forked child.  A child's exception, or its death by a signal, raises
    RuntimeError naming the chunk.  Every child is reaped before the call
    returns or raises; one still running when the call fails is killed."""
    pipes = {}  # pid -> read end of its pipe, for each child not yet reaped
    try:
        for lo, hi in bounds[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, lo, hi, read, write)
            os.close(write)
            pipes[pid] = read
        results = [fn(*bounds[0])]
        for chunk, pid in enumerate(list(pipes), start=1):
            with open(pipes[pid], "rb", closefd=False) as fh:
                payload = fh.read()
            _, status = os.waitpid(pid, 0)
            os.close(pipes.pop(pid))
            results.append(_result(chunk, os.waitstatus_to_exitcode(status), payload))
        return results
    finally:
        for pid, read in pipes.items():
            os.close(read)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _child(fn, lo: int, hi: int, read: int, write: int):
    """Run one chunk in a forked child and send (ok, result or error text)
    down the pipe; never returns."""
    code = 1
    try:
        os.close(read)
        try:
            payload = pickle.dumps((True, fn(lo, hi)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            payload = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
        with open(write, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def _result(chunk: int, code: int, payload: bytes):
    if code < 0:
        raise RuntimeError(f"chunk {chunk}: worker killed by signal {-code}")
    if code or not payload:
        raise RuntimeError(f"chunk {chunk}: worker exited with status {code}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"chunk {chunk} failed: {value}")
    return value
