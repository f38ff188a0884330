"""Chunked work in forked children: bounds, order, failures and reaping."""

import os
import signal
import threading
import time

import pytest

from blockmol import parallel


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("cpus,n,least,want", [
    (3, 7, 1, [(0, 2), (2, 4), (4, 7)]),
    (2, 255, 128, [(0, 255)]),
    (2, 256, 128, [(0, 128), (128, 256)]),
    (4, 300, 128, [(0, 150), (150, 300)]),
    (2, 0, 128, [(0, 0)]),
    (1, 5000, 128, [(0, 5000)]),
])
def test_chunk_bounds(monkeypatch, cpus, n, least, want):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    assert parallel.chunk_bounds(n, least) == want


def test_map_rows_keeps_row_order_across_processes(monkeypatch, caplog):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
    caplog.set_level("INFO", logger="blockmol")
    rows = ["a", "b", "c", "d", "e", "f", "g"]
    got = parallel.map_rows(lambda row: (row.upper(), os.getpid()), rows, 1, "test", "rows")
    assert [g[0] for g in got] == [row.upper() for row in rows]
    assert len({g[1] for g in got}) == 3 and got[0][1] == os.getpid()
    assert caplog.messages == ["test: processes 3, rows per chunk 2, 2, 3"]
    assert no_child_left()


def test_one_chunk_without_fork_or_beside_another_thread(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert parallel.chunk_bounds(10, 1) == [(0, 10)]
    finally:
        stop.set()
        other.join()
    assert parallel.chunk_bounds(10, 1) == [(0, 5), (5, 10)]
    monkeypatch.delattr(os, "fork")
    assert parallel.chunk_bounds(10, 1) == [(0, 10)]


def test_chunks_come_back_in_order_from_their_own_processes():
    me = os.getpid()
    got = parallel.map_chunks(lambda lo, hi: (lo, hi, os.getpid(), "x" * 100_000),
                              [(0, 1), (1, 5), (5, 9)])
    assert [g[:2] for g in got] == [(0, 1), (1, 5), (5, 9)]
    assert got[0][2] == me and len({g[2] for g in got}) == 3
    assert all(len(g[3]) == 100_000 for g in got)  # more than a pipe holds
    assert no_child_left()


def test_a_child_exception_names_its_chunk():
    def work(lo, hi):
        if lo == 4:
            raise KeyError("no such row")
        return lo

    with pytest.raises(RuntimeError, match=r"chunk 2 failed: KeyError: 'no such row'"):
        parallel.map_chunks(work, [(0, 2), (2, 4), (4, 6)])
    assert no_child_left()


def test_a_child_killed_by_a_signal_names_its_chunk():
    def work(lo, hi):
        if lo:
            os.kill(os.getpid(), signal.SIGKILL)
        return lo

    with pytest.raises(RuntimeError, match=f"chunk 1: worker killed by signal {signal.SIGKILL}"):
        parallel.map_chunks(work, [(0, 1), (1, 2)])
    assert no_child_left()


def test_a_failing_parent_chunk_kills_the_children_still_running():
    def work(lo, hi):
        if lo == 0:
            raise ValueError("parent chunk failed")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent chunk failed"):
        parallel.map_chunks(work, [(0, 1), (1, 2), (2, 3)])
    assert time.perf_counter() - start < 30
    assert no_child_left()
