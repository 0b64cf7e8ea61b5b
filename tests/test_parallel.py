"""Ordered map over forked workers, and errors that cross the pipe."""

import os
import pickle
import time

import numpy as np
import pytest

from selflabel import _parallel, pipeline
from selflabel._parallel import FORK_MIN_ROWS, ordered_map
from selflabel.clustering import kmeans
from selflabel.errors import SelfLabelError, TrainingError


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children ``os.fork`` starts during the test."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def where(i):
    return i, os.getpid()


def test_call_order_kept_with_uneven_shares(forks):
    out = ordered_map(where, [(i,) for i in range(7)], workers=3, rows=FORK_MIN_ROWS)
    assert [i for i, _ in out] == list(range(7))
    assert len(forks) == 2
    # call i ran in process i % 3; process 0 is the caller
    pids = [os.getpid()] + forks
    assert [pid for _, pid in out] == [pids[i % 3] for i in range(7)]
    assert_reaped(forks)


def test_one_worker_or_few_rows_run_serially(forks):
    calls = [(i,) for i in range(5)]
    expected = [(i, os.getpid()) for i in range(5)]
    assert ordered_map(where, calls, workers=1, rows=FORK_MIN_ROWS) == expected
    assert ordered_map(where, calls, workers=2, rows=FORK_MIN_ROWS - 1) == expected
    assert not forks


def test_killed_child_raises_naming_its_status(forks):
    def fn(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="status 3"):
        ordered_map(fn, [(i,) for i in range(4)], workers=2, rows=FORK_MIN_ROWS)
    assert_reaped(forks)


def test_unpicklable_result_leaves_callers_staging_intact(tmp_path, forks):
    with pipeline._staged(tmp_path / "round") as tmp:
        tmp.mkdir()
        (tmp / "kept.txt").write_text("kept\n")
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            ordered_map(lambda i: (lambda: i), [(0,), (1,)], workers=2, rows=FORK_MIN_ROWS)
        # a child that unwound into this block would have removed the staging dir
        assert (tmp / "kept.txt").read_text() == "kept\n"
    assert (tmp_path / "round" / "kept.txt").is_file()
    assert_reaped(forks)


def test_callers_own_failure_reaps_every_child(forks):
    def fn(i):
        if i == 0:
            raise ValueError("caller's share")
        time.sleep(0.2)
        return i

    with pytest.raises(ValueError, match="caller's share"):
        ordered_map(fn, [(i,) for i in range(3)], workers=3, rows=FORK_MIN_ROWS)
    assert len(forks) == 2
    assert_reaped(forks)


def test_training_error_in_child_reaches_caller_unchanged(forks):
    def fn(i):
        if i == 1:
            raise TrainingError("classifier training diverged at epoch 3", 3)
        return i

    with pytest.raises(TrainingError) as info:
        ordered_map(fn, [(0,), (1,)], workers=2, rows=FORK_MIN_ROWS)
    assert forks
    assert str(info.value) == "classifier training diverged at epoch 3"
    assert info.value.epoch == 3
    assert info.value.exit_code == 4


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", [SelfLabelError, *_subclasses(SelfLabelError)])
def test_errors_survive_pickling(cls):
    exc = cls("what went wrong", 7) if issubclass(cls, TrainingError) else cls("what went wrong")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == "what went wrong"
    assert back.exit_code == exc.exit_code
    assert getattr(back, "epoch", None) == getattr(exc, "epoch", None)



def test_blas_runs_one_thread_per_process_while_forked(forks):
    get, set_threads = _parallel._openblas()
    before = get()
    if before is None:
        pytest.skip("numpy is not linked to OpenBLAS")
    set_threads(2)
    try:
        out = ordered_map(lambda i: get(), [(0,), (1,)], workers=2, rows=FORK_MIN_ROWS)
        assert out == [1, 1]
        assert forks
        assert get() == 2
    finally:
        set_threads(before)


def test_acceptance_criterion_07_input_forks_unpatched(forks):
    # the 2400-row worker-invariance check of criterion 07 must cover forking
    x = np.random.default_rng(9).standard_normal((2400, 5))
    kmeans(x, 6, restarts=3, seed=4, workers=2)
    assert len(forks) == 1
    assert_reaped(forks)
