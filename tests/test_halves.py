"""The two-part passes of kernels._halves: the helper's contract, and every
exp and discretization equal to the bit with and without the worker.

The split count comes from the process's CPU affinity, which the tests
monkeypatch: one CPU keeps every pass on the calling thread, two split it,
whatever the machine running the tests has.
"""

import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from beurling import kernels
from beurling.asymptotics import _tail_estimates
from beurling.grid import LogGrid
from beurling.measure import mellin
from beurling.systems import build_kahane_pi, kahane_tail


def _set_cpus(monkeypatch, count):
    # the CPU affinity, which may be missing on the test platform, and no
    # least size: with two CPUs, every pass of more than one unit splits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(kernels, "_SPLIT_MIN", 1)


def _recorded(calls):
    def fn(lo, hi):
        calls.append((lo, hi, threading.get_ident()))
    return fn


def test_two_cpus_split_at_an_aligned_midpoint(monkeypatch):
    _set_cpus(monkeypatch, 2)
    calls = []
    kernels._halves(_recorded(calls), 10, align=3)
    assert sorted(call[:2] for call in calls) == [(0, 6), (6, 10)]
    caller = threading.get_ident()
    assert [call[:2] for call in calls if call[2] == caller] == [(0, 6)]


def test_one_cpu_takes_the_unsplit_path(monkeypatch):
    _set_cpus(monkeypatch, 1)
    calls = []
    kernels._halves(_recorded(calls), 10)
    assert calls == [(0, 10, threading.get_ident())]


def test_one_part_stays_on_the_caller(monkeypatch):
    _set_cpus(monkeypatch, 2)
    calls = []
    kernels._halves(_recorded(calls), 5, align=8)
    assert calls == [(0, 5, threading.get_ident())]


def test_a_pass_below_the_least_size_stays_on_the_caller(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    calls = []
    kernels._halves(_recorded(calls), 10, points=kernels._SPLIT_MIN - 1)
    assert calls == [(0, 10, threading.get_ident())]
    calls.clear()
    kernels._halves(_recorded(calls), 10, points=kernels._SPLIT_MIN)
    assert sorted(call[:2] for call in calls) == [(0, 5), (5, 10)]


def test_worker_runs_under_the_callers_errstate(monkeypatch):
    # numpy's errstate is a context variable; a part run outside the
    # caller's context would warn, and the suite turns the warning into an
    # error raised on the worker and re-raised here
    _set_cpus(monkeypatch, 2)
    x = np.array([800.0, 800.0])
    out = np.empty(2)

    def fn(lo, hi):
        out[lo:hi] = np.exp(x[lo:hi]) * 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore", invalid="ignore"):
            kernels._halves(fn, 2)
    assert np.isnan(out).all()


def test_worker_exception_reaches_the_caller(monkeypatch):
    _set_cpus(monkeypatch, 2)
    done = []

    def fn(lo, hi):
        if lo > 0:
            raise KeyError("worker part")
        done.append((lo, hi))

    with pytest.raises(KeyError, match="worker part"):
        kernels._halves(fn, 4)
    assert done == [(0, 2)]
    # the worker serves the next split as before
    calls = []
    kernels._halves(_recorded(calls), 4)
    assert sorted(call[:2] for call in calls) == [(0, 2), (2, 4)]


def test_a_split_from_the_worker_runs_inline(monkeypatch):
    # the worker's part splits again; waiting for itself would deadlock, so
    # the nested call runs both of its parts on the worker
    _set_cpus(monkeypatch, 2)
    inner = []

    def fn(lo, hi):
        if lo > 0:
            kernels._halves(_recorded(inner), 6)

    caller = threading.Thread(target=kernels._halves, args=(fn, 2), daemon=True)
    caller.start()
    caller.join(timeout=20)
    assert not caller.is_alive(), "the nested split did not return"
    assert [call[:2] for call in inner] == [(0, 6)]
    assert inner[0][2] == kernels._worker.thread.ident


def test_concurrent_callers_share_one_worker(monkeypatch):
    # more calling threads than CPUs, switching often, split at once from
    # a process with no worker yet: one worker starts, and every part of
    # every split runs exactly once
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(kernels, "_worker", None)
    splits, width = 200, 8
    counts = [np.zeros(width, dtype=int) for _ in range(4)]
    runners = set()

    def split(count):
        def fn(lo, hi):
            count[lo:hi] += 1
            if lo > 0:
                runners.add(threading.get_ident())
        for _ in range(splits):
            kernels._halves(fn, width)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=split, args=(count,), daemon=True)
                   for count in counts]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all((count == splits).all() for count in counts)
    assert runners == {kernels._worker.thread.ident}


def _grid(n):
    return LogGrid(1e-4 if n > 100_000 else 1e-3, n)


@pytest.mark.parametrize("n", [40_001, 65_537, 500_001])
def test_split_passes_equal_serial_to_the_bit(monkeypatch, n):
    # every pass split by _halves writes what the unsplit pass writes, and
    # sums its blocks in the same order, on stacks of one to three rows
    grid = _grid(n)
    tail = kahane_tail(grid, weight_sigma=1.0).coeffs
    rows = np.stack([tail, build_kahane_pi(grid, weight_sigma=1.0).coeffs,
                     0.5 * tail])
    runs = {}
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        runs[cpus] = out = []
        for count in (1, 2, 3):
            stack = rows[:count]
            out.append(kernels.exp_newton(stack, grid.h))
            out.extend(kernels.exp_newton_pair(stack, grid.h))
            out.extend(kernels.exp_star_pair(stack, grid.h))
    assert len(runs[1]) == len(runs[2]) == 15
    assert all(np.array_equal(x, y) for x, y in zip(runs[1], runs[2]))


def test_split_discretization_and_sums_equal_serial_to_the_bit(monkeypatch):
    # the midpoint blocks of discretize, the Mellin panels and the tail
    # estimates' decays, on the Kahane tail at n = 300,001: five blocks of
    # cells, four panels of sigma, 25 decays
    grid = _grid(300_001)
    sigmas = np.logspace(-3, -1, 25)
    runs = {}
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        tail = kahane_tail(grid, weight_sigma=1.0)
        runs[cpus] = (tail.coeffs, mellin(tail, sigmas),
                      np.array(_tail_estimates(tail.coeffs, grid.h, sigmas)))
    assert all(np.array_equal(x, y) for x, y in zip(runs[1], runs[2]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_split_completes_an_exp(monkeypatch):
    # the parent's worker thread does not run in a forked child; a child
    # handing it a part would wait for it forever, so the alarm ends it
    _set_cpus(monkeypatch, 2)
    grid = _grid(100_001)
    a = kahane_tail(grid, weight_sigma=1.0).coeffs
    want = kernels.exp_newton(a, grid.h)
    assert kernels._worker is not None
    with warnings.catch_warnings():
        # Python 3.12 on deprecates forking a process that runs threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: exit 0 only on an equal exp
        code = 1
        try:
            signal.alarm(10)
            code = 0 if np.array_equal(kernels.exp_newton(a, grid.h), want) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
