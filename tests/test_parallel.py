import threading
import time

import pytest

from fapplab import parallel
from fapplab.parallel import run_shared, workers


class TestWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_at_most_one_per_cpu(self, monkeypatch, cpus):
        monkeypatch.setattr(parallel, "CPUS", cpus)
        assert workers(7, 4) == min(cpus, 4)

    def test_no_more_workers_than_items(self, monkeypatch):
        monkeypatch.setattr(parallel, "CPUS", 8)
        assert workers(1, 8) == 1
        assert workers(0, 8) == 1
        assert workers(2, 8) == 2


class TestRunShared:
    def test_every_item_taken_once_all_workers_at_the_same_time(self, monkeypatch):
        monkeypatch.setattr(parallel, "CPUS", 3)
        taken = []
        together = threading.Barrier(3, timeout=10)  # broken if the workers ran in turn

        def work(shared):
            together.wait()
            for item in shared:
                taken.append((item, threading.get_ident()))

        run_shared(work, range(50), 8)
        assert sorted(item for item, _ in taken) == list(range(50))
        assert len({ident for _, ident in taken}) <= 3

    def test_a_slow_worker_takes_fewer_items(self, monkeypatch):
        # the caller sleeps on each item it takes, so the other worker, not
        # held to half of the range, takes most of them
        monkeypatch.setattr(parallel, "CPUS", 2)
        caller = threading.get_ident()
        taken = {}

        def work(shared):
            for item in shared:
                taken[item] = threading.get_ident()
                if threading.get_ident() == caller:
                    time.sleep(0.05)

        run_shared(work, range(40), 2)
        assert sorted(taken) == list(range(40))
        assert sum(ident == caller for ident in taken.values()) < 10

    def test_one_item_runs_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(parallel, "CPUS", 8)
        idents = []
        run_shared(lambda shared: idents.extend(threading.get_ident() for _ in shared),
                   range(1), 8)
        assert idents == [threading.get_ident()]

    def test_exception_in_a_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(parallel, "CPUS", 3)
        caller = threading.get_ident()
        together = threading.Barrier(3, timeout=10)
        ended = []

        def work(shared):
            together.wait()
            if threading.get_ident() != caller and not ended:
                ended.append("raised")
                raise ZeroDivisionError("in a thread")
            for _ in shared:
                time.sleep(0.001)
            ended.append("drained")

        with pytest.raises(ZeroDivisionError, match="in a thread"):
            run_shared(work, range(1000), 3)
        assert ended.count("drained") == 2  # the others ended before the raise

    def test_items_left_are_dropped_after_an_exception(self, monkeypatch):
        monkeypatch.setattr(parallel, "CPUS", 2)
        taken = []

        def work(shared):
            for item in shared:
                taken.append(item)
                if item == 3:
                    raise ValueError("item 3")
                time.sleep(0.001)

        with pytest.raises(ValueError, match="item 3"):
            run_shared(work, range(1000), 2)
        assert len(taken) < 20

    def test_the_callers_exception_wins(self, monkeypatch):
        monkeypatch.setattr(parallel, "CPUS", 3)
        together = threading.Barrier(3, timeout=10)
        caller = threading.get_ident()

        def work(shared):
            together.wait()  # every worker raises
            raise ValueError("caller" if threading.get_ident() == caller else "thread")

        with pytest.raises(ValueError, match="caller"):
            run_shared(work, range(9), 3)
