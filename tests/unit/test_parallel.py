"""The harness fan-out: ``REPRO_HARNESS_WORKERS`` is its one knob."""

from __future__ import annotations

import os

import pytest

from repro.harness.parallel import default_workers, parallel_map


def _pid_and_square(x: int) -> tuple:
    return os.getpid(), x * x


def test_default_workers_reads_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_HARNESS_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_HARNESS_WORKERS", "0")
    assert default_workers() == 1


def test_default_workers_is_the_cpu_count_when_unset(monkeypatch):
    monkeypatch.setenv("REPRO_HARNESS_WORKERS", " ")
    assert default_workers() == (os.cpu_count() or 1)
    monkeypatch.delenv("REPRO_HARNESS_WORKERS")
    assert default_workers() == (os.cpu_count() or 1)


def test_default_workers_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv("REPRO_HARNESS_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_HARNESS_WORKERS"):
        default_workers()


def test_one_worker_maps_in_this_process(monkeypatch):
    monkeypatch.setenv("REPRO_HARNESS_WORKERS", "1")
    assert parallel_map(_pid_and_square, [1, 2, 3]) == [
        (os.getpid(), 1), (os.getpid(), 4), (os.getpid(), 9)]


def test_an_empty_batch_starts_no_pool(monkeypatch):
    monkeypatch.setenv("REPRO_HARNESS_WORKERS", "2")
    assert parallel_map(_pid_and_square, []) == []


def test_two_workers_keep_the_input_order(monkeypatch):
    monkeypatch.setenv("REPRO_HARNESS_WORKERS", "2")
    results = parallel_map(_pid_and_square, range(6))
    assert [square for _pid, square in results] == [0, 1, 4, 9, 16, 25]
    assert os.getpid() not in {pid for pid, _square in results}
