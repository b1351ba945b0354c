"""Whole-cluster properties: safety under randomized fault schedules.

These are the expensive properties — each example is a full simulated
deployment — so example counts are small; determinism means any failure
shrinks to a replayable schedule.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.faults.scenarios import Crash, install_crashes, max_concurrent

from tests.conftest import achilles_cluster, fast_config

# One crash/reboot event: (victim, crash time, downtime).
crash_events = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=50.0, max_value=400.0, allow_nan=False),
    st.floats(min_value=5.0, max_value=40.0, allow_nan=False),
)


class TestSafetyUnderChurn:
    @given(st.lists(crash_events, max_size=3), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_safety_holds_under_any_bounded_crash_schedule(self, events, seed):
        cluster = achilles_cluster(
            f=2, config=fast_config(f=2, base_timeout_ms=30.0), seed=seed,
        )
        # Cap concurrency at f by dropping offending events (the property
        # under test is safety within the model's assumptions).
        if max_concurrent((v, at, at + d) for v, at, d in events) > 2:
            events = events[:1]
        install_crashes(cluster, [Crash(at, victim, at + downtime)
                                  for victim, at, downtime in events])
        cluster.start()
        cluster.run(700.0)
        cluster.assert_safety()  # the invariant: never diverge

    @given(st.integers(0, 100))
    @settings(max_examples=8, deadline=None)
    def test_every_seed_commits_and_agrees(self, seed):
        cluster = achilles_cluster(f=1, seed=seed)
        cluster.start()
        cluster.run(200.0)
        cluster.assert_safety()
        assert cluster.min_committed_height() >= 5
        tips = {n.store.committed_tip.hash for n in cluster.nodes}
        assert len(tips) <= 2  # at most one in-flight view of divergence


class TestScheduleProperties:
    @given(st.lists(crash_events, min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_max_concurrent_matches_bruteforce(self, events):
        windows = [(victim, at, at + downtime)
                   for victim, at, downtime in events]
        # Brute force: the distinct victims down at each crash instant,
        # where the count can only have just risen.
        worst = max(len({v for v, a, up in windows if a <= at < up})
                    for _v, at, _up in windows)
        assert max_concurrent(windows) == worst
