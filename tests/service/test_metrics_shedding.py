"""Satellite-surface tests: Prometheus rendering, the bounded queue's
shed path, and the client's deterministic shed-retry backoff."""

import math
from collections.abc import Mapping

import pytest

from repro.api import Workload
from repro.fleet import FleetRouter
from repro.service import (
    JobQueue,
    QueueFullError,
    ReproClient,
    ReproServer,
    render_prometheus,
)
from repro.service.metrics import COUNTER_LEAVES, METRICS_CONTENT_TYPE
from repro.service.queue import (
    SHED_RETRY_AFTER_BASE_S,
    SHED_RETRY_AFTER_CAP_S,
    SHED_RETRY_AFTER_PER_JOB_S,
)

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


class TestRenderPrometheus:
    def test_flattens_nested_mappings_with_sorted_keys(self):
        text = render_prometheus({"queue": {"pending": 3, "running": 1},
                                  "uptime_s": 1.5})
        assert text.index("repro_queue_pending 3") \
            < text.index("repro_queue_running 1") \
            < text.index("repro_uptime_s 1.5")
        assert "# TYPE repro_queue_pending gauge" in text
        assert text.endswith("\n")

    def test_skips_labels_and_non_finite_samples(self):
        text = render_prometheus({
            "state": "serving",           # string: a label, not a sample
            "fleet": None,
            "members": ["a", "b"],
            "bad": float("nan"),
            "worse": float("inf"),
            "ok": 2,
        })
        assert text == "# TYPE repro_ok gauge\nrepro_ok 2\n"

    def test_booleans_render_as_integers(self):
        text = render_prometheus({"ok": True, "store_shared": False})
        assert "repro_ok 1" in text and "repro_store_shared 0" in text

    def test_names_are_sanitized(self):
        text = render_prometheus({"workers": {"worker-0": {"jobs": 4}},
                                  "0day": 1})
        assert "repro_workers_worker_0_jobs 4" in text
        assert "repro_0day 1" in text

    def test_content_type_is_the_prometheus_text_format(self):
        assert METRICS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in METRICS_CONTENT_TYPE

    def test_server_metrics_cover_every_stats_layer(self):
        server = ReproServer(start=False)
        try:
            text = server.metrics_text()
            for name in ("repro_queue_submitted", "repro_queue_shed",
                         "repro_session_synthesis_runs",
                         "repro_uptime_s"):
                assert name in text, f"missing {name}"
        finally:
            server.close(drain=False)

    def test_every_counter_name_is_a_live_stats_leaf(self, tmp_path):
        """Each name typed as a counter is a numeric leaf of a worker's or
        the router's ``stats()``, so a deleted counter cannot leave its
        name behind."""
        with FleetRouter.local(2, store=tmp_path,
                               healthcheck_interval_s=0) as fleet:
            ReproClient(fleet).run(workload(), timeout=60)
            stats = fleet.stats()  # the workers' stats() nest inside
        leaves = set()

        def walk(document):
            for key, value in document.items():
                if isinstance(value, Mapping):
                    walk(value)
                elif (isinstance(value, (int, float))
                      and not isinstance(value, bool)):
                    leaves.add(key)

        walk(stats)
        assert not COUNTER_LEAVES - leaves, sorted(COUNTER_LEAVES - leaves)


class TestBoundedQueue:
    def test_unbounded_by_default(self):
        queue = JobQueue()
        for index, name in enumerate(["blur", "erode", "dilate"]):
            queue.submit(workload(name))
        assert queue.stats_snapshot()["max_pending"] is None
        assert queue.stats_snapshot()["shed"] == 0

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            JobQueue(max_pending=0)

    def test_saturation_sheds_with_a_deterministic_hint(self):
        queue = JobQueue(max_pending=2)
        queue.submit(workload("blur"))
        queue.submit(workload("erode"))
        with pytest.raises(QueueFullError) as caught:
            queue.submit(workload("dilate"))
        expected = min(SHED_RETRY_AFTER_CAP_S,
                       SHED_RETRY_AFTER_BASE_S
                       + 2 * SHED_RETRY_AFTER_PER_JOB_S)
        assert caught.value.retry_after_s == pytest.approx(expected)
        snapshot = queue.stats_snapshot()
        assert snapshot["shed"] == 1
        # a shed submission is not a submission (coalesce-rate semantics)
        assert snapshot["submitted"] == 2

    def test_coalescing_is_admitted_even_when_full(self):
        # attaching to in-flight work adds no load; shedding it would
        # punish exactly the duplicate the queue exists to absorb
        queue = JobQueue(max_pending=1)
        job, coalesced = queue.submit(workload())
        again, coalesced_again = queue.submit(workload())
        assert not coalesced and coalesced_again
        assert again.id == job.id

    def test_hint_caps_at_the_ceiling(self):
        queue = JobQueue(max_pending=120)
        for index in range(120):
            queue.submit(workload(frame_width=320 + index))
        with pytest.raises(QueueFullError) as caught:
            queue.submit(workload(frame_width=999_999))
        assert caught.value.retry_after_s == SHED_RETRY_AFTER_CAP_S


class TestClientBackoff:
    def test_same_seed_backs_off_identically(self):
        server = ReproServer(start=False)
        try:
            a = ReproClient(server, retry_jitter_seed=7)
            b = ReproClient(server, retry_jitter_seed=7)
            c = ReproClient(server, retry_jitter_seed=8)
            sequence_a = [a._backoff_delay(i, None) for i in range(5)]
            sequence_b = [b._backoff_delay(i, None) for i in range(5)]
            sequence_c = [c._backoff_delay(i, None) for i in range(5)]
            assert sequence_a == sequence_b
            assert sequence_a != sequence_c  # distinct seeds de-sync
        finally:
            server.close(drain=False)

    def test_delay_honors_hint_floor_cap_and_jitter_band(self):
        server = ReproServer(start=False)
        try:
            client = ReproClient(server, backoff_base_s=0.25,
                                 backoff_cap_s=4.0)
            for attempt in range(8):
                for hint in (None, 0.5, 2.0, 60.0):
                    delay = client._backoff_delay(attempt, hint)
                    exponential = 0.25 * (2 ** attempt)
                    floored = (exponential if hint is None
                               else max(exponential, hint))
                    full = min(floored, 4.0)
                    assert 0.5 * full <= delay <= full
        finally:
            server.close(drain=False)

    def test_negative_retries_rejected(self):
        server = ReproServer(start=False)
        try:
            with pytest.raises(ValueError):
                ReproClient(server, retries=-1)
        finally:
            server.close(drain=False)
