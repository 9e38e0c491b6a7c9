"""Unit tests for repro.obs.trace: span trees, the header codec, the
ring-buffer store, span capture, and the exporters."""

import json
import threading

import pytest

from repro.obs import trace


def recorded_store():
    store = trace.TraceStore()
    trace.enable(store)
    return store


class TestSpanTree:
    def test_nested_spans_share_trace_and_parent_correctly(self):
        store = recorded_store()
        with trace.span("outer", kind="test") as outer:
            with trace.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = store.get(outer.trace_id)
        assert [s["name"] for s in spans] == ["inner", "outer"]
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "outer"

    def test_span_records_timings_ids_and_attributes(self):
        store = recorded_store()
        with trace.span("work", rows=7) as handle:
            handle.set_attribute("extra", "yes")
        (record,) = store.get(handle.trace_id)
        assert len(record["trace_id"]) == 32
        assert len(record["span_id"]) == 16
        int(record["trace_id"], 16), int(record["span_id"], 16)
        assert record["wall_s"] >= 0 and record["cpu_s"] >= 0
        assert record["status"] == "ok"
        assert record["attributes"] == {"rows": 7, "extra": "yes"}

    def test_exception_marks_span_error_and_still_propagates(self):
        store = recorded_store()
        with pytest.raises(RuntimeError):
            with trace.span("boom") as handle:
                raise RuntimeError("kaput")
        (record,) = store.get(handle.trace_id)
        assert record["status"] == "error"
        assert record["error"] == "RuntimeError: kaput"

    def test_start_span_is_not_activated_but_parents_via_adopt(self):
        store = recorded_store()
        job_span = trace.start_span("service.job", job_id="j-1")
        # not activated: a sibling span opened now is NOT its child
        with trace.span("unrelated") as sibling:
            pass
        assert sibling.trace_id != job_span.trace_id
        with trace.adopt(job_span.context_payload()):
            with trace.span("child") as child:
                assert child.parent_id == job_span.span_id
        job_span.finish()
        names = {s["name"] for s in store.get(job_span.trace_id)}
        assert names == {"service.job", "child"}

    def test_finish_is_idempotent(self):
        store = recorded_store()
        handle = trace.span("once")
        handle.finish()
        handle.finish()
        assert len(store.get(handle.trace_id)) == 1

    def test_cross_thread_finish_does_not_raise(self):
        recorded_store()
        handle = trace.span("crossing")
        worker = threading.Thread(target=handle.finish)
        worker.start()
        worker.join()


class TestDisabledPath:
    def test_disabled_span_is_the_shared_noop(self):
        first = trace.span("a", key="value")
        second = trace.span("b")
        assert first is second
        with first as handle:
            handle.set_attribute("k", 1)
            handle.set_attributes(x=2)
        assert first.context_payload() is None
        assert trace.context_payload() is None
        assert trace.current_ids() == (None, None)
        assert trace.header_value() is None

    def test_adopt_is_a_noop_when_disabled(self):
        with trace.adopt({"trace_id": "a" * 32, "span_id": "b" * 16}):
            assert trace.current_ids() == (None, None)


class TestHeaderCodec:
    def test_round_trip_through_header(self):
        recorded_store()
        with trace.span("root") as root:
            value = trace.header_value()
        parsed = trace.parse_header(value)
        assert parsed == {"trace_id": root.trace_id,
                          "span_id": root.span_id}

    @pytest.mark.parametrize("bad", [
        None, "", "garbage", "a-b", "x" * 32 + "-" + "y" * 16,
        "0" * 31 + "-" + "0" * 16, "0" * 32 + "-" + "0" * 15,
        "0" * 32, "0" * 32 + "-" + "0" * 16 + "-extra", 42,
    ])
    def test_malformed_headers_decode_to_none(self, bad):
        assert trace.parse_header(bad) is None

    def test_parse_normalizes_case(self):
        value = "A" * 32 + "-" + "B" * 16
        parsed = trace.parse_header(value)
        assert parsed == {"trace_id": "a" * 32, "span_id": "b" * 16}


class TestCapture:
    def test_capture_records_spans_into_a_list(self):
        # recording starts disabled; capture() turns it on into a plain
        # list and restores the previous state on exit
        assert not trace.enabled()
        captured = []
        payload = {"trace_id": "c" * 32, "span_id": "d" * 16}
        with trace.capture(captured):
            with trace.adopt(payload):
                with trace.span("stream.shard", chunks=3):
                    pass
        assert not trace.enabled()
        assert len(captured) == 1
        assert captured[0]["name"] == "stream.shard"
        assert captured[0]["trace_id"] == "c" * 32
        assert captured[0]["parent_id"] == "d" * 16


class TestTraceStore:
    def test_ring_evicts_oldest_trace(self):
        store = trace.TraceStore(max_traces=2)
        for index in range(3):
            store.add({"trace_id": f"{index:032x}", "span_id": "s",
                       "parent_id": None, "name": f"t{index}",
                       "start_s": float(index), "wall_s": 0.1})
        assert store.get(f"{0:032x}") is None
        assert [summary["trace_id"] for summary in store.summaries()] \
            == [f"{1:032x}", f"{2:032x}"]
        stats = store.stats_snapshot()
        assert stats["traces"] == 2 and stats["traces_evicted"] == 1

    def test_per_trace_span_cap_drops_overflow(self):
        store = trace.TraceStore(max_spans_per_trace=2)
        for index in range(4):
            store.add({"trace_id": "t" * 32, "name": f"s{index}",
                       "parent_id": None, "start_s": 0.0, "wall_s": 0.0})
        assert len(store.get("t" * 32)) == 2
        assert store.stats_snapshot()["spans_dropped"] == 2

    def test_summaries_report_root_and_wall(self):
        store = trace.TraceStore()
        store.add({"trace_id": "t" * 32, "span_id": "a", "parent_id": "r",
                   "name": "child", "start_s": 10.5, "wall_s": 0.5})
        store.add({"trace_id": "t" * 32, "span_id": "r",
                   "parent_id": None, "name": "root",
                   "start_s": 10.0, "wall_s": 2.0})
        (summary,) = store.summaries()
        assert summary["root"] == "root"
        assert summary["spans"] == 2
        assert summary["wall_s"] == pytest.approx(2.0)

    def test_unknown_trace_is_none_and_bad_records_ignored(self):
        store = trace.TraceStore()
        store.add({"trace_id": 7, "name": "bad"})
        assert store.get("missing") is None
        assert store.stats_snapshot()["spans"] == 0

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="max_traces"):
            trace.TraceStore(max_traces=0)
        with pytest.raises(ValueError, match="max_spans_per_trace"):
            trace.TraceStore(max_spans_per_trace=0)


class TestExporters:
    def _spans(self):
        store = recorded_store()
        with trace.span("outer") as outer:
            with trace.span("inner", rows=3):
                pass
        return store.get(outer.trace_id)

    def test_jsonl_one_record_per_line(self):
        spans = self._spans()
        lines = trace.to_jsonl(spans).splitlines()
        assert [json.loads(line)["name"] for line in lines] \
            == ["inner", "outer"]

    def test_chrome_trace_events_are_complete_and_sorted(self):
        spans = self._spans()
        document = trace.to_chrome_trace(spans)
        events = document["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" for event in events)
        assert all(event["dur"] >= 0 for event in events)
        keys = [(e["pid"], e["tid"], e["ts"]) for e in events]
        assert keys == sorted(keys)
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["args"]["rows"] == 3
        assert inner["args"]["parent_id"] is not None
        json.dumps(document)  # must be JSON-serializable as-is


class TestAutoEnable:
    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv(trace.OBS_ENV, "0")
        assert trace.auto_enable() is False
        assert not trace.enabled()
        monkeypatch.setenv(trace.OBS_ENV, "1")
        assert trace.auto_enable() is True
        assert trace.enabled()
