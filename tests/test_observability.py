"""Unit tests for the repro.observability metrics subsystem."""

import json
import math
import threading

import pytest

from repro.exceptions import ValidationError
from repro.observability import (
    NULL_CONTEXT,
    MetricsRegistry,
    NullRunContext,
    RunContext,
    canonical_labels,
    ensure_context,
    render_prometheus,
    to_json_lines,
)


class TestCanonicalLabels:
    def test_empty_and_none_are_identical(self):
        assert canonical_labels(None) == ()
        assert canonical_labels({}) == ()

    def test_sorted_by_key(self):
        assert canonical_labels({"b": 1, "a": 2}) == (("a", "2"), ("b", "1"))

    def test_float_formatting_merges_equivalent_values(self):
        assert canonical_labels({"buffer": 50.0}) == canonical_labels(
            {"buffer": 50}
        )


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("hits").inc(-1)

    def test_zero_increment_registers_the_series(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(0)
        assert [e["name"] for e in reg.snapshot()] == ["hits"]


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("occupancy")
        g.set(1.0)
        g.set(4.0)
        assert g.value == 4.0

    def test_unwritten_gauge_does_not_clobber_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(7.0)
        b.gauge("g")  # created but never written
        a.merge_from(b)
        assert a.gauge("g").value == 7.0

    def test_merge_is_last_write_in_merge_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        a.merge_from(b)
        assert a.gauge("g").value == 2.0


class TestSummaryAndTimer:
    def test_summary_statistics(self):
        reg = MetricsRegistry()
        s = reg.summary("weights")
        s.observe_many([1.0, 3.0, 2.0])
        assert s.count == 3
        assert s.total == 6.0
        assert s.min == 1.0
        assert s.max == 3.0
        assert s.mean == 2.0

    def test_empty_summary_mean_is_nan(self):
        reg = MetricsRegistry()
        assert math.isnan(reg.summary("empty").mean)

    def test_timer_records_positive_duration(self):
        reg = MetricsRegistry()
        with reg.timer("t").time():
            pass
        t = reg.timer("t")
        assert t.count == 1
        assert t.total >= 0.0

    def test_merge_combines_extremes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.summary("s").observe(5.0)
        b.summary("s").observe(1.0)
        a.merge_from(b)
        merged = a.summary("s")
        assert merged.count == 2
        assert merged.min == 1.0
        assert merged.max == 5.0


class TestHistogram:
    def test_le_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("q", (1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 2.0, 99.0):
            h.observe(v)
        # le semantics: 1.0 lands in the first bucket, 2.0 in the second.
        assert h.counts == [2, 2, 1]
        assert h.count == 5

    def test_bounds_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.histogram("bad", (2.0, 1.0))

    def test_add_counts_bulk(self):
        reg = MetricsRegistry()
        h = reg.histogram("q", (1.0, 2.0))
        h.add_counts([3, 2, 1], total=7.5, count=6)
        assert h.counts == [3, 2, 1]
        assert h.count == 6
        assert h.total == 7.5

    def test_add_counts_wrong_length_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.histogram("q", (1.0, 2.0)).add_counts([1, 2])

    def test_merge_requires_equal_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("q", (1.0,)).observe(0.5)
        b.histogram("q", (2.0,)).observe(0.5)
        with pytest.raises(ValidationError):
            a.merge_from(b)


class TestRegistry:
    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")

    def test_snapshot_sorted_and_labelled(self):
        reg = MetricsRegistry()
        reg.counter("b", {"k": 2}).inc()
        reg.counter("b", {"k": 1}).inc()
        reg.counter("a").inc()
        names = [(e["name"], e["labels"]) for e in reg.snapshot()]
        assert names == [
            ("a", {}),
            ("b", {"k": "1"}),
            ("b", {"k": "2"}),
        ]

    def test_operation_count_tracks_mutations(self):
        reg = MetricsRegistry()
        before = reg.operation_count
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.summary("s").observe(1.0)
        assert reg.operation_count == before + 3

    def test_operation_count_survives_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc()
        b.counter("c").inc()
        b.summary("s").observe(1.0)
        a.merge_from(b)
        assert a.operation_count == 3

    def test_concurrent_increments_are_not_lost(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestRunContext:
    def test_scope_labels_stamped(self):
        ctx = RunContext(scope={"run": "r1"})
        ctx.inc("hits", twist=2.0)
        entry = ctx.snapshot()[0]
        assert entry["labels"] == {"run": "r1", "twist": "2"}

    def test_call_site_labels_override_scope(self):
        ctx = RunContext(scope={"twist": 1.0})
        ctx.inc("hits", twist=2.0)
        assert ctx.snapshot()[0]["labels"] == {"twist": "2"}

    def test_scoped_shares_registry(self):
        ctx = RunContext()
        ctx.scoped(leg=0).inc("hits")
        assert ctx.snapshot()[0]["value"] == 1.0

    def test_child_is_isolated_until_merged(self):
        ctx = RunContext()
        child = ctx.child(leg=0)
        child.inc("hits")
        assert ctx.snapshot() == []
        ctx.merge_children([child])
        entry = ctx.snapshot()[0]
        assert entry["value"] == 1.0
        assert entry["labels"] == {"leg": "0"}

    def test_merge_children_deterministic_order(self):
        def merged_gauge(order):
            ctx = RunContext()
            children = {i: ctx.child() for i in (0, 1)}
            children[0].set("g", 10.0)
            children[1].set("g", 20.0)
            ctx.merge_children([children[i] for i in order])
            return ctx.snapshot()[0]["value"]

        # Gauges are last-write-wins in *merge* (submission) order, so
        # the result depends only on the order the caller fixes, never
        # on which worker finished first.
        assert merged_gauge([0, 1]) == 20.0
        assert merged_gauge([1, 0]) == 10.0

    def test_merge_children_skips_null(self):
        ctx = RunContext()
        ctx.merge_children([None, NULL_CONTEXT])
        assert ctx.snapshot() == []

    def test_registry_passthrough(self):
        reg = MetricsRegistry()
        ctx = ensure_context(reg)
        assert ctx.registry is reg

    def test_ensure_context_rejects_junk(self):
        with pytest.raises(ValidationError):
            ensure_context(42)


class TestNullContext:
    def test_singleton_and_disabled(self):
        assert ensure_context(None) is NULL_CONTEXT
        assert isinstance(NULL_CONTEXT, NullRunContext)
        assert NULL_CONTEXT.enabled is False

    def test_nesting_allocates_nothing(self):
        assert NULL_CONTEXT.scoped(a=1) is NULL_CONTEXT
        assert NULL_CONTEXT.child(b=2) is NULL_CONTEXT

    def test_all_recording_is_noop(self):
        NULL_CONTEXT.inc("c")
        NULL_CONTEXT.set("g", 1.0)
        NULL_CONTEXT.observe("s", 1.0)
        NULL_CONTEXT.observe_many("s", [1.0])
        with NULL_CONTEXT.time("t"):
            pass
        NULL_CONTEXT.timer("t").observe(1.0)
        NULL_CONTEXT.histogram("h", (1.0,)).add_counts([0, 0])
        NULL_CONTEXT.summary("s").observe(1.0)
        assert NULL_CONTEXT.snapshot() == []


class TestSinks:
    def _snapshot(self):
        ctx = RunContext()
        ctx.inc("coeff_table.hits", 3)
        ctx.set("is.ess", 41.5, twist=3.2)
        ctx.summary("is.weight").observe_many([0.5, 1.5])
        ctx.histogram("mux.queue_occupancy", (1.0, 10.0)).observe(4.0)
        return ctx.snapshot()

    def test_json_lines_strict_json(self):
        text = to_json_lines(
            self._snapshot(), header={"trace": "t.txt", "inf": float("inf")}
        )
        lines = text.strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "header"
        assert records[0]["inf"] == "inf"  # sanitized for strict JSON
        assert all(r["record"] == "metric" for r in records[1:])
        names = {r["name"] for r in records[1:]}
        assert "coeff_table.hits" in names
        assert "is.ess" in names

    def test_json_lines_empty_snapshot(self):
        assert to_json_lines([]) == ""

    def test_prometheus_rendering(self):
        text = render_prometheus(self._snapshot())
        assert "# TYPE coeff_table_hits counter" in text
        assert 'is_ess{twist="3.2"} 41.5' in text
        assert "is_weight_count 2" in text
        # Cumulative le buckets, with the implicit +Inf bucket.
        assert 'mux_queue_occupancy_bucket{le="1"} 0' in text
        assert 'mux_queue_occupancy_bucket{le="10"} 1' in text
        assert 'mux_queue_occupancy_bucket{le="+Inf"} 1' in text
