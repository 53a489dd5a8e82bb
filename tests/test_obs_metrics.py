"""Unit tests for the observability layer: counter/gauge/histogram
semantics, label isolation, snapshot/diff, zero cost when disabled, and
span tracing unified with Trace."""

import json

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
)
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.sim.core import Simulator
from repro.sim.trace import Trace
from repro.sim.units import MS


class TestCounter:
    def test_inc_and_get(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.get() == 5

    def test_label_isolation(self):
        registry = MetricsRegistry()
        counter = registry.counter("faults_total")
        counter.inc(3, domain="a")
        counter.inc(1, domain="b")
        assert counter.get(domain="a") == 3
        assert counter.get(domain="b") == 1
        assert counter.get(domain="c") == 0

    def test_bound_child_shares_cell_with_family(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        child = counter.child(domain="a")
        child.inc(2)
        counter.inc(1, domain="a")
        assert child.value == 3
        assert counter.get(domain="a") == 3

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        counter.inc(1, a="1", b="2")
        assert counter.get(b="2", a="1") == 1

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        child = registry.counter("x_total").child()
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_same_name_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        child = gauge.child(domain="a")
        child.set(5)
        child.inc()
        child.dec(2)
        assert child.value == 4
        assert gauge.get(domain="a") == 4

    def test_set_max_keeps_high_water_mark(self):
        child = MetricsRegistry().gauge("peak").child()
        child.set_max(10)
        child.set_max(3)
        assert child.value == 10

    def test_gauges_can_go_negative(self):
        child = MetricsRegistry().gauge("g").child()
        child.dec(7)
        assert child.value == -7


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10, 100))
        histogram.observe(10)     # lands in the <=10 bucket
        histogram.observe(11)     # lands in the <=100 bucket
        histogram.observe(1000)   # overflow
        cell = histogram.get()
        assert cell["buckets"] == [1, 1, 1]
        assert cell["count"] == 3
        assert cell["sum"] == 1021

    def test_bound_child_stats(self):
        child = MetricsRegistry().histogram("h", buckets=(5,)).child(c="x")
        child.observe(2)
        child.observe(4)
        assert child.count == 2
        assert child.sum == 6
        assert child.mean == 3.0

    def test_bound_child_is_the_family_cell(self):
        histogram = MetricsRegistry().histogram("h", buckets=(5,))
        child = histogram.child(c="x")
        assert child.mean == 0.0
        assert histogram.child(c="x") is child
        histogram.observe(7, c="x")
        child.observe(1)
        assert (child.count, child.sum, child.mean) == (2, 8, 4.0)
        assert histogram.get(c="x") == {"count": 2, "sum": 8,
                                        "buckets": [1, 1]}

    def test_rerequest_with_same_buckets_returns_family(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10, 100))
        assert registry.histogram("h", buckets=[10, 100]) is histogram
        assert registry.histogram("lat") is registry.histogram(
            "lat", buckets=LATENCY_BUCKETS_NS)

    def test_rerequest_with_other_buckets_rejected(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10, 100))
        histogram.observe(50)
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(10, 1000))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h")
        # The existing family keeps its bounds and its data.
        assert histogram.bounds == (10, 100)
        assert registry.histogram("h", buckets=(10, 100)).get()["count"] == 1

    def test_disabled_registry_ignores_buckets(self):
        registry = MetricsRegistry(enabled=False)
        registry.histogram("h", buckets=(10,))
        assert registry.histogram("h", buckets=(20,)).child() \
            is NULL_INSTRUMENT

    def test_label_isolation(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10,))
        histogram.observe(1, client="a")
        assert histogram.get(client="a")["count"] == 1
        assert histogram.get(client="b")["count"] == 0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(10, 5))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())

    def test_default_buckets_are_the_latency_ladder(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.bounds == LATENCY_BUCKETS_NS

    @staticmethod
    def _linear(bounds, values):
        """Reference bucketing: the first bound the value does not
        exceed, else the overflow bucket."""
        counts = [0] * (len(bounds) + 1)
        for value in values:
            for index, bound in enumerate(bounds):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
        return counts

    @pytest.mark.parametrize("bounds", [
        LATENCY_BUCKETS_NS, (10,), (0, 1, 1, 2), (-5, 0.5, 3, 1e9),
        (1.5, 2, 2.5),
    ])
    def test_bisect_bucketing_matches_linear_scan(self, bounds):
        values = [bounds[0] - 1, bounds[-1] + 1, 0, 0.0]
        for bound in bounds:
            # Each bound, as int and as float, plus both neighbours.
            values += [bound, float(bound), bound - 0.25, bound + 0.25]
            if bound == int(bound):
                values += [int(bound), int(bound) - 1, int(bound) + 1]
        histogram = MetricsRegistry().histogram("h", buckets=bounds)
        for value in values:
            histogram.observe(value)
        cell = histogram.get()
        assert cell["buckets"] == self._linear(bounds, values)
        assert cell["count"] == len(values)
        assert cell["sum"] == sum(values)


class TestSnapshotDiff:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(5, domain="a")
        registry.gauge("g").set(3, domain="a")
        registry.histogram("h", buckets=(10,)).observe(4, domain="a")
        return registry

    def test_snapshot_is_immutable_capture(self):
        registry = self.make_registry()
        snap = registry.snapshot()
        registry.counter("c_total").inc(100, domain="a")
        assert snap.get("c_total", domain="a") == 5

    def test_get_missing_series_is_zero(self):
        snap = self.make_registry().snapshot()
        assert snap.get("c_total", domain="nope") == 0
        assert snap.get("unknown_metric") == 0
        assert snap.get("h", domain="nope")["count"] == 0

    def test_diff_subtracts_counters(self):
        registry = self.make_registry()
        before = registry.snapshot()
        registry.counter("c_total").inc(2, domain="a")
        registry.counter("c_total").inc(7, domain="b")  # new series
        delta = registry.snapshot().diff(before)
        assert delta.get("c_total", domain="a") == 2
        assert delta.get("c_total", domain="b") == 7

    def test_diff_subtracts_histograms(self):
        registry = self.make_registry()
        before = registry.snapshot()
        registry.histogram("h", buckets=(10,)).observe(100, domain="a")
        delta = registry.snapshot().diff(before)
        cell = delta.get("h", domain="a")
        assert cell["count"] == 1
        assert cell["sum"] == 100
        assert cell["buckets"] == [0, 1]

    def test_diff_keeps_current_gauge_value(self):
        registry = self.make_registry()
        before = registry.snapshot()
        registry.gauge("g").set(11, domain="a")
        delta = registry.snapshot().diff(before)
        assert delta.get("g", domain="a") == 11

    def test_total_sums_across_labels(self):
        registry = self.make_registry()
        registry.counter("c_total").inc(5, domain="b")
        assert registry.snapshot().total("c_total") == 10

    def test_labels_listing(self):
        snap = self.make_registry().snapshot()
        assert snap.labels("c_total") == [{"domain": "a"}]

    def test_json_round_trip(self):
        snap = self.make_registry().snapshot()
        data = json.loads(snap.to_json())
        assert data["c_total"]["kind"] == "counter"
        assert data["c_total"]["series"][0] == {
            "labels": {"domain": "a"}, "value": 5}
        assert data["h"]["series"][0]["value"]["count"] == 1


class TestDisabledRegistry:
    def test_instruments_are_shared_nulls(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        assert counter is registry.gauge("b")  # one shared null family
        assert counter.child(x="y") is NULL_INSTRUMENT

    def test_mutations_accumulate_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(10, domain="a")
        registry.gauge("g").child().set(5)
        registry.histogram("h", buckets=(1,)).observe(9)
        assert registry.counter("c").get(domain="a") == 0
        snap = registry.snapshot()
        assert snap.names() == []
        assert snap.to_json() == "{}"

    def test_null_registry_singleton_is_disabled(self):
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("x").inc()
        assert NULL_REGISTRY.snapshot().names() == []

    def test_instrumented_simulator_with_null_registry_records_nothing(self):
        sim = Simulator()  # defaults to NULL_REGISTRY

        def worker():
            yield sim.timeout(5)

        sim.spawn(worker())
        sim.call_after(5, lambda: None)
        sim.run()
        assert sim.metrics.snapshot().names() == []


class TestSpans:
    def make_tracer(self):
        sim = Simulator()
        trace = Trace("spans")
        registry = MetricsRegistry()
        return sim, trace, registry, SpanTracer(sim, trace=trace,
                                                metrics=registry)

    def test_span_records_trace_event_and_histogram(self):
        sim, trace, registry, tracer = self.make_tracer()
        span = tracer.start("fault.slow", client="a", va=4096)
        sim.call_after(3 * MS, lambda: span.end(ok=True))
        sim.run()
        assert len(trace) == 1
        event = trace.events[0]
        assert event.kind == "span"
        assert event.client == "a"
        assert event.time == 0 and event.duration == 3 * MS
        assert event.info["name"] == "fault.slow"
        assert event.info["va"] == 4096 and event.info["ok"] is True
        cell = registry.snapshot().get("span_ns", name="fault.slow",
                                       client="a")
        assert cell["count"] == 1 and cell["sum"] == 3 * MS

    def test_double_end_is_idempotent(self):
        sim, trace, _registry, tracer = self.make_tracer()
        span = tracer.start("x")
        span.end()
        span.end()
        assert len(trace) == 1
        assert tracer.finished == 1

    def test_measure_context_manager_inside_process(self):
        sim, trace, _registry, tracer = self.make_tracer()

        def worker():
            with tracer.measure("step", client="w"):
                yield sim.timeout(7 * MS)

        sim.spawn(worker())
        sim.run()
        assert trace.events[0].duration == 7 * MS

    def test_measure_closes_span_on_exception(self):
        sim, trace, _registry, tracer = self.make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.measure("boom"):
                raise RuntimeError("x")
        assert len(trace) == 1

    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.start("anything", client="a")
        span.end(ok=False)  # no error, no state
        with NULL_TRACER.measure("more"):
            pass

    def test_spans_filterable_through_trace_helpers(self):
        sim, trace, _registry, tracer = self.make_tracer()
        span = tracer.start("a-span", client="a")
        sim.call_after(2 * MS, lambda: span.end())
        other = tracer.start("b-span", client="b")
        sim.call_after(5 * MS, lambda: other.end())
        sim.run()
        assert trace.count(kind="span", client="a") == 1
        assert trace.total_duration(kind="span") == 7 * MS
