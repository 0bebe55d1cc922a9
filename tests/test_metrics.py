"""Unit tests for memory ledgers, timelines and reports."""

from __future__ import annotations

import pytest

from repro.metrics.memory import MemoryLedger
from repro.metrics.report import MetricReport, summarize
from repro.metrics.timeline import TIMELINE_WINDOW, FleetEvent, OverlapLedger, Timeline


class TestMemoryLedger:
    def test_charge_and_total(self):
        ledger = MemoryLedger()
        ledger.charge("buffer", 100)
        ledger.charge("buffer", 50)
        assert ledger.total_bytes() == 150
        assert ledger.live_bytes("buffer") == 150

    def test_release_partial(self):
        ledger = MemoryLedger()
        ledger.charge("buffer", 100)
        ledger.release("buffer", 40)
        assert ledger.total_bytes() == 60

    def test_release_clamps_to_zero(self):
        ledger = MemoryLedger()
        ledger.charge("buffer", 10)
        ledger.release("buffer", 100)
        assert ledger.total_bytes() == 0

    def test_negative_charge_rejected(self):
        ledger = MemoryLedger()
        with pytest.raises(ValueError):
            ledger.charge("buffer", -1)

    def test_negative_release_rejected(self):
        ledger = MemoryLedger()
        with pytest.raises(ValueError):
            ledger.release("buffer", -1)

    def test_hierarchical_adoption(self):
        parent = MemoryLedger(name="node")
        child = MemoryLedger(name="actor")
        parent.adopt(child)
        child.charge("x", 42)
        assert parent.total_bytes() == 42

    def test_disown_removes_child(self):
        parent = MemoryLedger()
        child = MemoryLedger()
        parent.adopt(child)
        child.charge("x", 10)
        parent.disown(child)
        assert parent.total_bytes() == 0

    def test_disown_unknown_child_is_noop(self):
        parent = MemoryLedger()
        parent.disown(MemoryLedger())

    def test_live_bytes_are_own_and_totals_include_children(self):
        parent = MemoryLedger()
        child = MemoryLedger()
        parent.adopt(child)
        parent.charge("a", 10)
        child.charge("a", 5)
        child.charge("b", 1)
        assert parent.live_bytes("a") == 10
        assert parent.live_bytes("b") == 0
        assert child.live_bytes("b") == 1
        assert parent.total_bytes() == 16

    def test_release_all(self):
        ledger = MemoryLedger()
        ledger.charge("a", 10)
        ledger.release_all()
        assert ledger.total_bytes() == 0


class TestTimeline:
    def test_record_and_filter(self):
        timeline = Timeline()
        timeline.record("planner", "gather", 0.0, 1.0)
        timeline.record("loader", "prepare", 1.0, 2.0)
        assert len(timeline) == 2
        assert len(timeline.events(component="planner")) == 1
        assert len(timeline.events(name="prepare")) == 1

    def test_a_window_keeps_the_newest_events_and_none_keeps_all(self):
        windowed, whole = Timeline(window=TIMELINE_WINDOW), Timeline()
        for index in range(TIMELINE_WINDOW + 3):
            for timeline in (windowed, whole):
                timeline.record("dp0", f"mb{index}", float(index), 1.0)
        assert len(windowed) == TIMELINE_WINDOW
        assert windowed.events()[0].name == "mb3"
        assert len(whole) == TIMELINE_WINDOW + 3
        assert whole.events()[0].name == "mb0"

    def test_negative_duration_rejected(self):
        timeline = Timeline()
        with pytest.raises(ValueError):
            timeline.record("x", "y", 0.0, -1.0)

    def test_event_metadata_preserved(self):
        timeline = Timeline()
        timeline.record("a", "x", 0.0, 1.0, microbatch=3)
        (event,) = timeline.events()
        assert event.metadata["microbatch"] == 3
        assert event.end == pytest.approx(1.0)


class TestMetricReport:
    def test_add_row_and_column(self):
        report = MetricReport(title="t", columns=["name", "value"])
        report.add_row("a", 1.0)
        report.add_row("b", 2.0)
        assert report.column("value") == [1.0, 2.0]

    def test_row_arity_checked(self):
        report = MetricReport(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            report.add_row(1)

    def test_to_text_contains_title_and_values(self):
        report = MetricReport(title="Fig X", columns=["metric", "value"])
        report.add_row("speedup", 4.5)
        text = report.to_text()
        assert "Fig X" in text
        assert "speedup" in text
        assert "4.500" in text

    def test_summarize_basic_stats(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0

    def test_summarize_empty(self):
        stats = summarize([])
        assert stats["mean"] == 0.0
        assert stats["p95"] == 0.0


class TestOverlapLedger:
    def test_record_and_totals(self):
        ledger = OverlapLedger()
        ledger.record(step=0, fetch_s=2.0, hidden_s=0.0)
        ledger.record(step=1, fetch_s=3.0, hidden_s=3.0)
        ledger.record(step=2, fetch_s=1.0, hidden_s=0.5)
        assert len(ledger) == 3
        assert ledger.fetch_total_s() == pytest.approx(6.0)
        assert ledger.hidden_total_s() == pytest.approx(3.5)
        assert ledger.exposed_total_s() == pytest.approx(2.5)
        assert ledger.hidden_fraction() == pytest.approx(3.5 / 6.0)

    def test_hidden_clamped_to_fetch(self):
        ledger = OverlapLedger()
        entry = ledger.record(step=0, fetch_s=1.0, hidden_s=5.0)
        assert entry.hidden_s == pytest.approx(1.0)
        assert entry.exposed_s == 0.0
        negative = ledger.record(step=1, fetch_s=1.0, hidden_s=-2.0)
        assert negative.hidden_s == 0.0
        assert negative.exposed_s == pytest.approx(1.0)

    def test_negative_fetch_rejected(self):
        ledger = OverlapLedger()
        with pytest.raises(ValueError):
            ledger.record(step=0, fetch_s=-1.0, hidden_s=0.0)

    def test_empty_ledger_fraction_zero(self):
        assert OverlapLedger().hidden_fraction() == 0.0

    def test_stall_defaults_to_exposed_and_totals(self):
        ledger = OverlapLedger()
        ledger.record(step=0, fetch_s=2.0, hidden_s=1.5)
        entry = ledger.record(step=1, fetch_s=1.0, hidden_s=0.0, stall_s=3.0)
        assert ledger._records[0].stall_s == pytest.approx(0.5)
        # A measured stall may exceed the step's own fetch latency (the step
        # queued behind earlier data-plane work).
        assert entry.stall_s == pytest.approx(3.0)
        assert ledger.stall_total_s() == pytest.approx(3.5)


class TestOverlapLedgerFromTimeline:
    def make_timeline(self):
        timeline = Timeline()
        # Trainer compute windows [1, 2] and [3, 4].
        timeline.record("trainer", "train_step", 1.0, 1.0, role="trainer", step=0)
        timeline.record("trainer", "train_step", 3.0, 1.0, role="trainer", step=1)
        # Step-1 data work: half of [0.5, 1.5] overlaps the first window,
        # all of [3.2, 3.4] falls inside the second.
        timeline.record("loader/a", "poll", 0.5, 1.0, role="source_loader", step=1)
        timeline.record("constructor/0", "construct", 3.2, 0.2, role="data_constructor", step=1)
        # Untagged sync work and unknown roles are excluded.
        timeline.record("loader/a", "prepare", 0.0, 9.0, role="source_loader")
        timeline.record("oracle", "noise", 0.0, 9.0, role="oracle", step=1)
        # consume_step markers are not compute windows work can hide behind.
        timeline.record("trainer", "consume_step", 0.0, 9.0, role="trainer", step=2)
        return timeline

    def test_measures_interval_overlap_per_step(self):
        ledger = OverlapLedger.from_timeline(self.make_timeline())
        assert len(ledger) == 1
        entry = ledger._records[0]
        assert entry.step == 1
        assert entry.fetch_s == pytest.approx(1.2)
        assert entry.hidden_s == pytest.approx(0.7)
        assert entry.exposed_s == pytest.approx(0.5)

    def test_empty_timeline_gives_empty_ledger(self):
        assert len(OverlapLedger.from_timeline(Timeline())) == 0


class TestFleetEvents:
    """The overlap ledger's elasticity section (loader fleet telemetry)."""

    def test_record_and_summarize(self):
        ledger = OverlapLedger()
        ledger.add_fleet_event(FleetEvent("spawn", 2, 1.5, "src-a", "loader/src-a/0m1"))
        ledger.add_fleet_event(FleetEvent("spawn", 4, 2.5, "src-b", "loader/src-b/0m2"))
        ledger.add_fleet_event(FleetEvent("retire", 9, 5.0, "src-a", "loader/src-a/0m1"))
        ledger.add_fleet_event(
            FleetEvent("reject", 11, 6.0, "src-b", "loader/src-b/0m3", detail="no node can host")
        )
        assert len(ledger.fleet_events()) == 4
        assert [e.actor for e in ledger.fleet_events() if e.kind == "spawn"] == [
            "loader/src-a/0m1", "loader/src-b/0m2",
        ]
        ledger.add_fleet_event(
            FleetEvent("resize", 12, 6.5, "src-a", "loader/src-a/0", detail="workers 2 -> 4")
        )
        ledger.add_fleet_event(FleetEvent("promote", 13, 7.0, "src-b", "loader/src-b/0m4"))
        summary = ledger.elasticity_summary()
        assert summary == {
            "fleet_spawns": 2.0,
            "fleet_retires": 1.0,
            "fleet_rejections": 1.0,
            "fleet_resizes": 1.0,
            "fleet_promotions": 1.0,
            "fleet_net_delta": 1.0,
        }

    def test_unknown_kind_rejected(self):
        ledger = OverlapLedger()
        with pytest.raises(ValueError):
            ledger.record_fleet_event("explode", 0, 0.0, "src")

    def test_record_fleet_event_builds_a_source_level_record(self):
        ledger = OverlapLedger()
        event = ledger.record_fleet_event("degrade", 3, 1, "src-a", detail="all loaders unreachable")
        assert ledger.fleet_events() == [event]
        assert (event.kind, event.step, event.at_s, event.source, event.actor) == (
            "degrade", 3, 1.0, "src-a", "",
        )
        assert type(event.at_s) is float and event.detail == "all loaders unreachable"

    def test_add_fleet_event_stores_the_given_record(self):
        ledger = OverlapLedger()
        event = FleetEvent("degrade", 3, 1.25, "src-a", "loader/src-a/0", detail="quota 8 -> 4")
        assert ledger.add_fleet_event(event) is event
        with pytest.raises(ValueError):
            ledger.add_fleet_event(FleetEvent("explode", 0, 0.0, "src", "actor"))
        assert ledger.fleet_events() == [event]

    def test_fleet_role_excluded_from_overlap_accounting(self):
        """Fleet markers on the system timeline are neither data-plane busy
        time nor trainer compute: the rebuilt ledger ignores them even when
        they carry a step tag."""
        from repro.metrics.timeline import FLEET_ROLE

        plain = Timeline()
        plain.record("trainer", "train_step", 0.0, 2.0, role="trainer")
        plain.record("loader/a", "poll", 1.0, 2.0, role="source_loader", step=0)
        plain.record("loader/a/0m1", "spawn", 1.5, 0.0, role=FLEET_ROLE, step=0)
        plain.record("loader/a/0m1", "retire", 2.5, 0.0, role=FLEET_ROLE, step=1)
        rebuilt = OverlapLedger.from_timeline(plain)
        records = rebuilt._records
        assert len(records) == 1
        assert records[0].fetch_s == pytest.approx(2.0)
        assert records[0].hidden_s == pytest.approx(1.0)


class TestClusterUtilizationTracker:
    def test_summary_over_samples(self):
        from repro.metrics.report import ClusterUtilizationTracker

        tracker = ClusterUtilizationTracker()
        tracker.observe(0, {"n0": {"cpu": 0.2, "memory": 0.1}, "n1": {"cpu": 0.4, "memory": 0.3}})
        tracker.observe(1, {"n0": {"cpu": 0.6, "memory": 0.5}, "n1": {"cpu": 0.2, "memory": 0.1}})
        summary = tracker.summary()
        assert summary["utilization_samples"] == 2.0
        assert summary["peak_node_cpu_utilization"] == pytest.approx(0.6)
        assert summary["peak_node_memory_utilization"] == pytest.approx(0.5)
        assert summary["mean_node_cpu_utilization"] == pytest.approx((0.3 + 0.4) / 2)
        assert summary["mean_node_memory_utilization"] == pytest.approx((0.2 + 0.3) / 2)
        assert len(tracker.samples()) == 2

    def test_tenant_summary_over_observed_shares(self):
        from repro.metrics.report import ClusterUtilizationTracker

        tracker = ClusterUtilizationTracker()
        assert tracker.tenant_summary() == {}
        tracker.observe_tenants({"a": {"share": 0.25}, "b": {"share": 0.75}})
        tracker.observe_tenants({"a": {"share": 0.75}, "b": {"share": 0.25}})
        tracker.observe_tenants({"a": {"share": 0.5}})
        summary = tracker.tenant_summary()
        assert summary["a"] == {"mean_cpu_share": pytest.approx(0.5), "peak_cpu_share": 0.75}
        assert summary["b"] == {"mean_cpu_share": pytest.approx(0.5), "peak_cpu_share": 0.75}

    def test_empty_tracker_reports_zeros(self):
        from repro.metrics.report import ClusterUtilizationTracker

        summary = ClusterUtilizationTracker().summary()
        assert summary["utilization_samples"] == 0.0
        assert summary["peak_node_cpu_utilization"] == 0.0
