"""Measurement utilities: byte-accurate memory ledgers and event timelines."""

from repro.metrics.memory import MemoryLedger
from repro.metrics.timeline import FetchOverlap, OverlapLedger, Timeline, TimelineEvent
from repro.metrics.report import MetricReport, summarize

__all__ = [
    "MemoryLedger",
    "FetchOverlap",
    "OverlapLedger",
    "Timeline",
    "TimelineEvent",
    "MetricReport",
    "summarize",
]
