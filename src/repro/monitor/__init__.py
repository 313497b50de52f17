"""Utility monitoring substrate (the paper's UMON-style hardware table)."""

from repro.monitor.footprint import FootprintMetric
from repro.monitor.metrics import TimingDependentView, UtilizationMonitor
from repro.monitor.umon import UMONMonitor

__all__ = [
    "UMONMonitor",
    "FootprintMetric",
    "UtilizationMonitor",
    "TimingDependentView",
]
