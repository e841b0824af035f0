"""Workload generation: traffic and host churn."""

from repro.workloads.churn import ChurnWorkload
from repro.workloads.traffic import TrafficWorkload, inject_marker_packet

__all__ = [
    "ChurnWorkload",
    "TrafficWorkload",
    "inject_marker_packet",
]
