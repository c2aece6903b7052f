"""User-space substrate: the perf-event rings the §4 daemons poll."""

from .perf import PerfRing

__all__ = ["PerfRing"]
