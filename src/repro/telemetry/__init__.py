"""repro.telemetry — streaming observability over running networks.

The registry → samplers → sinks pipeline:

* :class:`MetricsRegistry` (:mod:`repro.telemetry.metrics`) is the one
  read path for every counter and gauge, labelled by
  ``(node, device, sid, hook)``; collectors are its one way in;
* :mod:`repro.telemetry.instrument` registers the collectors that read
  the simulation's existing counters without touching the hot path;
* :class:`TelemetrySession` (:mod:`repro.telemetry.sampler`) snapshots
  the registry periodically, drains perf rings and bridges control-bus
  events into one time-ordered JSONL stream;
* :class:`RingSink`/:class:`FileSink` (:mod:`repro.telemetry.sink`)
  receive that stream — bounded and lossy-with-drop-counts, or a file.

Enable per network with ``net.telemetry(interval_ms=10)``; inspect live
runs interactively with :mod:`repro.cli`.
"""

from .instrument import instrument_network, network_samples, perf_maps
from .metrics import MetricsRegistry, Sample
from .sampler import TelemetrySession
from .sink import FileSink, RingSink, encode

__all__ = [
    "FileSink",
    "MetricsRegistry",
    "RingSink",
    "Sample",
    "TelemetrySession",
    "encode",
    "instrument_network",
    "network_samples",
    "perf_maps",
]
