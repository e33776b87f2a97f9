"""Streaming digital-twin mode: event-time windows + online calibration.

The stream layer closes the loop the paper leaves open: instead of one
fixed profile in and one optimal allocation out, it consumes a live
event stream (:mod:`repro.stream.events`), cuts it into event-time
windows (:mod:`repro.stream.windows`), re-evaluates X/W/HECR and the
optimal FIFO split on the current worker set every window, and fits
(τ, π, δ) plus per-worker ρ online from observed completion milestones
(:mod:`repro.stream.calibrate`) — with an operator-supplied what-if
profile running in shadow alongside.  See ``docs/STREAM.md``.

Surfaces: the ``repro-hetero stream`` CLI, the service's
``POST /v1/stream/events`` / ``GET /v1/stream/state`` endpoints, and
the sharded ``stream-replay`` experiment.
"""

from repro.stream.calibrate import CalibrationSnapshot, Calibrator
from repro.stream.engine import StreamProcessor, record_to_line
from repro.stream.events import (EVENT_TYPES, StreamEvent, canonical_key,
                                 event_from_dict, event_to_dict,
                                 event_to_line, file_source,
                                 parse_event_line, read_events,
                                 stdin_source, store_source)
from repro.stream.synthetic import synthetic_trace, write_trace
from repro.stream.windows import ClusterState, Window, WindowManager

__all__ = [
    "CalibrationSnapshot", "Calibrator", "ClusterState", "EVENT_TYPES",
    "StreamEvent", "StreamProcessor", "Window", "WindowManager",
    "canonical_key", "event_from_dict", "event_to_dict", "event_to_line",
    "file_source", "parse_event_line", "read_events", "record_to_line",
    "stdin_source", "store_source", "synthetic_trace", "write_trace",
]
