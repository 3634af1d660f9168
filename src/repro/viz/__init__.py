"""Visualization and measurement layer.

The paper argues that environments for large-scale concurrency "must
provide ... powerful visualization capabilities" and that the shared
dataspace paradigm "elegantly accommodates programmer-defined visualization"
because the whole data state is observable by decoupled processes.

This package supplies:

* :mod:`repro.viz.stats` — aggregate statistics over run traces
  (concurrency profiles, per-process activity, phase structure);
* :mod:`repro.viz.render` — plain-ASCII renderers (timeline, histogram,
  dataspace table, image grids for the region-labeling examples);
* :mod:`repro.viz.observer` — a dataspace observer that snapshots
  arbitrary patterns over time, usable as a "visualization process"
  completely decoupled from the computation.
"""

from repro.viz.stats import (
    concurrency_profile,
    phase_summary,
    process_activity,
)
from repro.viz.render import (
    render_dataspace,
    render_grid,
    render_histogram,
    render_profile,
    render_timeline,
)
from repro.viz.observer import DataspaceObserver
from repro.viz.dump import (
    dump_dataspace,
    dump_trace_jsonl,
    load_dataspace,
    trace_records,
)

__all__ = [
    "dump_dataspace",
    "dump_trace_jsonl",
    "load_dataspace",
    "trace_records",
    "concurrency_profile",
    "phase_summary",
    "process_activity",
    "render_dataspace",
    "render_grid",
    "render_histogram",
    "render_profile",
    "render_timeline",
    "DataspaceObserver",
]
