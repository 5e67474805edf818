"""In-memory span recorder wrapped around the public calls of qdiffusion.

A span is recorded around each wrapped call: its name, start, end and the
span that was open when it started.  Every op opens a root span, so the spans
of one op share that root.  Spans are kept in memory and written out once,
when the benchmark ends.  Self time is a span's duration minus the time its
child spans cover.

Wrappers are installed where the *consuming* module binds a name (for example
`qdiffusion.cli.build_kraus_set`), so they see exactly the calls that module
makes; untraced runs install nothing.
"""

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from qdiffusion import channel, cli, oracle, phase_space

#: (module, attribute, span name); a name may be bound in several modules
WRAPPED = (
    (cli, "parse_config", "cli.parse_config"),
    (cli, "run_scenario", "cli.run_scenario"),
    (cli, "state_metrics", "fock.state_metrics"),
    (cli, "trace_distance", "fock.trace_distance"),
    (cli, "build_kraus_set", "channel.build_kraus_set"),
    (cli, "kraus_evolve", "channel.kraus_evolve"),
    (cli, "coherent_output", "channel.coherent_output"),
    (cli, "number_output", "channel.number_output"),
    (cli, "squeezed_output", "channel.squeezed_output"),
    (cli, "resolve_squeezed_sign", "channel.resolve_squeezed_sign"),
    (cli, "evolve_via_p_integral", "channel.evolve_via_p_integral"),
    (cli, "evolve_via_husimi_integral", "channel.evolve_via_husimi_integral"),
    (cli, "integrate_master_equation", "oracle.integrate_master_equation"),
    (channel, "evolve_via_p_integral", "channel.evolve_via_p_integral"),
    (channel, "resolve_squeezed_sign", "channel.resolve_squeezed_sign"),
    (channel, "ordered_gaussian_kernel", "fock.ordered_gaussian_kernel"),
    (channel, "moment_term_coefficients", "special.moment_term_coefficients"),
    (phase_space, "rho_from_p", "phase_space.rho_from_p"),
    (phase_space, "p_from_rho_mehta", "phase_space.p_from_rho_mehta"),
    (oracle.ComplexGrid, "nodes_weights", "oracle.ComplexGrid.nodes_weights"),
)


class Tracer:
    """Records spans; with track_memory, also each span's tracemalloc peak
    above the memory in use when it opened (tracemalloc must be running)."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.peak_bytes = []
        self._stack = []
        self._base = {}
        self._high = {}

    def _fold_peak(self) -> int:
        # the peak since the last span event belongs to every open span
        current, peak = tracemalloc.get_traced_memory()
        for idx in self._stack:
            self._high[idx] = max(self._high[idx], peak)
        tracemalloc.reset_peak()
        return current

    def _open(self, name: str) -> int:
        idx = len(self.names)
        if self.track_memory:
            current = self._fold_peak()
            self._base[idx] = self._high[idx] = current
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.peak_bytes.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        if self.track_memory:
            self._fold_peak()
            self.peak_bytes[idx] = self._high.pop(idx) - self._base.pop(idx)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def self_times_ns(self) -> list:
        """Each span's duration minus the durations of its direct children.

        Calls are serial, so children never overlap and their durations add.
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def by_name(self) -> dict:
        """name -> {"calls", "self_s", "peak_mb"} summed (peak: maximum)."""
        out = {}
        for name, own, peak in zip(self.names, self.self_times_ns(), self.peak_bytes):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "peak_mb": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own * 1e-9
            entry["peak_mb"] = max(entry["peak_mb"], peak / 1e6)
        return out

    def write(self, path: Path, meta: dict) -> None:
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        spans = [
            [ids[name], parent, start, end]
            for name, parent, start, end in zip(self.names, self.parents, self.starts, self.ends)
        ]
        doc = {"meta": meta, "names": table,
               "columns": ["name", "parent", "start_ns", "end_ns"], "spans": spans}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on every WRAPPED binding; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in WRAPPED]
    try:
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
