"""In-process spans around the demixeval functions the workloads call.

``Tracer.installed()`` replaces each traced function with a wrapper at every
binding inside the package: the defining module and every module that
imported it by name (``harness.read_wav``, ``cli.metric_suite``, the
package ``__init__``). Calls made through module globals, such as
``oracle.stft`` inside ``ideal_mwf``, therefore pass through the wrapper too.
Spans stay in memory; aggregates are derived when the replay ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

TRACED = {
    "audio_io": ("read_wav", "write_wav", "validate_song_audio", "load_manifest"),
    "metrics": ("global_sdr", "metric_suite", "framewise"),
    "oracle": ("stft", "istft", "swf_masks", "ideal_swf", "ideal_mwf", "mixture_baseline"),
    "harness": ("plan_rounds", "score_song", "evaluate_submission", "rank", "load_score_document"),
    "analysis": ("read_metric_table_csv", "correlation_matrix"),
}
PEAK_ALLOC = {"oracle.ideal_swf", "oracle.ideal_mwf", "metrics.metric_suite"}


def _payload_bytes(name: str, args) -> int:
    """Bytes a call moves, for the MB/s rates."""
    if name == "audio_io.read_wav":
        return Path(args[0]).stat().st_size
    if name == "audio_io.write_wav":
        return args[0].samples.size * 4
    if name == "metrics.global_sdr":
        return args[0].samples.nbytes + args[1].samples.nbytes
    return 0


class Tracer:
    def __init__(self, reference_paths=()):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.bytes = defaultdict(int)
        self.peak_alloc = defaultdict(int)
        self.reference_paths = {Path(p) for p in reference_paths}
        self.reference_decodes = 0

    def wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name == "analysis.correlation_matrix":
                span_name = f"{name}.{args[1].value}"
            else:
                span_name = name
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            alloc = name in PEAK_ALLOC and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_alloc[name] = max(tracer.peak_alloc[name], peak)
                tracer.stack.pop()
                tracer.spans[index] = (span_name, start, end, parent)
                tracer.bytes[name] += _payload_bytes(name, args)
                if name == "audio_io.read_wav" and Path(args[0]) in tracer.reference_paths:
                    tracer.reference_decodes += 1

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at every binding; restore on exit."""
        bindings = [m for n, m in list(sys.modules.items()) if n == "demixeval" or n.startswith("demixeval.")]
        restore = []
        for module_name, names in TRACED.items():
            module = sys.modules[f"demixeval.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for binding in bindings:
                    for attr, value in list(vars(binding).items()):
                        if value is original:
                            setattr(binding, attr, wrapper)
                            restore.append((binding, attr, original))
        try:
            yield self
        finally:
            for binding, attr, original in restore:
                setattr(binding, attr, original)

    def summary(self) -> dict:
        """{span name: {calls, busy_s, self_s}}."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out
