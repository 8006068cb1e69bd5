"""In-memory spans around calls into twobridge's public functions.

A span is (name, start, end, parent, run id), kept in memory and written
as gzipped JSON lines when the run ends.  The program is not edited: `install`
replaces each public function, wherever a twobridge module holds a
reference to it, by a wrapper that records a span.

Generator functions get one span from creation to exhaustion, plus a
``busy`` field with the time spent inside the generator itself; the
consumer's work between items is not theirs.  A span's duration is its
busy time when it has one and end - start otherwise, and its self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from time import perf_counter

# Public functions that get spans, by module.  Inner hot loops
# (compositions, sign_patterns, binom, _orbit_min) are left alone so
# that tracing does not swamp what it measures.
TRACED = {
    "enumeration": ("strata", "enumerate_sequences", "enumerate_classes", "tally"),
    "knots": ("canonicalize", "is_amphichiral"),
    "contfrac": ("cf_value", "even_expansion"),
    "formulas": (
        "tk_closed", "tg_closed", "tk_mirror_closed", "tg_mirror_closed",
        "correction", "correction_mirror", "avg_genus", "avg_genus_mirror",
        "residual", "residual_mirror", "stratum_closed_A", "stratum_closed_B",
    ),
    "identities": (
        "wellknown_check", "x2_specialization_check", "weighted_sum_check",
        "alpha_recurrence_check",
    ),
}


FIELDS = ["id", "name", "start", "end", "parent", "busy"]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, busy]
        self.stack = []
        self.pools_started = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, None])
        return sid

    def close(self, sid: int):
        self.spans[sid][2] = perf_counter()

    def call(self, name: str, fn, *args, **kwargs) -> tuple[int, object]:
        """Call fn inside a new span; return (span id, result)."""
        sid = self.open(name)
        self.stack.append(sid)
        try:
            return sid, fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.close(sid)

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)[1]

        return traced

    def _wrap_generator(self, fn, name: str):
        def traced(*args, **kwargs):
            sid = self.open(name)
            gen = fn(*args, **kwargs)
            busy = 0.0
            try:
                while True:
                    self.stack.append(sid)
                    t = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - t
                        self.stack.pop()
                    yield item
            finally:
                self.close(sid)
                self.spans[sid][4] = busy

        return traced

    def duration(self, sid: int) -> float:
        name, start, end, parent, busy = self.spans[sid]
        return busy if busy is not None else end - start

    def _self_times(self) -> list:
        own = [self.duration(i) for i in range(len(self.spans))]
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                own[span[3]] -= self.duration(i)
        return own

    def self_time(self, sid: int) -> float:
        return self._self_times()[sid]

    def self_times_by_layer(self) -> dict:
        """Self time summed by the module part of each span name."""
        out = {}
        for span, t in zip(self.spans, self._self_times()):
            layer = span[0].split(".")[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(self.duration(i) for i, span in enumerate(self.spans) if span[0] == name)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        with gzip.open(path, "rt") as f:
            tr = cls(json.loads(f.readline())["run"])
            for line in f:
                _, name, start, end, parent, busy = json.loads(line)
                tr.spans.append([name, start, end, parent, busy])
        return tr

    def dump(self, path: str):
        """Write a header with the run id, then one list per span, in FIELDS order."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"run": self.run_id, "fields": FIELDS}) + "\n")
            for i, span in enumerate(self.spans):
                f.write(json.dumps([i, *span]) + "\n")


def install(tracer: Tracer):
    """Wrap every TRACED function, and count and span each enumeration pool."""
    import twobridge.cli  # so that the names cli imported are wrapped too
    from twobridge import enumeration

    modules = [m for name, m in sys.modules.items()
               if name == "twobridge" or name.startswith("twobridge.")]
    for mod_name, names in TRACED.items():
        mod = sys.modules[f"twobridge.{mod_name}"]
        for name in names:
            original = getattr(mod, name)
            wrapped = tracer.wrap(original, f"{mod_name}.{name}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    base = enumeration.ProcessPoolExecutor

    class SpannedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.pools_started += 1
            self._span = tracer.open("enumeration.pool")

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer.close(self._span)

    enumeration.ProcessPoolExecutor = SpannedPool
