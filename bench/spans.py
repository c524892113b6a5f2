"""Span tracer that wraps horofan's public functions from outside the package.

`Tracer.install()` replaces each public function of the traced modules with
a wrapper that records one span per call: function, start, end, parent span
and op id.  Modules import each other's functions by name (`cli` holds
`classify`, `cox` holds it as `classify_fan`), so the wrapper is bound under
every name, in every `horofan.*` module, that holds the original.  Spans are
kept in flat integer arrays and written out once, when the run ends.

Arithmetic helpers are not wrapped: they run millions of times and their
spans would swamp both the trace and its overhead.  Their time counts as
self time of the calling function.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

LAYERS = ("lattice", "cones", "fans", "classification", "cox", "local",
          "dynkin", "document", "cli")

UNTRACED = {
    "lattice": {"freeze_vector", "freeze_matrix", "identity", "dot", "negate",
                "mat_vec", "vec_mat", "mat_mul", "transpose", "vector_gcd"},
    "cones": {"primitive", "zero_cone"},
}

# Functions whose cache statistics are reported, by traced name.
CACHED = ("cones.faces", "cones.intersect")


def _is_traceable(obj, module_name: str) -> bool:
    plain = type(obj).__name__ == "function"
    cached = hasattr(obj, "cache_info")
    return (plain or cached) and getattr(obj, "__module__", None) == module_name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.active = True
        self.faces_out = 0
        self.pairs = 0
        self.originals: dict[str, object] = {}
        self.cache_counts: dict[str, list[int]] | None = None

    def install(self) -> None:
        import importlib
        for layer in LAYERS:
            importlib.import_module(f"horofan.{layer}")
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "horofan" or name.startswith("horofan."))]
        for layer in LAYERS:
            mod = sys.modules[f"horofan.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or name in UNTRACED.get(layer, ()):
                    continue
                if not _is_traceable(obj, mod.__name__):
                    continue
                key = f"{layer}.{name}"
                self.originals[key] = obj
                wrapper = self._wrap(key, obj)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            setattr(m, attr, wrapper)

    def _wrap(self, key: str, fn):
        fid = len(self.names)
        self.names.append(key)
        clock = time.perf_counter_ns
        stack = self.stack
        fids, starts, ends = self.fid, self.start, self.end
        parents, ops = self.parent, self.op_of
        tracer = self

        def call(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if key == "cones.faces":
            def wrapper(*args, **kwargs):
                out = call(*args, **kwargs)
                if tracer.active:
                    tracer.faces_out += len(out)
                return out
        elif key == "fans.validate_fan":
            def wrapper(L, coloured_cones):
                coloured_cones = list(coloured_cones)
                if tracer.active:
                    n = len(dict.fromkeys(coloured_cones))
                    tracer.pairs += n * (n - 1) // 2
                return call(L, coloured_cones)
        else:
            wrapper = call
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _columns(self):
        return (self.fid, self.start, self.end, self.parent, self.op_of)

    def _cache_info(self) -> dict[str, list[int]]:
        out = {}
        for key in CACHED:
            info = getattr(self.originals.get(key), "cache_info", None)
            if info is not None:
                ci = info()
                out[key] = [ci.hits, ci.misses]
        return out

    def reset(self) -> None:
        """Forget recorded spans and counters (in a fresh fork)."""
        for col in self._columns():
            del col[:]
        self.faces_out = self.pairs = 0

    def export(self) -> dict:
        """Spans and counters of this process, for `absorb` in its parent."""
        return {"columns": [col.tolist() for col in self._columns()],
                "faces_out": self.faces_out, "pairs": self.pairs,
                "caches": self._cache_info()}

    def absorb(self, data: dict) -> None:
        """Append the spans and counters a forked process exported."""
        offset = len(self.fid)
        fid, start, end, parent, op = data["columns"]
        self.fid.extend(fid)
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(p + offset if p >= 0 else p for p in parent)
        self.op_of.extend(op)
        self.faces_out += data["faces_out"]
        self.pairs += data["pairs"]
        if self.cache_counts is None:
            self.cache_counts = {}
        for key, (hits, misses) in data["caches"].items():
            h, m = self.cache_counts.get(key, (0, 0))
            self.cache_counts[key] = [h + hits, m + misses]

    def summary(self, op_groups: list[str] | None = None) -> dict:
        """Exact call counts and self time per function, plus the counters.

        A span's self time is its duration minus its children's durations;
        children of one span never overlap in a single thread.  With
        `op_groups` (a label per op id) self time is also split by label.
        """
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        labels = sorted(set(op_groups or ()))
        group_of = [labels.index(g) for g in op_groups or ()]
        by_group = [[0] * n for _ in labels]
        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        ops = self.op_of
        for i in range(len(fids)):
            d = ends[i] - starts[i]
            f = fids[i]
            calls[f] += 1
            self_ns[f] += d
            p = parents[i]
            if p >= 0:
                self_ns[fids[p]] -= d
            if group_of and ops[i] >= 0:
                row = by_group[group_of[ops[i]]]
                row[f] += d
                if p >= 0:
                    row[fids[p]] -= d
        caches = (self.cache_counts if self.cache_counts is not None
                  else self._cache_info())
        return {
            "calls": dict(zip(self.names, calls)),
            "self_ns": dict(zip(self.names, self_ns)),
            "self_ns_by_group": {g: dict(zip(self.names, row))
                                 for g, row in zip(labels, by_group)},
            "faces_out": self.faces_out,
            "pairs": self.pairs,
            "caches": caches,
            "spans": len(fids),
        }

    def write_spans(self, path: str) -> None:
        """Columns fid, start_ns, end_ns, parent, op as int64, after a JSON
        header line naming the functions."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.fid),
                      "columns": ["fid", "start_ns", "end_ns", "parent", "op"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for col in self._columns():
                col.tofile(fh)


def importtime_s(stderr_text: str) -> float:
    """Time spent importing `horofan` modules, from `-X importtime` output.

    Sums the cumulative column of each horofan module whose import is not
    nested inside another horofan import, so the stdlib modules horofan
    pulls in count once and nothing counts twice.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(),
                        int(parts[1])))
    # importtime prints a module after the modules it imports; read in
    # reverse, an import comes before everything nested inside it
    total_us = 0
    cover = None
    for depth, mod, cumulative_us in reversed(entries):
        if cover is not None and depth > cover:
            continue
        cover = None
        if mod == "horofan" or mod.startswith("horofan."):
            total_us += cumulative_us
            cover = depth
    return total_us / 1e6
