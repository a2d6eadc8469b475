"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, run): ``start`` and ``end`` are
``time.perf_counter()`` instants, ``parent`` is the index of the enclosing
span or -1, and ``run`` names the design the span belongs to. Spans stay in
memory until the run ends; ``write`` then stores them, with their reference
times (see ``clock.py``), one JSON object per line.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[str] = []

    def record(self, name: str, start: float, end: float, parent: int = -1, run: str = "") -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.runs.append(run)
        return len(self.names) - 1

    def self_times(self, ref_time) -> dict[str, np.ndarray]:
        """Reference seconds of each span minus the part its children cover,
        grouped by span name in recording order."""
        starts = ref_time(self.starts)
        ends = ref_time(self.ends)
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        grouped: dict[str, list[float]] = defaultdict(list)
        for i, name in enumerate(self.names):
            covered = 0.0
            reach = starts[i]
            for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
                lo, hi = max(starts[c], reach), min(ends[c], ends[i])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            grouped[name].append(ends[i] - starts[i] - covered)
        return {name: np.asarray(v) for name, v in grouped.items()}

    def write(self, path, ref_time) -> None:
        ref_starts = ref_time(self.starts)
        ref_ends = ref_time(self.ends)
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "start_ref": float(ref_starts[i]),
                    "end_ref": float(ref_ends[i]),
                    "parent": self.parents[i],
                    "run": self.runs[i],
                }) + "\n")
