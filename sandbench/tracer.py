"""Outside-in tracing of sandwalk's layers.

The tracer replaces public functions of the sandwalk modules (and
``numpy.linalg.solve``) with timing wrappers while it is installed, and puts
the originals back when it is removed.  Nothing inside the program changes:
the simulator reaches these functions through module attributes, so the
wrappers see every call made in this process.  Pool workers are separate
processes and are never traced.

Each wrapped call is a span.  Spans are aggregated in memory as they close
rather than kept one by one: a traced second simulated holds about 10^5
spans.  Per span name the tracer keeps the call count, total time, self time
(duration minus the part covered by child spans), bytes of the file it read
or wrote, exceptions by type, and the parent -> child call edges.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter


def layer_targets():
    """(owner, attribute, span name, records file size) for every traced layer."""
    import numpy.linalg
    from sandwalk import dynamics, gait, metrics, rolling, sim, terrain

    return [
        (sim, "run", "sim.run", False),
        (dynamics, "assemble_sagittal", "dynamics.assemble_sagittal", False),
        (dynamics, "assemble_frontal", "dynamics.assemble_frontal", False),
        (numpy.linalg, "solve", "numpy.linalg.solve", False),
        (terrain, "sagittal_forces", "terrain.sagittal_forces", False),
        (terrain, "lateral_force", "terrain.lateral_force", False),
        (rolling, "lowest_point", "rolling.lowest_point", False),
        (rolling.FootShape, "slope", "rolling.FootShape.slope", False),
        (gait, "leg_ik", "gait.leg_ik", False),
        (gait, "cycloid_swing", "gait.cycloid_swing", False),
        (gait, "track_joints", "gait.track_joints", False),
        (sim.Trajectory, "save_csv", "sim.Trajectory.save_csv", True),
        (sim.Trajectory, "save_json", "sim.Trajectory.save_json", True),
        (sim.Trajectory, "load_csv", "sim.Trajectory.load_csv", True),
        (metrics, "resample_stance", "metrics.resample_stance", False),
        (metrics, "cot", "metrics.cot", False),
        (metrics, "velocity_sweep", "metrics.velocity_sweep", False),
    ]


class Tracer:
    """Context manager that traces the layers while it is entered."""

    def __init__(self, targets):
        self._targets = targets
        self._saved = []
        self._stack = []  # open spans as [name, seconds covered by children]
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.bytes = Counter()
        self.edges = Counter()
        self.errors = defaultdict(Counter)

    def _wrap(self, name, fn, sized):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name][type(exc).__name__] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.edges[(parent[0] if parent else "", name)] += 1
            if sized:
                self.bytes[name] += os.path.getsize(args[1])
            return result

        return functools.update_wrapper(traced, fn)

    def __enter__(self) -> "Tracer":
        for owner, attr, name, sized in self._targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, sized))
            else:
                wrapped = self._wrap(name, original, sized)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def snapshot(self) -> dict:
        """Plain copy of the aggregates, for one traced iteration."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "bytes": dict(self.bytes),
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items())},
            "errors": {k: dict(v) for k, v in self.errors.items()},
        }
