"""In-memory span tracer that wraps the program's public functions.

The wrappers live in the benchmark, not in the program: a function is
replaced in every module namespace that holds it, including the modules that
imported it with ``from .x import y``, and restored afterwards.

Each wrapped call updates exact counters (calls, raises, non-None returns)
and its self time, which is its duration minus the time covered by wrapped
calls made inside it. Self time is also aggregated per (name, parent name)
edge. Only functions registered with ``span=True`` (low-frequency
boundaries) additionally keep one span record per call, so hot leaves such as
travel-time lookups stay O(1) in memory.
"""

from __future__ import annotations

import itertools
from time import perf_counter

ROOT_NAME = "<op>"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, raises, returned, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, self_s]
        self.spans: list[tuple] = []  # (span_id, parent_span_id, name, start, end)
        self.extra: dict[str, object] = {}  # hook counters: ints, or sets counted by size
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every counter in place; wrappers keep their references."""
        for st in self.stats.values():
            st[:] = [0, 0, 0, 0.0]
        self.edges.clear()
        self.spans.clear()
        self.extra.clear()
        self._stack[:] = [[ROOT_NAME, 0.0, 0]]  # frame: [name, child_s, span_id]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False, before=None, after=None):
        """Traced stand-in for fn.

        ``before(args, kwargs, parent_name)`` may edit kwargs in place;
        ``after(args, kwargs, result)`` sees the result of a call that returned.
        """
        st = self.stats.setdefault(name, [0, 0, 0, 0.0])
        stack, edges, spans, ids = self._stack, self.edges, self.spans, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1]
            if before is not None:
                before(args, kwargs, parent[0])
            sid = next(ids) if span else parent[2]
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[1] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[1]
                parent[1] += dt
                st[0] += 1
                st[3] += own
                key = (name, parent[0])
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, own]
                else:
                    edge[0] += 1
                    edge[1] += own
                if span:
                    spans.append((sid, parent[2], name, t0, t1))
            if result is not None:
                st[2] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch_function(self, modules, owner, attr: str, name: str, **hooks) -> None:
        """Replace owner.attr in owner and in every module that imported it."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._patches.append((mod, key, original))
                setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def unpatch(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def exact_counters(self) -> dict:
        """Every count the run produced; identical code and inputs must repeat them."""
        out = {f"{n}.{k}": st[i] for n, st in self.stats.items()
               for i, k in enumerate(("calls", "raises", "returned"))}
        out.update({f"edge:{n}<-{p}": e[0] for (n, p), e in self.edges.items()})
        out.update({k: len(v) if isinstance(v, set) else v for k, v in self.extra.items()})
        return out

    def dump(self) -> dict:
        return {
            "functions": {n: {"calls": st[0], "raises": st[1], "returned": st[2],
                              "self_s": st[3]} for n, st in sorted(self.stats.items())},
            "edges": [{"name": n, "parent": p, "calls": e[0], "self_s": e[1]}
                      for (n, p), e in sorted(self.edges.items())],
            "spans": [{"id": s, "parent": p, "name": n, "start": a, "end": b}
                      for s, p, n, a, b in self.spans],
        }
