"""Span tracing installed from outside the package.

The traced run replaces the public names each layer is called through
with thin wrappers that record one span per call: name, start, end and
the span that was open when the call began. Names are patched where the
caller looks them up, so ``hckernel.kernelization.twin_decomposition``
(a from-import) is patched in ``kernelization``, not in ``graphs``.

Spans are kept in flat arrays for one pass and reduced to per-name
totals and self times afterwards. A span's self time includes the cost of
its children's wrappers, which is why ``trace.overhead_frac`` is
reported beside it. A name that no longer exists is reported as missing
instead of as zero time.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (span name, module, attribute path, kind). Kind "call" wraps a function
# or method, "bool" also counts truthy results, "gen" times a generator
# while it is consumed, one span per next().
WRAPPED = (
    ("kernelization.kernelize", "hckernel.kernelization", "kernelize", "call"),
    ("graphs.twin_decomposition", "hckernel.kernelization", "twin_decomposition", "call"),
    ("graphs.neighborhood", "hckernel.graphs", "Graph.neighborhood_of_set", "call"),
    ("graphs.rebuild", "hckernel.graphs", "Graph.without_edges", "call"),
    ("graphs.rebuild", "hckernel.graphs", "Graph.without_vertices", "call"),
    ("constraints.rowgen", "hckernel.kernelization", "iter_class_constraint_keys", "gen"),
    ("gf2.insert", "hckernel.gf2", "MaskBasis.insert", "bool"),
    ("gf2.contains", "hckernel.gf2", "MaskBasis.contains", "bool"),
    ("oracle.list", "hckernel.oracle", "find_list_3_coloring", "call"),
    ("oracle.plain", "hckernel.oracle", "find_3_coloring", "call"),
    ("composer.compose", "hckernel.composer", "compose", "call"),
    ("composer.to_plain", "hckernel.composer", "list_to_plain", "call"),
    ("composer.gadget_build", "hckernel.composer", "build_blocking_gadget", "call"),
    ("formats.parse", "hckernel.formats", "parse_graph", "call"),
    ("formats.emit", "hckernel.formats", "emit_graph", "call"),
)


class Tracer:
    """Span store for one pass plus the patch/unpatch bookkeeping.

    Span i has name ``names[span_name[i]]``, runs from ``start[i]`` to
    ``end[i]`` and was opened while span ``parent[i]`` was open (-1: none).
    The arrays are cleared in place between passes, so the wrappers can
    hold direct references to them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        # per name: wrapper invocations (a generator counts once, not once
        # per item) and truthy results of "bool" wrappers
        self.calls: dict[str, list[int]] = {}
        self.truthy: dict[str, list[int]] = {}
        self.missing: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for arr in (self.span_name, self.start, self.end, self.parent):
            del arr[:]
        del self.stack[1:]
        for cell in (*self.calls.values(), *self.truthy.values()):
            cell[0] = 0

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        if name not in self.names:
            self.names.append(name)
            self.calls[name] = [0]
            self.truthy[name] = [0]
        nid = self.names.index(name)
        calls, truthy = self.calls[name], self.truthy[name]
        stack, end = self.stack, self.end
        name_append, parent_append = self.span_name.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        stack_append, stack_pop = stack.append, stack.pop
        start = self.start

        def open_span() -> int:
            idx = len(start)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack_append(idx)
            start_append(perf_counter())
            return idx

        if kind == "gen":
            def wrapper(*args, **kwargs):
                calls[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = perf_counter()
                        stack_pop()
                    yield item
        elif kind == "bool":
            def wrapper(*args, **kwargs):
                calls[0] += 1
                idx = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = perf_counter()
                    stack_pop()
                if result:
                    truthy[0] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[0] += 1
                idx = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = perf_counter()
                    stack_pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every name in WRAPPED that still exists."""
        for name, module_name, path, kind in WRAPPED:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, kind))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total time, self time, calls, items, truthy.

        Total time counts only spans not nested in a span of the same
        name. Self time is a span's duration minus the durations of its
        direct children. Items are generator yields: spans of the name
        minus its calls, since each call's last span ends the generator.
        """
        import numpy as np

        k = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.intp) \
            if len(self.span_name) else np.zeros(0, dtype=np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32) \
            if len(self.parent) else np.zeros(0, dtype=np.int32)
        start = np.frombuffer(self.start) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end) if len(self.end) else np.zeros(0)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        outer = ~nested.copy()
        outer[nested] = name[parent[nested]] != name[nested]
        total_s = np.bincount(name[outer], weights=dur[outer], minlength=k)
        spans = np.bincount(name, minlength=k)
        out = {}
        for i, nm in enumerate(self.names):
            calls = self.calls[nm][0]
            out[nm] = {"total_s": float(total_s[i]), "self_s": float(self_s[i]),
                       "calls": calls, "items": int(spans[i]) - calls,
                       "truthy": self.truthy[nm][0]}
        return out
