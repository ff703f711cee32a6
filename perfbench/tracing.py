"""Span tracing installed from outside the viscowave package.

`Tracer.install()` replaces each traced entry point with a timing wrapper
wherever the name is looked up: every `viscowave.*` module attribute that is
the original function object (so `viscowave.cli.assemble_gram` is patched as
well as `viscowave.control_synthesis.assemble_gram`), the `values` method of
every `Kernel` subclass, and the numpy functions the package calls through
the `np.` attribute path (`np.linalg.eigvalsh`, `np.savetxt`, `np.loadtxt`).
`uninstall()` restores the originals, so untimed runs execute the unmodified
package.

Spans stay in memory.  A span opened in a worker thread that has no open span
of its own is attributed to the innermost open span of the installing thread,
which is the call that submitted the work (the Gram thread pool).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# The benchmark opens this span around each traced op; its self time is the
# part of the op that no traced layer accounts for.
ROOT_SPAN = "bench.op"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "thread": self.thread,
            "start_s": self.t0,
            "end_s": self.t1,
            "attrs": self.attrs,
        }


def _march_attrs(args, kwargs, result):
    # rows = batch size; each call marches n nodes, and step j >= 2 sums j - 1
    # history products, so one row costs (n - 1)(n - 2) / 2 multiply-adds.
    shape = np.shape(result)
    n = shape[-1]
    rows = int(np.prod(shape[:-1], dtype=np.int64))
    return {"rows": rows, "n": n, "mac": rows * (n - 1) * (n - 2) // 2}


def _gram_attrs(args, kwargs, result):
    return {"min_eig": result.min_eigenvalue, "cond": result.condition_number}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(os.fspath(args[0]))}


def _traced_functions():
    """(span name, original function, attrs hook) for every traced entry point."""
    from viscowave import cli, control_synthesis, modal_dynamics, quadrature
    from viscowave import spectral_basis, volterra

    return [
        ("volterra.march", volterra.march_difference_kernel, _march_attrs),
        ("modal_dynamics.kernels", modal_dynamics.memory_oscillator_kernels, None),
        ("modal_dynamics.forward", modal_dynamics.forward_simulate, None),
        ("quadrature.convolve", quadrature.trapezoid_convolve, None),
        ("control_synthesis.gram", control_synthesis.assemble_gram, _gram_attrs),
        ("control_synthesis.solve", control_synthesis.solve_min_norm_control, None),
        ("control_synthesis.probe", control_synthesis.perturbation_compactness_probe, None),
        ("spectral_basis.build", spectral_basis.build_interval_basis, None),
        ("spectral_basis.build", spectral_basis.build_rectangle_basis, None),
        ("cli.main", cli.main, None),
    ]


def _kernel_classes():
    from viscowave.memory_kernel import Kernel

    found, todo = [], [Kernel]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if "values" in vars(cls)]


class Tracer:
    """Collects spans from wrappers it installs; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1].sid
            elif self._main_stack:
                parent = self._main_stack[-1].sid
            else:
                parent = None
            span = Span(self._next_id, parent, name, threading.get_ident(), time.perf_counter())
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- wrapper installation --------------------------------------------
    def _wrap(self, name, fn, attrs_hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs_hook is not None:
                span.attrs.update(attrs_hook(args, kwargs, result))
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn, hook) for name, fn, hook in _traced_functions()}
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None and (modname == "viscowave" or modname.startswith("viscowave."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        for cls in _kernel_classes():
            self._patch(cls, "values", self._wrap("memory_kernel.sample", cls.values, None))
        self._patch(
            np.linalg, "eigvalsh", self._wrap("control_synthesis.eigvalsh", np.linalg.eigvalsh, None)
        )
        self._patch(np, "savetxt", self._wrap("cli.io.write", np.savetxt, _file_bytes))
        self._patch(np, "loadtxt", self._wrap("cli.io.read", np.loadtxt, _file_bytes))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by the span's children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.sid, [])]
        out[s.sid] = (s.t1 - s.t0) - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one traced op."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_s(name):
        return sum(own[s.sid] for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    marches = named("volterra.march")
    march_self = self_s("volterra.march")
    mac = attr_sum("volterra.march", "mac")
    busy = sum(s.t1 - s.t0 for s in marches)
    union = _union_length([(s.t0, s.t1) for s in marches])
    probe_ids = {s.sid for s in named("control_synthesis.probe")}
    grams = named("control_synthesis.gram")
    (root,) = named(ROOT_SPAN)
    return {
        "volterra.march.calls": len(marches),
        "volterra.march.rows": attr_sum("volterra.march", "rows"),
        "volterra.march.self_s": march_self,
        "volterra.march.mac": mac,
        "volterra.march.gmac_per_s": mac / march_self / 1e9 if march_self > 0 else 0.0,
        "volterra.march.bytes_computed": 16 * mac,
        "volterra.march.concurrency": busy / union if union > 0 else 0.0,
        "control_synthesis.gram.self_s": self_s("control_synthesis.gram"),
        "control_synthesis.eigvalsh.self_s": self_s("control_synthesis.eigvalsh"),
        "control_synthesis.solve.self_s": self_s("control_synthesis.solve"),
        "control_synthesis.probe.self_s": self_s("control_synthesis.probe"),
        "control_synthesis.probe.march_rows": sum(
            s.attrs["rows"] for s in marches if s.parent in probe_ids
        ),
        "control_synthesis.gram_min_eig": grams[-1].attrs["min_eig"] if grams else 0.0,
        "control_synthesis.gram_cond": grams[-1].attrs["cond"] if grams else 0.0,
        "modal_dynamics.kernels.self_s": self_s("modal_dynamics.kernels"),
        "modal_dynamics.forward.calls": len(named("modal_dynamics.forward")),
        "modal_dynamics.forward.self_s": self_s("modal_dynamics.forward"),
        "quadrature.convolve.calls": len(named("quadrature.convolve")),
        "quadrature.convolve.self_s": self_s("quadrature.convolve"),
        "cli.io.write_s": self_s("cli.io.write"),
        "cli.io.write_bytes": attr_sum("cli.io.write", "bytes"),
        "cli.io.read_s": self_s("cli.io.read"),
        "cli.io.read_bytes": attr_sum("cli.io.read", "bytes"),
        "cli.main.self_s": self_s("cli.main"),
        "spectral_basis.build.self_s": self_s("spectral_basis.build"),
        "memory_kernel.sample.self_s": self_s("memory_kernel.sample"),
        "trace.unattributed_s": own[root.sid],
    }
