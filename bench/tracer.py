"""In-memory tracing of the cannings package from outside it.

``Tracer.install()`` replaces every public function of every
``cannings`` module, and every public method of its classes, with a
wrapper that records a span; ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.  Private helpers (``_run_chain``,
``_apply_jump_batch``, ...) are not wrapped: their time is the self time
of the public function that called them.

Spans are aggregated in memory, keyed by (experiment, parent span name,
span name), with call count, total time and self time (total minus the
time covered by child spans).  Everything runs on one thread, so a span
never waits.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil
import time


def _batch_steps(p, result):
    # the step count simulate_batch uses
    steps = int(math.ceil(p["total_time"] / p["dt"] - 1e-12))
    return [("limit_sde.batch_steps", steps),
            ("limit_sde.path_steps", steps * p["n_paths"])]


# public functions whose arguments or result carry a work count: each
# hook maps (bound arguments, result) to [(counter name, increment)]
_HOOKS = {
    "discrete.forward_trajectories":
        lambda p, r: [("discrete.forward_steps", r.shape[0] * (r.shape[1] - 1))],
    "limit_sde.simulate_batch": _batch_steps,
    "simplex.TruncatedSampler.draw_atom_indices":
        lambda p, r: [("simplex.atom_index_draws", p["size"])],
    "threshold.kappa_star_mc":
        lambda p, r: [("threshold.draws", p["replicates"])],
}


def cannings_modules():
    import cannings
    mods = [cannings]
    for info in pkgutil.iter_modules(cannings.__path__):
        mods.append(importlib.import_module(f"cannings.{info.name}"))
    return mods


class Tracer:
    """Aggregated span tree plus work counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str, str], list] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self.experiment = "-"
        self._stack = [["-", 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                key = (tracer.experiment, parent, name)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, inc in hook(bound.arguments, result):
                    tracer.count(counter, inc)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, inc=1) -> None:
        key = (self.experiment, name)
        self.counters[key] = self.counters.get(key, 0) + inc

    def counter(self, name: str, experiment: str | None = None) -> float:
        return sum(v for (exp, n), v in self.counters.items()
                   if n == name and experiment in (None, exp))

    def span(self, name: str, seconds: float) -> None:
        """Record a span measured by the caller (the experiment root)."""
        rec = self.spans.setdefault((self.experiment, "-", name), [0, 0.0, 0.0])
        covered = self._stack[0][1]
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds - covered
        self._stack[0][1] = 0.0

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = cannings_modules()
        originals: dict[int, tuple[object, object]] = {}
        for mod in modules[1:]:
            layer = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(layer, obj)
        # rebind every module-level reference, including the names other
        # modules imported with ``from .x import f``
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _patch_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            hand_init = (attr == "__init__" and not dataclasses.is_dataclass(cls))
            if not (public or hand_init):
                continue
            name = f"{layer}.{cls.__name__}" + ("" if hand_init else f".{attr}")
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def total(self, name: str, field: int = 1,
              experiment: str | None = None) -> float:
        """Sum one field (0 calls, 1 total s, 2 self s) over spans of a name."""
        return sum(rec[field] for (exp, _, span), rec in self.spans.items()
                   if span == name and experiment in (None, exp))

    def calls(self, name: str, experiment: str | None = None) -> float:
        return self.total(name, 0, experiment)

    def layer_self(self, layer: str, experiment: str | None = None) -> float:
        return sum(rec[2] for (exp, _, span), rec in self.spans.items()
                   if span.split(".")[0] == layer and experiment in (None, exp))

    def experiments(self) -> list[str]:
        return sorted({exp for exp, _, _ in self.spans})

    def span_table(self) -> list[dict]:
        return [{"experiment": exp, "parent": parent, "span": span,
                 "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
                for (exp, parent, span), rec in sorted(self.spans.items())]

    def counter_table(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for (exp, name), value in sorted(self.counters.items()):
            out.setdefault(exp, {})[name] = value
        return out
