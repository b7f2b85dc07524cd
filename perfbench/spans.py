"""In-memory span tracing of the ``egd`` package, installed from outside it.

A :class:`Tracer` replaces each traced ``egd`` function with a wrapper at
every name the function is bound to: module globals (including names
imported into other ``egd`` modules and the package namespace) and values
of module-level dicts such as the CLI dispatch table.  Internal calls go
through those globals, so they are seen too.  Spans are kept in memory;
:meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# Layers are the package modules; ``_linalg`` is not wrapped, so its time
# counts as self time of the ``core`` or ``scatter`` function that called it.
LAYERS = ("core", "scatter", "gammafit", "mixture", "io", "cli")


@dataclass
class Span:
    """One timed call: name, start and end (perf_counter seconds), parent."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(kids) for s, kids in zip(spans, children)]


class Tracer:
    """Records nested spans around wrapped functions and requests."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self.requests = 0
        self._patched: list[tuple[dict, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               request=self._request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def request(self, call):
        """Run ``call()`` as the next request, under a root span."""
        self._request = self.requests
        self.requests += 1
        idx = self.open("request")
        try:
            return call()
        finally:
            self.close(idx)
            self._request = None

    def wrap(self, func, name: str, note=None):
        """Wrapper recording a span named ``name`` around ``func``.

        ``note(args, kwargs, result)`` may return counters stored on the
        span; it runs after the span has closed, so its cost is not timed.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx].notes.update(note(args, kwargs, result))
            return result

        return traced

    # -- installing ------------------------------------------------------
    def install(self, targets: dict) -> None:
        """Wrap each function in ``targets`` (``func -> (name, note)``).

        Every ``egd`` module global and every value of a module-level dict
        that *is* a target function is replaced by its wrapper.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(f): self.wrap(f, name, note)
                    for f, (name, note) in targets.items()}
        for mod in _egd_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                self._patch(namespace, key, value, wrappers)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._patch(value, k, v, wrappers)

    def _patch(self, container, key, value, wrappers):
        wrapper = wrappers.get(id(value))
        if wrapper is not None:
            self._patched.append((container, key, value))
            container[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _egd_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "egd" or name.startswith("egd."))]


def public_functions(module):
    """Functions named in ``module.__all__`` and defined in that module."""
    return [getattr(module, n) for n in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


def egd_targets() -> dict:
    """Span names and note functions for the public functions of each layer.

    The CLI layer is traced at ``main`` and at each command handler in its
    dispatch table, as ``cli.<command>``.
    """
    import egd.cli
    import egd.scatter

    default_rule = egd.scatter.FixedPointConfig().alpha_rule

    def iterations(args, kwargs, result):
        return {"iterations": result.iterations}

    def nonconcave(args, kwargs, result):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        rule = config.alpha_rule if config is not None else default_rule
        return {"iterations": result.iterations, "rule": rule}

    def mixture_fit(args, kwargs, result):
        return {"sweeps": len(result.loglik_trace) - 1,
                "rounds": result.rounds}

    def components(args, kwargs, result):
        model = args[2] if len(args) > 2 else kwargs["model"]
        return {"components": model.n_components}

    def matrix_file(args, kwargs, result):
        import egd.io
        path = args[0] if args else kwargs["path"]
        with open(path, "rb") as fh:
            head = fh.read(len(egd.io.MATRIX_MAGIC))
            size = fh.seek(0, 2)
        fmt = "binary" if head == egd.io.MATRIX_MAGIC else "csv"
        return {"bytes": size, "format": fmt}

    notes = {
        "scatter.fit_nonconcave": nonconcave,
        "scatter.fit_concave": iterations,
        "gammafit.fit_gamma_weighted": iterations,
        "mixture.fit_mixture": mixture_fit,
        "mixture.m_step_scatter": components,
        "mixture.m_step_shape": components,
        "io.read_matrix": matrix_file,
    }
    targets = {}
    for layer in LAYERS[:-1]:
        module = sys.modules[f"egd.{layer}"]
        for func in public_functions(module):
            name = f"{layer}.{func.__name__}"
            targets[func] = (name, notes.get(name))
    targets[egd.cli.main] = ("cli.main", None)
    for command, handler in egd.cli._DISPATCH.items():
        targets[handler] = (f"cli.{command}", None)
    return targets
