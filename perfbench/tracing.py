"""Span tracer that times the beurling layers from outside the package.

Every public function defined in a layer module is replaced, in each
``beurling`` namespace that refers to it, by a wrapper that opens a span on
entry and closes it on exit.  Spans nest because the program runs on one
thread, so a stack is enough: a span's self time is its duration minus the
durations of the spans opened directly inside it.  Two calls out of the
package are wrapped as well, so their time is not charged to the caller:
``kernels`` into ``scipy.fft`` (span ``kernels.fft``, with exact transform
counts) and ``density`` into ``scipy.integrate.quad`` (span ``density.quad``).

Nothing is wrapped outside ``Tracer.installed()``, so untraced iterations run
the unmodified functions.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("kernels", "measure", "density", "sieve", "systems", "asymptotics",
          "pipelines", "selfcheck", "config", "cli", "csvio")


def fft_bytes(size: int) -> int:
    """Bytes one real transform of length ``size`` reads plus writes: size
    float64 values on the real side and size//2 + 1 complex128 values on the
    spectral side.  Computed from the length, not measured."""
    return 8 * size + 16 * (size // 2 + 1)


class Tracer:
    """Collects spans and counts for the iterations run while installed.

    ``stats[name]`` is ``[calls, incl_s, self_s]``; ``counts`` holds the
    exact counters (FFT transforms, points and computed bytes, primes
    yielded by the sieve); ``spans`` keeps every span as
    ``(iteration, id, parent_id, name, start, end)`` for writing out later.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        self.spans = []
        self.iteration = 0
        self._stack = []
        self._next_id = 0

    def reset(self):
        self.stats.clear()
        self.counts.clear()

    def _enter(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name, frame, t0, calls=1):
        t1 = time.perf_counter()
        dur = t1 - t0
        self._stack.pop()
        st = self.stats[name]
        st[0] += calls
        st[1] += dur
        st[2] += dur - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((self.iteration, frame[0],
                           parent[0] if parent else None, name, t0, t1))

    def wrap(self, name, fn, on_call=None, on_item=None):
        """A wrapper that records a span named ``name`` around ``fn``.

        Generator functions get a span per resumption, so the time a
        generator spends producing items is charged to it and not to the
        consumer; ``calls`` still counts generators created.
        """
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                self.stats[name][0] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame, t0 = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._exit(name, frame, t0, calls=0)
                        return
                    except BaseException:
                        self._exit(name, frame, t0, calls=0)
                        raise
                    self._exit(name, frame, t0, calls=0)
                    if on_item is not None:
                        on_item(item)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            frame, t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0)
        return wrapper

    def _count_fft(self, direction):
        def on_call(x, n=None, *args, **kwargs):
            size = int(n) if n is not None else len(x)
            self.counts[f"kernels.fft.{direction}"] += 1
            self.counts["kernels.fft.points"] += size
            self.counts["kernels.fft.bytes"] += fft_bytes(size)
            self.counts["kernels.fft.max_points"] = max(
                self.counts["kernels.fft.max_points"], size)
        return on_call

    def _count_primes(self, seg):
        self.counts["sieve.primes"] += len(seg)

    def _targets(self):
        """(original, span name, on_call, on_item, home) for every wrapped
        callable; a target with a home is replaced only in that module."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"beurling.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    on_item = self._count_primes if (layer, attr) == ("sieve", "iter_primes") else None
                    out.append((obj, f"{layer}.{attr}", None, on_item, None))
        kernels = sys.modules["beurling.kernels"]
        density = sys.modules["beurling.density"]
        out.append((kernels.rfft, "kernels.fft", self._count_fft("fwd"), None, kernels))
        out.append((kernels.irfft, "kernels.fft", self._count_fft("inv"), None, kernels))
        out.append((density.quad, "density.quad", None, None, density))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every beurling namespace; restore on exit.

        The FFT and quadrature wrappers replace the names only inside
        ``kernels`` and ``density``, so calls from elsewhere (the benchmark's
        own checks, for instance) are not counted.
        """
        import beurling  # noqa: F401  (the package must be loaded to patch it)

        targets = {id(fn): (self.wrap(name, fn, on_call, on_item), home)
                   for fn, name, on_call, on_item, home in self._targets()}
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "beurling" or modname.startswith("beurling.")):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                wrapper, home = targets.get(id(obj), (None, None))
                if wrapper is None or (home is not None and home is not mod):
                    continue
                patched.append((ns, attr, obj))
                ns[attr] = wrapper
        try:
            yield self
        finally:
            for ns, attr, obj in patched:
                ns[attr] = obj

    def snapshot(self) -> dict:
        """Stats and counts gathered since the last ``reset``, plus per-module
        self-time totals under ``<module>.self_s``."""
        out = {}
        module_self = defaultdict(float)
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s
            module_self[name.split(".")[0]] += self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = module_self.get(layer, 0.0)
        out.update(self.counts)
        return out
