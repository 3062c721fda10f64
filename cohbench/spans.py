"""Span tracing for the traced run.

`install(package)` wraps every public function of the package's modules (and
the constructors of the objects classes) in a span and rebinds each wrapper
wherever the original is bound, including names copied in by `from .x import`
and the package's own re-exports.  A span's self time is its duration minus
the time of the spans it encloses; self time is summed per layer (module).

Counts are taken at the same boundaries.  FLOPs of the linalg kernels are
computed from their argument shapes, not measured:
  eig_hermitian (complex Hermitian eigh with vectors)  4 * 9 d^3
  singular_values (complex, values only, m >= n)       4 * (4 m n^2 - 4/3 n^3)
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "objects", "measures", "bounds", "lsm", "uncertainty", "haar", "fileio", "cli")
OBJECT_CLASSES = ("DensityMatrix", "PureState", "Povm", "Ensemble")


def _eig_flops(args):
    d = args[0].shape[0]
    return 36.0 * d**3


def _svd_flops(args):
    m, n = args[0].shape
    m, n = max(m, n), min(m, n)
    return 4.0 * (4.0 * m * n * n - 4.0 / 3.0 * n**3)


class Tracer:
    """Per-op span totals and counts; `take()` returns them and starts afresh."""

    def __init__(self):
        self.stack = []
        self._reset()

    def _reset(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self._pairs = set()
        self._held = []

    def take(self) -> dict:
        snapshot = {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s), "counts": dict(self.counts)}
        self._reset()
        return snapshot

    def parent_layer(self):
        return self.stack[-1][0] if self.stack else None

    def on_call(self, qualname: str, args, kwargs):
        """Counts taken as a call enters, before its span opens."""
        c = self.counts
        if qualname == "linalg.eig_hermitian":
            c["eig_calls"] += 1
            c["flops"] += _eig_flops(args)
        elif qualname == "linalg.singular_values":
            c["svd_calls"] += 1
            c["flops"] += _svd_flops(args)
        elif qualname.startswith("objects.validate_"):
            c["validations"] += 1
        elif qualname == "objects.projective_povm" and self.parent_layer() == "bounds":
            c["povm_rebuilds"] += 1
        elif qualname == "measures.l1_coherence":
            # A pair is told apart by its state object: every workload measures each
            # state against one POVM, which bound_b1..b3 rebuild as new objects.
            c["l1_calls"] += 1
            self._held.append(args[0])  # keeps ids unique for the op's lifetime
            self._pairs.add(id(args[0]))
            c["l1_pairs"] = len(self._pairs)
        elif qualname == "haar.divided_difference":
            c["dd_calls"] += 1
            c["dd_nodes"] += len(args[0])
        elif qualname == "haar.monte_carlo_average":
            c["mc_samples"] += int(args[2] if len(args) > 2 else kwargs["samples"])

    def wrap(self, layer: str, qualname: str, fn):
        tracer = self

        def span(*args, **kwargs):
            tracer.on_call(qualname, args, kwargs)
            frame = [layer, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.self_s[layer] += dt - frame[1]
                tracer.incl_s[qualname] += dt
                if tracer.stack:
                    tracer.stack[-1][1] += dt

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", qualname)
        return span


def install(package) -> Tracer:
    """Wrap the package's public functions in spans of a new Tracer."""
    tracer = Tracer()
    modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            replaced[id(obj)] = tracer.wrap(layer, f"{layer}.{name}", obj)
    for module in [package, *modules.values()]:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(module, name, replaced[id(obj)])
    objects = modules["objects"]
    for cls_name in OBJECT_CLASSES:
        cls = getattr(objects, cls_name)
        cls.__init__ = tracer.wrap("objects", f"objects.{cls_name}", cls.__init__)
    return tracer
