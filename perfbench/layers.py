"""Per-layer tracing for the benchmark's traced run.

:func:`install` wraps public entry points of each layer of the program
with spans recorded by a :class:`Recorder`.  Methods are patched on their
classes; a module-level function is patched in every loaded ``repro``
module that binds it, so a ``from ... import`` cannot bypass the wrapper.
Spans are recorded only inside a request (between :meth:`Recorder.begin`
and :meth:`Recorder.end`) and kept in memory; :meth:`Recorder.write`
saves them as a Chrome trace when the run ends.

A span's self time is its duration minus the time of its child spans; a
layer's self time is the sum over its spans.  The request root's self time
is the wall time no named layer accounts for.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

#: Layers, in report order.  ``profiler`` is the program's own
#: ``pg.profile`` hook, which the traced run turns on to read the
#: simulated-time attribution.
LAYERS = (
    "core",
    "bindings",
    "solver",
    "preconditioner",
    "matrix",
    "perfmodel",
    "batch",
    "distributed",
    "resilient",
    "service",
    "profiler",
)
ROOT = "request"


class Recorder:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self.self_time = defaultdict(float)
        #: (layer, name) -> [calls, inclusive seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)

    def open(self, layer: str, name: str) -> None:
        self._stack.append([self._next_id, layer, name, perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> float:
        end = perf_counter()
        span_id, layer, name, start, children = self._stack.pop()
        duration = end - start
        self.self_time[layer] += duration - children
        entry = self.stats[(layer, name)]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        parent = -1
        if self._stack:
            self._stack[-1][4] += duration
            parent = self._stack[-1][0]
        self.spans.append(
            (span_id, parent, layer, name, start, end, self.request)
        )
        return duration

    def layer(self) -> str:
        """Layer of the innermost open span."""
        return self._stack[-1][1]

    def begin(self, request: int) -> None:
        self.request = request
        self.open(ROOT, ROOT)
        self.active = True

    def end(self) -> float:
        self.active = False
        return self.close()

    def calls(self, layer: str, *names: str) -> int:
        return sum(self._stat(layer, name)[0] for name in names)

    def inclusive(self, layer: str, *names: str) -> float:
        return sum(self._stat(layer, name)[1] for name in names)

    def exclusive(self, layer: str, *names: str) -> float:
        return sum(self._stat(layer, name)[2] for name in names)

    def _stat(self, layer: str, name: str) -> list:
        return self.stats.get((layer, name), (0, 0.0, 0.0))

    def write(self, path) -> None:
        """Save the spans as a gzipped Chrome ``trace_event`` file."""
        origin = self.spans[0][4] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for span_id, parent, layer, name, start, end, request in self.spans
        ]
        data = json.dumps({"traceEvents": events}, separators=(",", ":"))
        with open(path, "wb") as out:
            out.write(gzip.compress(data.encode(), compresslevel=1))


def _wrap(rec: Recorder, layer, name: str, fn, count=None):
    """``fn`` inside a span named ``name`` of ``layer``.

    ``layer`` is a layer name, or a function of the recorder, the call's
    arguments and ``name`` returning ``(layer, name)``.
    """

    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if isinstance(layer, str):
            rec.open(layer, name)
        else:
            rec.open(*layer(rec, args, name))
        if count is not None:
            count(rec, args)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return functools.update_wrapper(traced, fn)


@functools.cache
def _class_layer(cls) -> str | None:
    """Layer of an operator class.

    ``None`` for composites (``repro.ginkgo.lin_op``), triangular solves
    and other helpers, which belong to the layer of the span enclosing
    them: ILU's triangular solves are preconditioner work.
    """
    from repro.ginkgo.solver.base import IterativeSolver

    module = cls.__module__
    if module.startswith("repro.ginkgo.distributed"):
        if issubclass(cls, IterativeSolver):
            return "distributed-solver"
        return "distributed"
    if module.startswith("repro.ginkgo.solver.triangular"):
        return None
    if module.startswith("repro.ginkgo.solver"):
        return "solver"
    if module.startswith(
        ("repro.ginkgo.preconditioner", "repro.ginkgo.multigrid")
    ):
        return "preconditioner"
    if module.startswith("repro.ginkgo.matrix"):
        return "matrix"
    return None


def _linop_layer(rec, args, name) -> tuple:
    """Layer of an operator's apply; a distributed solver's is ``solve``.

    An operator without a layer of its own gets the enclosing span's,
    under its class name so it does not count as that layer's ``apply``.
    """
    cls = type(args[0])
    layer = _class_layer(cls)
    if layer == "distributed-solver":
        return "distributed", "solve"
    if layer is None:
        return rec.layer(), f"{cls.__name__}.{name}"
    return layer, name


def _factory_layer(rec, args, name) -> tuple:
    module = type(args[0]).__module__
    if module.startswith("repro.ginkgo.distributed"):
        return "distributed", name
    return "solver", name


def _count_kernel(rec: Recorder, args) -> None:
    cost = args[1]
    rec.counters["kernel_records"] += 1
    rec.counters["bytes"] += cost.bytes
    rec.counters["flops"] += cost.flops


def _count_systems(rec: Recorder, args) -> None:
    rec.counters["batch_systems"] += args[0].num_systems


class Patches:
    """Installed wrappers, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list = []

    def method(self, rec, cls, attr, layer, name=None, count=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                _wrap(rec, layer, name or attr, raw.__func__, count)
            )
        else:
            wrapped = _wrap(rec, layer, name or attr, raw, count)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def function(self, rec, module, attr, layer, returns=None) -> None:
        """Patch ``module.attr`` wherever a loaded ``repro`` module binds it."""
        original = getattr(module, attr)
        wrapped = _wrap(rec, layer, attr, original)
        if returns is not None:
            inner = wrapped

            def wrapped(*args, **kwargs):
                return returns(inner(*args, **kwargs))

            functools.update_wrapper(wrapped, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(rec: Recorder) -> Patches:
    """Wrap every layer's entry points with spans recorded by ``rec``."""
    import repro.bindings.dispatch as dispatch
    import repro.core.batch_api as batch_api
    import repro.core.distributed_api as distributed_api
    import repro.core.interop as interop
    import repro.core.preconditioner_api as preconditioner_api
    import repro.core.resilient as resilient
    import repro.core.solver_api as solver_api
    import repro.core.tensor as tensor
    from repro.ginkgo.batch.matrix import BatchCsr
    from repro.ginkgo.batch.preconditioner import BatchJacobi
    from repro.ginkgo.batch.solver import BatchIterativeSolver, BatchSolverFactory
    from repro.ginkgo.lin_op import LinOp
    from repro.ginkgo.log.profiler import ProfilerHook
    from repro.ginkgo.matrix.csr import Csr
    from repro.ginkgo.multigrid import Pgm
    from repro.ginkgo.preconditioner import Ic, Ilu, Isai, Jacobi
    from repro.ginkgo.solver.base import SolverFactory
    from repro.perfmodel.clock import SimClock
    from repro.service.coalesce import Coalescer
    from repro.service.service import SolverService

    patches = Patches()
    try:
        # core: the Pythonic API the benchmark and the service call.
        for module in (
            solver_api, preconditioner_api, batch_api, distributed_api,
            interop, tensor,
        ):
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    patches.function(rec, module, attr, "core")
        for cls in (
            solver_api.SolverHandle,
            batch_api.BatchSolverHandle,
            distributed_api.DistributedSolverHandle,
        ):
            patches.method(rec, cls, "apply", "core")
        patches.method(rec, tensor.Tensor, "numpy", "core")

        # bindings: symbol resolution and every crossing it hands out.
        def crossing(binding):
            return _wrap(
                rec, "bindings",
                getattr(binding, "_binding_tag", "crossing"), binding,
            )

        patches.function(rec, dispatch, "resolve", "bindings", crossing)

        # solver / preconditioner / matrix / distributed operators.
        patches.method(rec, LinOp, "apply", _linop_layer)
        patches.method(rec, LinOp, "apply_advanced", _linop_layer)
        patches.method(rec, SolverFactory, "generate", _factory_layer)
        for cls in (Jacobi, Ilu, Ic, Isai, Pgm):
            patches.method(rec, cls, "generate", "preconditioner")
        patches.method(rec, Csr, "from_scipy", "matrix", name="stage")

        # perfmodel: the simulated clock's bookkeeping.
        patches.method(rec, SimClock, "record", "perfmodel", count=_count_kernel)
        patches.method(
            rec, SimClock, "record_partitioned", "perfmodel",
            name="record", count=_count_kernel,
        )
        patches.method(rec, SimClock, "advance", "perfmodel")
        for attr in ("on_span_push", "on_span_pop", "on_clock_event",
                     "on_clock_mark"):
            patches.method(rec, ProfilerHook, attr, "profiler")

        # batch, resilient, service.
        patches.method(
            rec, BatchIterativeSolver, "apply", "batch", count=_count_systems
        )
        patches.method(rec, BatchCsr, "apply", "batch", name="spmv")
        patches.method(rec, BatchSolverFactory, "generate", "batch")
        patches.method(rec, BatchJacobi, "generate", "batch")
        for attr in ("resilient_solve", "resilient_batch_solve"):
            patches.function(rec, resilient, attr, "resilient")
        patches.method(rec, SolverService, "run", "service")
        patches.method(rec, Coalescer, "gather", "service")
    except BaseException:
        patches.restore()
        raise
    return patches
