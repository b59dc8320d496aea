"""Host-time spans around the public entry points of each layer.

The traced run wraps the functions named in :data:`LAYER_ENTRY_POINTS`
from the outside (``setattr`` on the module or class that callers look
the name up on), records one span per call with a parent link, and
restores the originals afterwards, so untraced runs execute the
program untouched.  A span's *self time* is its duration minus the
durations of its child spans; the benchmark's own code between layer
calls is the root span's self time, reported as ``unattributed_s``.
Because every span's duration is split exactly between its self time
and its children, the layer self times plus ``unattributed_s`` add up
to the traced wall time; :meth:`SpanRecorder.repetition` records how
far apart they are, and the run fails when the gap exceeds
:data:`SUM_TOLERANCE_S`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer self times plus ``unattributed_s`` must equal the traced wall
#: time to within this many seconds per traced repetition.
SUM_TOLERANCE_S = 1e-6

_KERNELS = (
    "run_copy",
    "run_load_send",
    "run_receive_store",
    "run_deposit",
    "run_load_stream",
    "run_store_stream",
)

#: (module, class or None, attribute, layer) for every wrapped entry
#: point.  A module-level function is patched in the namespace its
#: callers resolve it from; a method is patched on the class that
#: defines it.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.memsim.node", None, "make_stream", "memsim.stream"),
    *(
        ("repro.memsim.node", "NodeMemorySystem",
         kernel[len("run_"):] + "_result", "memsim.node")
        for kernel in _KERNELS
    ),
    *(
        ("repro.memsim.fastpath", "FastEngine", kernel, "memsim.kernel.fast")
        for kernel in _KERNELS
    ),
    *(
        ("repro.memsim.engine", "MemoryEngine", kernel,
         "memsim.kernel.scalar")
        for kernel in _KERNELS
    ),
    ("repro.machines.measure", None, "measure_table",
     "calibration.measure_table"),
    ("repro.machines.measure", None, "measure_entry",
     "calibration.measure_entry"),
    ("repro.core.model", "CopyTransferModel", "estimate", "model.estimate"),
    *(
        ("repro.core.batch", None, name, "model.batch")
        for name in (
            "evaluate_many", "estimate_many", "advise_many",
            "solve_pipeline_group",
        )
    ),
    ("repro.runtime.engine", "CommRuntime", "transfer", "runtime.transfer"),
    ("repro.runtime.stages", "StagePipeline", "run", "runtime.pipeline"),
    ("repro.netsim.schedule", None, "scheduled_congestion",
     "netsim.congestion"),
    ("repro.netsim.topology", "Topology", "max_link_congestion",
     "netsim.congestion"),
    ("repro.netsim.topology", "Topology", "route", "netsim.route"),
    ("repro.runtime.collective", "CommunicationStep", "run",
     "collective.step"),
    ("repro.runtime.collectives", None, "run_collective", "collective.run"),
    ("repro.compiler.advisor", None, "choose_algorithm", "collective.choose"),
    ("repro.sweep", None, "run_sweep", "sweep.run"),
    ("repro.load.engine", "LoadEngine", "run", "load.run"),
)

#: Every layer, in entry-point order.  ``memsim.stream.indexed`` holds
#: the indexed-pattern calls of ``memsim.stream`` and is folded into it
#: when reported.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for *__, layer in LAYER_ENTRY_POINTS)
) + ("memsim.stream.indexed",)


class SpanRecorder:
    """In-memory span store with per-layer self-time accumulation.

    Spans are kept as parallel arrays (layer id, parent span, start,
    end, repetition) so that hundreds of thousands of short calls stay
    cheap to hold; :meth:`write` dumps them at the end of the run.
    """

    def __init__(self) -> None:
        self.layer_ids: Dict[str, int] = {"rep": 0}
        for name in LAYERS:
            self.layer_ids[name] = len(self.layer_ids)
        self.names: List[str] = list(self.layer_ids)
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_rep = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        count = len(self.names)
        self.self_s = [0.0] * count
        self.calls = [0] * count
        self.failures = [0] * count
        self.kernel_words = 0
        self.nodes: Dict[int, Tuple[Any, int]] = {}
        self.rep = -1
        self.wall_s = 0.0
        self.worst_sum_error_s = 0.0
        # Open spans: [span index, layer id, start, child seconds].
        self._stack: List[List[Any]] = []

    def enter(self, layer: int) -> List[Any]:
        index = len(self.span_layer)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_layer.append(layer)
        self.span_parent.append(parent)
        self.span_rep.append(self.rep)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def exit(self, frame: List[Any], failed: bool = False) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        index, layer, start, child_s = frame
        duration = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if failed:
            self.failures[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    @contextmanager
    def repetition(self) -> Iterator[None]:
        """Trace one repetition under a root span and check the sum."""
        self.rep += 1
        before = sum(self.self_s[1:])
        root = self.enter(0)
        try:
            yield
        finally:
            wall = self.exit(root)
            self.wall_s += wall
            layers = sum(self.self_s[1:]) - before
            unattributed = wall - root[3]
            error = abs(layers + unattributed - wall)
            self.worst_sum_error_s = max(self.worst_sum_error_s, error)

    def wrap(self, layer_name: str, function: Callable) -> Callable:
        """``function`` with a span of ``layer_name`` around each call."""
        from repro.core.patterns import PatternKind

        layer = self.layer_ids[layer_name]
        # make_stream's first argument is the pattern; indexed streams
        # get their own span layer so their share can be reported.
        indexed = (
            self.layer_ids["memsim.stream.indexed"]
            if layer_name == "memsim.stream" else None
        )
        is_kernel = layer_name.startswith("memsim.kernel.")
        is_node = layer_name == "memsim.node"
        enter, exit_ = self.enter, self.exit

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if is_node:
                self._see_node(args[0])
            if indexed is not None and args[0].kind is PatternKind.INDEXED:
                frame = enter(indexed)
            else:
                frame = enter(layer)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                exit_(frame, failed=True)
                raise
            exit_(frame)
            if is_kernel:
                self.kernel_words += result.nwords
            return result

        return traced

    def _see_node(self, node: Any) -> None:
        """Remember a node harness and its fallback count at first sight."""
        if id(node) not in self.nodes:
            self.nodes[id(node)] = (node, node.fastpath_fallbacks)

    def fastpath_fallbacks(self) -> int:
        """Fallbacks the program counted on the harnesses seen so far."""
        return sum(
            node.fastpath_fallbacks - first for node, first in self.nodes.values()
        )

    def write(self, path: str) -> None:
        """Dump every span (columns plus the layer-name table) as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "layers": self.names,
                    "layer": self.span_layer.tolist(),
                    "parent": self.span_parent.tolist(),
                    "rep": self.span_rep.tolist(),
                    "start_s": self.span_start.tolist(),
                    "end_s": self.span_end.tolist(),
                },
                handle,
                separators=(",", ":"),
            )


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every entry point with ``recorder``'s wrappers, then restore."""
    originals: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, class_name, attribute, layer in LAYER_ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(layer, original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
