"""Outside-in span tracer: wraps each layer's public functions from ``bench/``.

The program under test carries no spans of its own.  A traced round replaces
each function *where its caller looks it up* (a class attribute, or the
importing module's global for a function imported by name) with a wrapper
that records one span: name, layer, start, end, parent span and step id.
Spans stay in memory and are written out when the round ends.

A layer's *busy* time is the time it has a span on the stack (nested spans
of the same layer count once); its *self* time is each span's duration minus
the part covered by its direct child spans.  Self times over a span tree
therefore sum to the root span.
"""

from __future__ import annotations

import importlib
from time import perf_counter

#: layer -> [(module, owner class or None for a module global, function)].
#: Layers are this repository's modules; the functions are their public
#: entry points as called by the layer above.
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "core.framework": [
        ("repro.core.framework", "MegaScaleData", "run_step"),
        ("repro.core.framework", "MegaScaleData", "set_mixture"),
        ("repro.core.framework", "MegaScaleData", "scale_source"),
        ("repro.core.framework", "MegaScaleData", "save_checkpoint"),
        ("repro.core.framework", "MegaScaleData", "restore"),
        ("repro.core.framework", "MegaScaleData", "recover_fleet_member"),
    ],
    "core.step_pipeline": [
        ("repro.core.step_pipeline", "StepPipeline", "run_step"),
        ("repro.core.step_pipeline", "StepPipeline", "flush"),
    ],
    "core.planner": [
        ("repro.core.planner", "Planner", "generate_plan"),
        ("repro.core.planner", "Planner", "gather_buffer_columns"),
    ],
    "core.dgraph": [
        ("repro.core.dgraph", "DGraph", "mix"),
        ("repro.core.dgraph", "DGraph", "balance"),
        ("repro.core.dgraph", "DGraph", "plan"),
    ],
    "core.source_loader": [
        ("repro.core.source_loader", "SourceLoader", "prepare"),
        ("repro.core.source_loader", "SourceLoader", "prepare_async"),
        ("repro.core.source_loader", "SourceLoader", "poll"),
        ("repro.core.source_loader", "SourceLoader", "refill"),
        ("repro.core.source_loader", "SourceLoader", "buffer_delta"),
        ("repro.core.source_loader", "SourceLoader", "fetch_prepared_ref"),
        ("repro.core.source_loader", "SourceLoader", "replay_demands"),
    ],
    "transforms.pipeline": [
        ("repro.transforms.pipeline", "TransformPipeline", "run"),
    ],
    # Rows reach the loader buffer through the source cursor (which reads
    # ``storage.columnar.ColumnarFile`` rows; ``storage.reader.ColumnarReader``
    # is opened but never read on the step path, so it has no layer here).
    "data.sources": [
        ("repro.data.sources", "SourceCursor", "next_metadata"),
    ],
    "actors.gcs": [
        ("repro.actors.gcs", "GlobalControlStore", "put"),
        ("repro.actors.gcs", "GlobalControlStore", "take"),
        ("repro.actors.gcs", "GlobalControlStore", "get"),
    ],
    "core.data_constructor": [
        ("repro.core.data_constructor", "DataConstructor", "construct"),
        ("repro.core.data_constructor", "DataConstructor", "get_batch"),
        ("repro.core.data_constructor", "DataConstructor", "release_step"),
    ],
    "transforms.microbatch": [
        # Imported by name into the constructor module: wrap that global.
        ("repro.core.data_constructor", None, "collate_columns_with_positions"),
        ("repro.transforms.microbatch", None, "first_fit_bin_indices"),
    ],
    "actors.runtime": [
        ("repro.actors.runtime", "ActorSystem", "tick"),
        ("repro.actors.runtime", "ActorSystem", "submit_call"),
        ("repro.actors.runtime", "ActorSystem", "call_actor"),
        ("repro.actors.runtime", "ActorSystem", "create_actor"),
        ("repro.actors.runtime", "ActorSystem", "retire_actor"),
    ],
    "core.loader_fleet": [
        ("repro.core.loader_fleet", "LoaderFleet", "split_demands"),
        ("repro.core.loader_fleet", "LoaderFleet", "sync_after_prepare"),
        ("repro.core.loader_fleet", "LoaderFleet", "apply_scaling"),
        ("repro.core.loader_fleet", "LoaderFleet", "spawn_member"),
        ("repro.core.loader_fleet", "LoaderFleet", "retire_member"),
    ],
    "core.autoscaler": [
        ("repro.core.autoscaler", "MixtureDrivenScaler", "observe"),
        ("repro.core.autoscaler", "SourceAutoPartitioner", "partition"),
    ],
    "core.fault_tolerance": [
        ("repro.core.fault_tolerance", "FaultToleranceManager", "call_with_retry"),
        ("repro.core.fault_tolerance", "FaultToleranceManager", "checkpoint_loaders"),
        ("repro.core.fault_tolerance", "FaultToleranceManager", "recover_loader"),
        ("repro.core.fault_tolerance", "FaultToleranceManager", "promote_standby"),
        # Backoff sleeps on the virtual clock: one span per retry/wait round.
        ("repro.core.fault_tolerance", "FaultToleranceManager", "sleep"),
    ],
    "core.checkpoint": [
        # The in-memory store inherits ``save_many`` (a loop over ``save``),
        # so its batched writes show as one ``save`` span per entry.
        ("repro.core.checkpoint", "InMemoryCheckpointStore", "save"),
        ("repro.core.checkpoint", "InMemoryCheckpointStore", "load_latest"),
        ("repro.core.checkpoint", "SqliteCheckpointStore", "save"),
        ("repro.core.checkpoint", "SqliteCheckpointStore", "save_many"),
        ("repro.core.checkpoint", "SqliteCheckpointStore", "load_latest"),
    ],
    "metrics.telemetry": [
        ("repro.metrics.memory", "MemoryLedger", "charge"),
        ("repro.metrics.memory", "MemoryLedger", "release"),
        ("repro.metrics.timeline", "Timeline", "record"),
        ("repro.metrics.timeline", "OverlapLedger", "record"),
    ],
    "training.simulator": [
        ("repro.training.simulator", "TrainingSimulator", "simulate_iteration"),
        ("repro.training.simulator", "TrainerActor", "train_step"),
    ],
}

#: Step id of spans recorded outside the measured phase (set-up, warm-up).
SETUP_STEP = -1


class Tracer:
    """In-memory span recorder.

    ``spans[i]`` is ``(name_index, start_s, end_s, parent_span_index, step)``;
    ``names[name_index]`` is ``(layer, function_name)``.  ``parent`` is -1
    for a root span.
    """

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.step = SETUP_STEP
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, function, layer: str, name: str):
        """Return ``function`` wrapped to record one span per call."""
        self.names.append((layer, name))
        name_index = len(self.names) - 1
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_index, start, end, parent, self.step)

        return traced

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` where its caller finds it."""
        for layer, targets in LAYERS.items():
            for module_name, owner_name, attr in targets:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = vars(owner)[attr]
                label = f"{owner_name}.{attr}" if owner_name else attr
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(original.__func__, layer, label))
                elif isinstance(original, staticmethod):
                    wrapped = staticmethod(self.wrap(original.__func__, layer, label))
                else:
                    wrapped = self.wrap(original, layer, label)
                setattr(owner, attr, wrapped)

    def export(self) -> dict:
        """The span list in a JSON-friendly shape."""
        return {
            "fields": ["name", "start_s", "end_s", "parent", "step"],
            "names": [{"layer": layer, "name": name} for layer, name in self.names],
            "spans": [list(span) for span in self.spans],
        }


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the time covered by direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[index] for index, (_, start, end, _, _) in enumerate(spans)]


def selftest() -> None:
    """Check the self-time arithmetic on a synthetic nested-span case.

    root[0,10] -> a[1,4] -> c[2,3];  root -> b[5,9] -> d[5,6], e[7,9].
    Self times must be 3, 2, 1, 1, 1, 2 and sum to the root span (10); a
    second root must not leak into the first.  Also checks that a wrapped
    function records parent links and survives an exception.
    """
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),    # a
        (2, 2.0, 3.0, 1, 0),    # c
        (3, 5.0, 9.0, 0, 0),    # b
        (4, 5.0, 6.0, 3, 0),    # d
        (5, 7.0, 9.0, 3, 0),    # e
        (0, 20.0, 21.5, -1, 1),  # second root
    ]
    got = self_times(spans)
    want = [3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.5]
    if any(abs(a - b) > 1e-12 for a, b in zip(got, want)):
        raise AssertionError(f"self times {got} != {want}")
    if abs(sum(got[:6]) - 10.0) > 1e-12:
        raise AssertionError("self times of the first tree do not sum to its root span")

    tracer = Tracer()

    def inner(fail: bool) -> int:
        if fail:
            raise ValueError("boom")
        return 7

    traced_inner = tracer.wrap(inner, "layer.inner", "inner")

    def outer(fail: bool) -> int:
        return traced_inner(fail) + traced_inner(False)

    traced_outer = tracer.wrap(outer, "layer.outer", "outer")
    tracer.step = 3
    if traced_outer(False) != 14:
        raise AssertionError("wrapped function changed its result")
    try:
        traced_outer(True)
    except ValueError:
        pass
    else:
        raise AssertionError("wrapped function swallowed an exception")
    if any(span is None for span in tracer.spans) or tracer._stack:
        raise AssertionError("a span was left open")
    parents = [span[3] for span in tracer.spans]
    if parents != [-1, 0, 0, -1, 3]:
        raise AssertionError(f"parent links {parents} != [-1, 0, 0, -1, 3]")
    if {span[4] for span in tracer.spans} != {3}:
        raise AssertionError("step id not recorded")
    selfs = self_times(tracer.spans)
    root = tracer.spans[0]
    if abs(sum(selfs[:3]) - (root[2] - root[1])) > 1e-9:
        raise AssertionError("recorded self times do not sum to the root span")
