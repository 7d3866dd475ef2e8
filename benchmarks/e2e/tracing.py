"""Benchmark-owned spans around the program's public entry points.

Nothing here edits the program: the wrappers replace public functions,
methods and per-instance ``forward`` attributes from the outside, only
in traced runs (``--trace 1``).  Spans stay in memory as tuples
``(name, start, end, id, parent, attr)`` and are written out when the
traced process ends (the server on SIGTERM, the flow when it returns);
forked pool workers flush theirs after each ``simulate_clip`` so the
traced flow keeps the untraced worker count.

A span's self time is its duration minus the durations of the spans it
directly contains, which on one thread never overlap.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from spec import CORE_GROUPS

#: ``Recorder.wrap`` attr sentinel: tag the span with its op count
OPS = object()


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.owner_pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attr=None):
        """``fn`` with a span named ``name``.

        ``attr(args)`` tags the span; ``attr=OPS`` tags it with the
        ``Tensor.from_op`` calls made while it was open (only one thread
        of the traced server creates tensors).
        """
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            ops = recorder.ops
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if attr is OPS:
                    tag = recorder.ops - ops
                else:
                    tag = attr(args) if attr is not None else None
                recorder.spans.append((name, start, end, span_id, parent, tag))

        return wrapper

    def count_ops(self, fn):
        recorder = self

        def counting(*args, **kwargs):
            recorder.ops += 1
            return fn(*args, **kwargs)

        return counting

    def reset_in_child(self) -> None:
        self.spans = []
        self._local = threading.local()

    def flush(self, directory: Path) -> None:
        """Append this process's spans to ``directory/spans-<pid>.jsonl``."""
        spans, self.spans = self.spans, []
        with open(directory / f"spans-{os.getpid()}.jsonl", "a") as handle:
            for item in spans:
                handle.write(json.dumps([os.getpid(), *item]) + "\n")


def load_spans(directory: Path) -> list[tuple]:
    """Every span flushed under ``directory``, ids qualified by pid."""
    spans = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            pid, name, start, end, span_id, parent, attr = json.loads(line)
            spans.append((name, start, end, (pid, span_id),
                          (pid, parent) if parent else None, attr))
    return spans


def self_times(spans: list[tuple]) -> dict[str, list[float]]:
    """``name -> [self seconds per span]`` (duration minus direct children)."""
    covered: dict = defaultdict(float)
    for _, start, end, _, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, list[float]] = defaultdict(list)
    for name, start, end, span_id, _, _ in spans:
        out[name].append(end - start - covered.get(span_id, 0.0))
    return out


def durations(spans: list[tuple], name: str) -> list[float]:
    return [end - start for n, start, end, *_ in spans if n == name]


def within(spans: list[tuple], start: float, end: float) -> list[tuple]:
    return [s for s in spans if start <= s[1] and s[2] <= end]


# -- model ------------------------------------------------------------------

def named_modules(module, prefix: str = ""):
    """``(dotted path, module)`` over a :class:`repro.nn.Module` tree."""
    yield prefix, module
    for name, child in module._modules.items():
        yield from named_modules(child, f"{prefix}.{name}" if prefix else name)


def model_group(path: str) -> str | None:
    """The ``core.*``/``ssm.*`` group a SDM-PEB submodule path is charged to."""
    parts = path.split(".")
    if path == "":
        return "core.glue"
    if path in ("stem", "fusion", "decoder"):
        return f"core.{path}"
    if path == "skip_proj":
        return "core.skip"
    if path in ("refine_in", "refine_out"):
        return "core.refine"
    if parts[0] == "embeddings" and len(parts) == 2:
        return f"core.embed{parts[1][len('item'):]}"
    if parts[0] == "encoders" and len(parts) >= 2:
        stage = parts[1][len("item"):]
        if len(parts) == 2:
            return "core.glue"
        if len(parts) == 3 and parts[2] in ("attn_norm", "attn"):
            return f"core.encoder{stage}.attn"
        if len(parts) == 3 and parts[2] in ("ffn_norm", "ffn"):
            return f"core.encoder{stage}.ffn"
        if len(parts) == 3 and parts[2] == "sdm":
            return f"core.encoder{stage}.sdm"
        if len(parts) == 5 and parts[2:4] == ["sdm", "ssms"]:
            return "ssm.selective"
    return None


MODEL_ROOT = "core.forward"


def instrument_model(recorder: Recorder, model) -> None:
    """Wrap each grouped submodule's ``forward`` on this instance only."""
    for path, module in list(named_modules(model)):
        group = model_group(path)
        if path == "":
            module.forward = recorder.wrap(MODEL_ROOT, module.forward, attr=OPS)
        elif group is not None:
            module.forward = recorder.wrap(group, module.forward)


def model_layers(spans: list[tuple]) -> dict[str, float]:
    """Per-forward self milliseconds of each model group, plus op count."""
    forwards = [s for s in spans if s[0] == MODEL_ROOT]
    count = max(len(forwards), 1)
    selfs = self_times(spans)
    out = {}
    for group in CORE_GROUPS:
        total = sum(selfs.get(f"core.{group}", []))
        if group == "glue":
            total += sum(selfs.get(MODEL_ROOT, []))
        out[f"core.{group}_ms"] = 1e3 * total / count
    out["ssm.selective_ms"] = 1e3 * sum(selfs.get("ssm.selective", [])) / count
    out["tensor.ops_per_forward"] = sum(s[5] for s in forwards) / count if forwards else 0.0
    return out


# -- server -----------------------------------------------------------------

def install_server(recorder: Recorder) -> None:
    """Wrap the serving path's public entry points (traced server only)."""
    from repro.jobs import JobStore
    from repro.obs import HealthMonitor
    from repro.serve import MicroBatcher, ServedModel
    from repro.tensor import Tensor

    init_served = ServedModel.__init__

    def served_init(self, *args, **kwargs):
        init_served(self, *args, **kwargs)
        instrument_model(recorder, self.model)

    ServedModel.__init__ = served_init
    ServedModel.validate_input = recorder.wrap("serve.server.validate",
                                               ServedModel.validate_input)
    MicroBatcher.submit = recorder.wrap("serve.batcher.submit", MicroBatcher.submit)
    init_batcher = MicroBatcher.__init__

    def batcher_init(self, predict_fn, *args, **kwargs):
        init_batcher(self, recorder.wrap("serve.predict_fn", predict_fn,
                                         attr=lambda a: len(a[0])), *args, **kwargs)

    MicroBatcher.__init__ = batcher_init
    HealthMonitor.observe_batch = recorder.wrap(
        "obs.health.observe", HealthMonitor.observe_batch, attr=lambda a: len(a[1]))
    JobStore.save_checkpoint = recorder.wrap("jobs.store.checkpoint",
                                             JobStore.save_checkpoint)
    Tensor.from_op = staticmethod(recorder.count_ops(Tensor.from_op))


# -- offline flow -------------------------------------------------------------

def install_flow(recorder: Recorder, directory: Path) -> None:
    """Wrap the rigorous flow; forked pool workers flush per clip."""
    import repro.data.dataset as dataset
    import repro.litho as litho
    import repro.litho.peb as peb

    for name, span in (("generate_clip", "litho.mask.clip"),
                       ("aerial_image_stack", "litho.optics.aerial"),
                       ("initial_photoacid", "litho.exposure.dill")):
        setattr(dataset, name, recorder.wrap(span, getattr(dataset, name)))
    peb.RigorousPEBSolver.solve = recorder.wrap("litho.peb.solve",
                                                peb.RigorousPEBSolver.solve)
    litho.LateralDiffusionPropagator.apply = recorder.wrap(
        "litho.peb.lateral", litho.LateralDiffusionPropagator.apply)
    peb.catalysis_step = recorder.wrap("litho.peb.react", peb.catalysis_step)
    peb.neutralization_step = recorder.wrap("litho.peb.react", peb.neutralization_step)
    litho.development_arrival = recorder.wrap("litho.profile.arrival",
                                              litho.development_arrival)
    litho.contact_cds = recorder.wrap("litho.profile.cd", litho.contact_cds)
    simulate = dataset.simulate_clip

    def simulate_and_flush(*args, **kwargs):
        result = simulate(*args, **kwargs)
        if os.getpid() != recorder.owner_pid:
            recorder.flush(directory)
        return result

    dataset.simulate_clip = simulate_and_flush
    os.register_at_fork(after_in_child=recorder.reset_in_child)
