"""Per-layer instruments of the traced run: boundary counters and cProfile
self time charged to the simulator's packages.

Both work from outside the program.  :class:`BoundaryCounters` wraps
public functions and methods for the length of one ``with`` block and
restores them afterwards; :func:`layer_self_seconds` reads a finished
``cProfile.Profile``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from pathlib import Path

#: The simulator's packages, one per layer (``repro.<layer>``).
LAYERS = (
    "sim",
    "cluster",
    "geo",
    "detection",
    "core",
    "transactions",
    "storage",
    "network",
    "traffic",
    "workloads",
    "video",
    "experiments",
    "analysis",
)

#: metric -> (module, ``Class.method`` or function name) boundaries.  A
#: call counts once for its metric when no other call of the same metric
#: is active on the stack, so ``spawn`` -> ``schedule`` or an override
#: that calls ``super()`` is one event, and ``round_trip`` is one message.
#: Subclasses that override a counted method are wrapped under the base
#: class's label.  A call's result is a "yes" (see ``BoundaryCounters.trues``)
#: when it is ``True``, or as :data:`DECISIONS` says for its label.
BOUNDARIES: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.events": (
        ("repro.sim.engine", "Engine.schedule"),
        ("repro.sim.engine", "Engine.spawn"),
    ),
    "sim.server_admits": (
        ("repro.sim.engine", "Server.admit"),
        ("repro.sim.engine", "Server.acquire"),
        ("repro.sim.engine", "Server.reserve"),
    ),
    "cluster.placements": (("repro.cluster.router", "StreamRouter.place"),),
    "detection.detect_calls": (("repro.detection.models", "SimulatedDetector.detect"),),
    "detection.matches": (("repro.detection.matching", "match_labels"),),
    # The cluster pipeline decides with should_validate, the single-edge
    # pipeline by partitioning the labels.
    "core.validate": (
        ("repro.core.thresholds", "ThresholdPolicy.should_validate"),
        ("repro.core.thresholds", "ThresholdPolicy.classify_labels"),
    ),
    "core.tuner_evaluates": (
        ("repro.core.incremental", "IncrementalThresholdScorer.evaluate"),
    ),
    "transactions.sections": (
        ("repro.transactions.ms_sr", "TwoStage2PL.process_initial"),
        ("repro.transactions.ms_sr", "TwoStage2PL.process_final"),
        ("repro.transactions.ms_ia", "MSIAController.process_initial"),
        ("repro.transactions.ms_ia", "MSIAController.process_final"),
        ("repro.transactions.distributed", "DistributedMSIAController.process_initial"),
        ("repro.transactions.distributed", "DistributedMSIAController.process_final"),
    ),
    "storage.lock_attempts": (("repro.storage.locks", "LockManager.try_acquire"),),
    "storage.wal_appends": (("repro.storage.wal", "WriteAheadLog.append"),),
    "network.messages": (
        ("repro.network.channel", "Channel.send"),
        ("repro.network.channel", "Channel.round_trip"),
    ),
    "workloads.txns_built": (
        ("repro.workloads.hotspot", "HotspotWorkload.build_transaction"),
        ("repro.workloads.ycsb", "YCSBWorkload.build_transaction"),
    ),
}

#: Labels whose result is not a bool: how to read a "yes" from it.
DECISIONS = {
    # The frame goes to the cloud when any label falls in the validate interval.
    "ThresholdPolicy.classify_labels": lambda partition: any(
        interval.name == "VALIDATE" and labels for interval, labels in partition.items()
    ),
}


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class BoundaryCounters:
    """Counts calls (and "yes" results) at every boundary in :data:`BOUNDARIES`.

    Inside the ``with`` block every class that defines a counted method
    in its own ``__dict__`` (the named class and its subclasses) has it
    wrapped, and a counted module-level function is replaced in its
    defining module *and* in every ``repro`` module that bound it with
    ``from ... import``.  Leaving the block restores the originals.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.trues: dict[str, int] = defaultdict(int)
        #: Outermost calls per ``Class.method`` label (the "did it fire" check).
        self.fired: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label: str, metric: str):
        depth = self._depth
        decides = DECISIONS.get(label, lambda result: result is True)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            outer_label = depth[label] == 0
            outer_metric = depth[metric] == 0
            depth[label] += 1
            depth[metric] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[label] -= 1
                depth[metric] -= 1
            if outer_label:
                self.fired[label] += 1
            if outer_metric:
                self.calls[metric] += 1
                if decides(result):
                    self.trues[metric] += 1
            return result

        return counted

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "BoundaryCounters":
        for metric, boundaries in BOUNDARIES.items():
            for module_name, label in boundaries:
                module = importlib.import_module(module_name)
                if "." in label:
                    class_name, method = label.split(".")
                    base = getattr(module, class_name)
                    for cls in _subclasses(base):
                        if method in cls.__dict__:
                            self._patch(cls, method, self._wrap(cls.__dict__[method], label, metric))
                    continue
                original = getattr(module, label)
                wrapper = self._wrap(original, label, metric)
                for name, loaded in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) and getattr(
                        loaded, label, None
                    ) is original:
                        self._patch(loaded, label, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def labels(self) -> set[str]:
        return {label for boundaries in BOUNDARIES.values() for _, label in boundaries}


def layer_self_seconds(stats: dict, repro_dir: Path) -> dict[str, float]:
    """Self time of each ``repro`` package from ``pstats.Stats(...).stats``.

    Time spent in the standard library or builtins is charged to the
    ``repro.<layer>`` code that called it, split by the callee's self
    time under each caller and followed up through non-``repro`` callers.
    Top-level ``repro`` modules count as ``"repro"``; time reached from
    no ``repro`` caller (the benchmark's own loop) counts as ``"other"``.
    """
    prefix = str(repro_dir) + os.sep
    owners_memo: dict[tuple, dict[str, float]] = {}

    def own_layer(func: tuple) -> str | None:
        filename = func[0]
        if not filename.startswith(prefix):
            return None
        parts = Path(filename[len(prefix):]).parts
        return parts[0] if len(parts) > 1 else "repro"

    def owners(func: tuple, visiting: frozenset) -> dict[str, float]:
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[2] for caller, edge in callers.items() if caller not in visiting}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: float(edge[1]) for caller, edge in callers.items() if caller not in visiting}
            total = sum(weights.values())
        share: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            if weight <= 0.0:
                continue
            for owner, fraction in owners(caller, visiting | {func}).items():
                share[owner] += fraction * weight / total
        result = dict(share) if share else {"other": 1.0}
        owners_memo[func] = result
        return result

    seconds: dict[str, float] = defaultdict(float)
    for func, entry in stats.items():
        self_time = entry[2]
        if self_time <= 0.0:
            continue
        for owner, fraction in owners(func, frozenset()).items():
            seconds[owner] += self_time * fraction
    return dict(seconds)
