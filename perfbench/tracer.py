"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (class
methods, and module-level names where a module imported a function by
name) and records one span per call: layer, start, end, parent span and
the operation it belongs to.  Spans stay in memory and are written out
once, after the run.  A layer's self time is its span's duration minus
the spans nested directly in it; each operation also has two root spans,
``harness.op`` (the statement call) and ``harness.think`` (the simulated
think time, where background replication runs), so the self times of all
layers add up to the loop's measured time.

Install the patches *before* building the system under test: plans bind
``remote_executor`` when they are built, and the fleet's network shim
captures each agent's bound ``propagate`` when the region is created.
"""

import json
import time


def _rows(result):
    rows = getattr(result, "rows", result)
    return len(rows) if isinstance(rows, list) else 0


def _count(result):
    return result if isinstance(result, int) else 0


def layer_table():
    """``(owner, attribute, layer, counter, count_fn)`` for every wrapped
    entry point.  ``counter`` names a work count fed by ``count_fn`` on
    each call's return value (None: calls only)."""
    import repro.cache.backend as cache_backend
    import repro.cache.mtcache as mtcache
    import repro.fleet.fleet as fleet
    import repro.shard.backend as shard_backend
    from repro.engine.executor import Executor
    from repro.fleet.node import FleetNode
    from repro.optimizer.optimizer import Optimizer
    from repro.replication.agent import DistributionAgent

    return [
        (fleet.FleetRouter, "scatter_split", "fleet.router.scatter_split",
         None, None),
        (fleet, "parse", "sql.parser.parse", None, None),
        (mtcache, "parse", "sql.parser.parse", None, None),
        (cache_backend, "parse", "sql.parser.parse", None, None),
        (shard_backend, "parse", "sql.parser.parse", None, None),
        (mtcache.MTCache, "optimize", "cache.mtcache.optimize", None, None),
        (Optimizer, "optimize_info", "optimizer.optimize_info", None, None),
        (mtcache, "instantiate_snapshot", "plan.instantiate_snapshot",
         None, None),
        (mtcache, "serialize_plan", "plan.serialize_plan", None, None),
        (Executor, "execute", "engine.executor.execute",
         "engine.rows", _rows),
        (mtcache.MTCache, "remote_executor", "cache.mtcache.remote_executor",
         None, None),
        (FleetNode, "remote_executor", "fleet.node.remote_executor",
         None, None),
        (FleetNode, "backend_dml", "fleet.node.backend_dml", None, None),
        (cache_backend.BackendServer, "execute_remote",
         "cache.backend.execute_remote", "backend.remote_rows", _rows),
        (shard_backend.ShardedBackend, "execute_remote",
         "shard.backend.execute_remote", "backend.remote_rows", _rows),
        (cache_backend.BackendServer, "execute_dml",
         "cache.backend.execute_dml", None, None),
        (DistributionAgent, "propagate", "replication.agent.propagate",
         "replication.records", _count),
    ]


#: Every span layer, in report order (the two roots last).
LAYERS = [
    "fleet.router.scatter_split",
    "sql.parser.parse",
    "cache.mtcache.optimize",
    "optimizer.optimize_info",
    "plan.instantiate_snapshot",
    "plan.serialize_plan",
    "engine.executor.execute",
    "cache.mtcache.remote_executor",
    "fleet.node.remote_executor",
    "fleet.node.backend_dml",
    "cache.backend.execute_remote",
    "shard.backend.execute_remote",
    "cache.backend.execute_dml",
    "replication.agent.propagate",
    "harness.op",
    "harness.think",
]


class Tracer:
    """In-memory span recorder with install/uninstall of the layer
    patches.  Spans are recorded only between :meth:`begin_op` calls of
    a traced phase (``recording``), so set-up work is not counted."""

    def __init__(self):
        self.recording = False
        #: [op, layer, start, end, parent span index or -1]
        self.spans = []
        #: [op, start, mid, think_start, end, op_factor, think_factor]
        self.ops = []
        #: counter name -> summed work count, and -> calls that fed it
        self.counts = {}
        self.calls_by_counter = {}
        self._stack = []
        self._op = -1
        self._saved = []

    # -- patching -------------------------------------------------------
    def install(self):
        for owner, attr, layer, counter, count_fn in layer_table():
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, had_own, vars(owner).get(attr)))
            setattr(owner, attr, self._wrap(original, layer, counter, count_fn))
        return self

    def uninstall(self):
        for owner, attr, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def _wrap(self, fn, layer, counter, count_fn):
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [tracer._op, layer, perf(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf()
            if counter is not None:
                tracer.counts[counter] = (
                    tracer.counts.get(counter, 0) + count_fn(result)
                )
                tracer.calls_by_counter[counter] = (
                    tracer.calls_by_counter.get(counter, 0) + 1
                )
            return result

        traced.__wrapped__ = fn
        return traced

    # -- the harness's hooks ----------------------------------------------
    def begin_op(self, index):
        self._op = index
        self.recording = True

    def end_op(self, start, mid, think_start, end, op_factor, think_factor):
        self.ops.append([self._op, start, mid, think_start, end, op_factor,
                         think_factor])

    def stop(self):
        self.recording = False

    # -- aggregation ------------------------------------------------------
    def self_times(self):
        """Per-span normalised self time in µs (duration minus direct
        children, scaled by the statement's or the think time's factor),
        plus the two per-operation roots' normalised self times."""
        ops = {op[0]: op for op in self.ops}
        child = [0.0] * len(self.spans)
        op_child = {}
        think_child = {}
        in_think = []
        for span in self.spans:
            dur = span[3] - span[2]
            op = ops.get(span[0])
            think = op is not None and span[2] >= op[2]
            in_think.append(think)
            if span[4] >= 0:
                child[span[4]] += dur
            elif op is not None:
                target = think_child if think else op_child
                target[span[0]] = target.get(span[0], 0.0) + dur
        own = []
        for i, span in enumerate(self.spans):
            op = ops.get(span[0])
            if op is None:
                own.append(None)
                continue
            factor = op[6] if in_think[i] else op[5]
            own.append((span[3] - span[2] - child[i]) * factor * 1e6)
        roots = []
        for op, start, mid, think_start, end, op_f, think_f in self.ops:
            roots.append((op, "harness.op",
                          (mid - start - op_child.get(op, 0.0)) * op_f * 1e6))
            roots.append((op, "harness.think",
                          (end - think_start - think_child.get(op, 0.0))
                          * think_f * 1e6))
        return own, roots

    def layer_metrics(self, n_ops):
        """``<layer>.calls_per_op`` and normalised ``<layer>.self_us_per_op``
        over the traced operations, plus ``harness.layer_share``: the part
        of the loop's time spent inside layer spans rather than in the
        two roots' own time."""
        own, roots = self.self_times()
        calls = dict.fromkeys(LAYERS, 0)
        self_us = dict.fromkeys(LAYERS, 0.0)
        for span, us in zip(self.spans, own):
            if us is not None:
                calls[span[1]] += 1
                self_us[span[1]] += us
        for _op, layer, us in roots:
            calls[layer] += 1
            self_us[layer] += us
        loop_us = sum(self_us.values())
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = calls[layer] / n_ops
            out[f"{layer}.self_us_per_op"] = self_us[layer] / n_ops
        roots_us = self_us["harness.op"] + self_us["harness.think"]
        out["harness.layer_share"] = (
            1.0 - roots_us / loop_us if loop_us else 0.0
        )
        return out

    def write(self, path):
        """Write every span as one JSON line, once, at the end."""
        own, roots = self.self_times()
        origin = self.ops[0][1] if self.ops else 0.0
        with open(path, "w") as out:
            for index, (span, us) in enumerate(zip(self.spans, own)):
                if us is None:
                    continue
                out.write(json.dumps({
                    "id": index, "op": span[0], "layer": span[1],
                    "start_us": round((span[2] - origin) * 1e6, 1),
                    "dur_us": round((span[3] - span[2]) * 1e6, 1),
                    "self_us": round(us, 1), "parent": span[4],
                }) + "\n")
            for op, layer, us in roots:
                out.write(json.dumps({
                    "op": op, "layer": layer, "self_us": round(us, 1),
                }) + "\n")
