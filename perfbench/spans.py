"""In-memory span tracer wrapped around the program's layers from outside.

`Tracer.install` replaces each function in TRACED, in its own module and
in every module of the package that imported it by name, with a wrapper
that records a span (name, start, end, parent, operation) when the tracer
is active.  Spans go into flat typed arrays, about 30 bytes each, so a
traced run of hundreds of thousands of calls stays small; they are written
out as one .npz file when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute, span name): the public functions of each layer that
#: the workloads reach, plus the CLI subcommands they enter through.
TRACED = (
    ("cli", "dispatch", "cli.dispatch"),
    ("cli", "_cmd_simulate", "cli.simulate"),
    ("cli", "_cmd_plan", "cli.plan"),
    ("cli", "_cmd_keyrate", "cli.keyrate"),
    ("simulation", "run_session", "simulation.run_session"),
    ("simulation", "session_result_to_dict", "simulation.session_result_to_dict"),
    ("simulation", "format_session_result", "simulation.format_session_result"),
    ("network", "PartyGraph.from_json", "network.PartyGraph.from_json"),
    ("network", "plan_network", "network.plan_network"),
    ("network", "minimum_network", "network.minimum_network"),
    ("network", "segment_tree", "network.segment_tree"),
    ("network", "plan_rates", "network.plan_rates"),
    ("network", "reconcile_network", "network.reconcile_network"),
    ("network", "derive_global_key", "network.derive_global_key"),
    ("keyrate", "asymptotic_rate", "keyrate.asymptotic_rate"),
    ("keyrate", "symmetric_rate", "keyrate.symmetric_rate"),
    ("keyrate", "optimize_intensity", "keyrate.optimize_intensity"),
)


def _count_session(counts, args, result):
    config = args[0]
    counts["pulses"] += config.n_pulses
    counts["conclusive"] += sum(result.conclusive_counts.values())
    counts["sifted_bits"] += len(result.sifted_ab[0]) + len(result.sifted_bc[1])


def _count_graph(counts, args, result):
    counts["parties"] += len(result.parties)
    counts["candidate_edges"] += len(result.edges)


def _count_segments(counts, args, result):
    counts["segments"] += len(result)


#: Counts taken from the arguments and results at a span's boundary.
COUNTERS = {
    "simulation.run_session": _count_session,
    "network.PartyGraph.from_json": _count_graph,
    "network.segment_tree": _count_segments,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.kind = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.counts = {"pulses": 0, "conclusive": 0, "sifted_bits": 0,
                       "parties": 0, "candidate_edges": 0, "segments": 0}

    def _enter(self, kind):
        idx = len(self.start)
        self.kind.append(kind)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _kind(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name):
        kind = self._kind(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._enter(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self, package):
        """Wrap every TRACED function wherever the package's modules bind it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for module_name, attr, name in TRACED:
            owner = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(original, name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def run_op(self, kind_name, fn):
        """Run one operation under a root span named kind_name."""
        self.op_id += 1
        self.active = True
        idx = self._enter(self._kind(kind_name))
        try:
            return fn()
        finally:
            self._exit(idx)
            self.active = False

    def arrays(self):
        return {
            "kind": np.frombuffer(self.kind, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self):
        """{span name: (calls, total seconds, self seconds)}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["kind"], minlength=k)
        total = np.bincount(a["kind"], weights=dur, minlength=k)
        own = np.bincount(a["kind"], weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
