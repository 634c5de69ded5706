"""The four workloads: seeded inputs, the operations that run them, their checks.

BENCHMARK.json lists sim-longhaul and plan-mixed; sim-metro and keyrate-sweep
run the same way by hand (README.md says why).

Every operation goes through the public CLI entry point `cli.dispatch`, in
process, with stdout and stderr captured, except the `optimize_intensity`
calls of keyrate-sweep, which are a library call.  Functions are looked up
on their module at call time, so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

MU = 0.2
Y0 = 2.45e-6
DARK = 1e-6

LONGHAUL_KM = 250.0
METRO_KM = 30.0
#: One random block of the program (simulation.BLOCK_SIZE), about 0.1 s: a
#: longer session repeats the same block work, so the cost per pulse does not
#: depend on the count, and the fastest of a run's several hundred short
#: sessions is steadier than that of a few dozen long ones (see README.md).
SESSION_PULSES = 1 << 20
#: The same block: enough to size every buffer a session allocates.
WARMUP_PULSES = 1 << 20

#: The network shapes are drawn once from this seed; the run seed only moves,
#: turns and rescales them.  The exact segment search costs from 1 ms to
#: about 1 s depending on the shape, so shapes drawn per seed would make the
#: run's throughput depend mostly on which shapes the seed happened to draw.
SHAPE_SEED = 2409_04204
PLAN_SIZES = tuple(range(7, 42, 2)) + tuple(range(8, 42, 4))


@dataclass
class Op:
    """One operation: `run` is timed, `check` is not."""

    kind: str  # "cli" or "lib"
    run: Callable[[], object]
    check: Callable[[object], None]
    items: int


class ProgramError(Exception):
    """The CLI exited non-zero: the operation failed without an output to check."""


def cli_call(cli, argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise ProgramError(f"exit {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


class Workload:
    """Holds the generated inputs; `warmup` and `round` build operations."""

    item = "item"

    def __init__(self, program, seed):
        self.program = program
        self.rng = np.random.default_rng(seed)

    def warmup(self):
        raise NotImplementedError

    def round(self):
        raise NotImplementedError


# --- simulate ----------------------------------------------------------------


class Simulate(Workload):
    item = "pulse"
    distance_km = None

    def __init__(self, program, seed):
        super().__init__(program, seed)
        self.pooled = {"AB": [0, 0], "BC": [0, 0]}

    def _op(self, pulses, session_seed):
        argv = [
            "simulate", "--pulses", str(pulses), "--mu", repr(MU),
            "--distance-km", repr(self.distance_km), "--y0", repr(Y0),
            "--dark", repr(DARK), "--seed", str(session_seed),
        ]

        def check(text):
            result = json.loads(text)["result"]
            q_want, tallies = oracle.check_session(result, pulses, MU, self.distance_km, Y0, DARK)
            # A few errors per session leave a biased error rate unseen; the
            # run's pooled count has the power a single session lacks.
            for node, (errors, count) in tallies.items():
                pooled = self.pooled[node]
                pooled[0] += errors
                pooled[1] += count
                oracle.check_errors(f"{node} pooled", *pooled, q_want)

        return Op("cli", lambda: cli_call(self.program.cli, argv), check, pulses)

    def warmup(self):
        return [self._op(WARMUP_PULSES, int(self.rng.integers(2**31)))]

    def round(self):
        return [self._op(SESSION_PULSES, int(self.rng.integers(2**31)))]


class SimLonghaul(Simulate):
    distance_km = LONGHAUL_KM


class SimMetro(Simulate):
    distance_km = METRO_KM


# --- plan --------------------------------------------------------------------


def _prufer_tree(rng, n):
    seq = rng.integers(0, n, n - 2)
    degree = np.bincount(seq, minlength=n) + 1
    edges = []
    for v in seq:
        leaf = int(np.flatnonzero(degree == 1)[0])
        edges.append((leaf, int(v)))
        degree[leaf] = 0
        degree[v] -= 1
    a, b = np.flatnonzero(degree == 1)
    edges.append((int(a), int(b)))
    return edges


def network_shapes():
    """(kind, n, shape) for the fixed set: one tree and one point cloud per size."""
    rng = np.random.default_rng(SHAPE_SEED)
    shapes = []
    for n in PLAN_SIZES:
        shapes.append(("tree", n, (_prufer_tree(rng, n), rng.uniform(5.0, 40.0, n - 1))))
        shapes.append(("coord", n, rng.uniform(0.0, 1.0, (n, 2))))
    return shapes


class PlanMixed(Workload):
    item = "network"

    def __init__(self, program, seed):
        super().__init__(program, seed)
        self.ops = [self._op(kind, n, shape) for kind, n, shape in network_shapes()]

    def _op(self, kind, n, shape):
        rng = self.rng
        ids = list(range(n))
        weights = np.full((n, n), np.inf)
        if kind == "tree":
            edges, kms = shape
            kms = kms * rng.uniform(0.5, 2.0) * rng.uniform(0.9, 1.1, len(kms))
            doc = {
                "parties": [{"id": i} for i in ids],
                "edges": [{"a": a, "b": b, "km": float(km)} for (a, b), km in zip(edges, kms)],
            }
            for (a, b), km in zip(edges, kms):
                weights[a, b] = weights[b, a] = km
        else:
            # Rotation, scale and offset keep the minimum tree, so the shape's cost.
            turn = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
            xy = shape @ rot.T * rng.uniform(20.0, 40.0) * math.sqrt(n) + rng.uniform(-500, 500, 2)
            doc = {"parties": [{"id": i, "x": float(x), "y": float(y)} for i, (x, y) in zip(ids, xy)]}
            weights = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
            np.fill_diagonal(weights, np.inf)
        mu = float(rng.uniform(0.1, 0.4))
        delta_ec = float(rng.choice([0.0, 0.05]))
        text = json.dumps(doc)
        argv = ["plan", "-", "--mu", repr(mu), "--delta-ec", repr(delta_ec),
                "--seed", str(int(rng.integers(2**31)))]

        def check(out):
            oracle.check_plan(json.loads(out), ids, weights, mu, delta_ec)

        return Op("cli", lambda: cli_call(self.program.cli, argv, text), check, 1)

    def warmup(self):
        return self.ops[:2]

    def round(self):
        return self.ops


# --- keyrate -----------------------------------------------------------------

SWEEP_POINTS = 81
OPT_DISTANCES = 21
OPT_GRID = np.linspace(0.01, 1.0, 40)


def _parse_csv(text):
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


class KeyrateSweep(Workload):
    """Per round: 6 distance sweeps, 6 intensity sweeps, 4 single points with
    unequal arms, and `optimize_intensity` at 21 distances."""

    item = "rate point"

    def __init__(self, program, seed):
        super().__init__(program, seed)
        rng = self.rng
        ops = []
        for i in range(6):
            mu = float(rng.uniform(0.05, 0.5))
            mu2 = float(rng.uniform(0.05, 0.5)) if i % 2 else None
            ops.append(self._distance_sweep(mu, mu2, self._delta(), float(rng.uniform(300, 500))))
        for i in range(6):
            arms = [float(a) for a in rng.uniform(0.0, 60.0, 4)] if i % 2 else None
            total = None if arms else float(rng.uniform(0.0, 300.0))
            lo = float(rng.uniform(0.01, 0.1))
            ops.append(self._mu_sweep(lo, float(rng.uniform(0.5, 1.5)), arms, total, self._delta()))
        for _ in range(4):
            arms = [float(a) for a in rng.uniform(0.0, 80.0, 4)]
            mus = [float(m) for m in rng.uniform(0.05, 0.5, 2)]
            ops.append(self._point(mus[0], mus[1], arms, self._delta()))
        for km in np.linspace(0.0, 400.0, OPT_DISTANCES) + rng.uniform(0.0, 10.0):
            ops.append(self._optimize(oracle.transmittance(float(km))))
        self.ops = ops

    def _delta(self):
        return float(self.rng.choice([0.0, self.rng.uniform(0.0, 0.1)]))

    def _cli_op(self, argv, n_rows, check_rows):
        def check(text):
            rows = _parse_csv(text)
            oracle.expect(len(rows) == n_rows, f"{len(rows)} rows, want {n_rows}")
            check_rows(rows)

        return Op("cli", lambda: cli_call(self.program.cli, argv), check, n_rows)

    def _sampled(self, rows, links):
        """Closed form on every row; the operator pipeline on the first and middle."""
        for i, row in enumerate(rows):
            mu, eta = oracle.check_keyrate_row(row, *links(row))
            if i in (0, len(rows) // 2):
                oracle.check_operator_pipeline(row, mu, eta, self.program.keyrate)

    def _distance_sweep(self, mu, mu2, delta_ec, stop_km):
        argv = ["keyrate", "--mu", repr(mu), "--delta-ec", repr(delta_ec),
                "--sweep", f"distance_km:0:{stop_km!r}:{SWEEP_POINTS}"]
        if mu2 is not None:
            argv += ["--mu2", repr(mu2)]
        grid = np.linspace(0.0, stop_km, SWEEP_POINTS)

        def check_rows(rows):
            for row, km in zip(rows, grid):
                oracle.expect(oracle.close(row["L_km"], km), f"L_km {row['L_km']!r} != {km!r}")
            self._sampled(rows, lambda r: (
                mu, mu if mu2 is None else mu2, r["L_km"] / 2.0, r["L_km"] / 2.0, delta_ec))
            oracle.check_distance_sweep(rows)

        return self._cli_op(argv, SWEEP_POINTS, check_rows)

    def _mu_sweep(self, lo, hi, arms, total, delta_ec):
        argv = ["keyrate", "--delta-ec", repr(delta_ec), "--sweep", f"mu:{lo!r}:{hi!r}:{SWEEP_POINTS}"]
        if arms is not None:
            argv += ["--arm-km", *map(repr, arms)]
            links = (arms[0] + arms[1], arms[2] + arms[3])
        else:
            argv += ["--distance-km", repr(total)]
            links = (total / 2.0, total / 2.0)

        def check_rows(rows):
            self._sampled(rows, lambda r: (r["mu"], r["mu"], *links, delta_ec))

        return self._cli_op(argv, SWEEP_POINTS, check_rows)

    def _point(self, mu, mu2, arms, delta_ec):
        argv = ["keyrate", "--mu", repr(mu), "--mu2", repr(mu2), "--delta-ec", repr(delta_ec),
                "--arm-km", *map(repr, arms)]

        def check_rows(rows):
            self._sampled(rows, lambda r: (
                mu, mu2, arms[0] + arms[1], arms[2] + arms[3], delta_ec))

        return self._cli_op(argv, 1, check_rows)

    def _optimize(self, eta):
        def run():
            return self.program.keyrate.optimize_intensity(eta, OPT_GRID)

        return Op("lib", run, lambda result: oracle.check_optimum(result, eta, OPT_GRID), len(OPT_GRID))

    def warmup(self):
        return [self.ops[0], self.ops[-1]]

    def round(self):
        return self.ops


WORKLOADS = {
    "sim-longhaul": SimLonghaul,
    "sim-metro": SimMetro,
    "plan-mixed": PlanMixed,
    "keyrate-sweep": KeyrateSweep,
}
