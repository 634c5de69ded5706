"""Command-line front end.

Subcommands: discriminate, keyrate, simulate, plan, selftest.  Outputs are
CSV for sweeps and JSON for structured results; everything is deterministic
given the full flag set, and output files are only written after the whole
computation has succeeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import selfcheck
from .discrimination import compose_error, discriminate
from .errors import UsageError, ValidationError
from .keyrate import link_rate, transmittance_from_distance
from .network import PartyGraph, plan_network, reconcile_network
from .simulation import (
    SessionConfig,
    format_session_result,
    run_session,
    session_result_to_dict,
)

SWEEP_VARIABLES = ("distance_km", "mu")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int

    def grid(self):
        return np.linspace(self.start, self.stop, self.steps)


def parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"--sweep wants var:start:stop:steps, got {text!r}")
    var, start, stop, steps = parts
    if var not in SWEEP_VARIABLES:
        raise UsageError(f"sweep variable must be one of {SWEEP_VARIABLES}, got {var!r}")
    try:
        start_f, stop_f, steps_i = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise UsageError(f"bad --sweep numbers in {text!r}: {exc}") from exc
    if not (math.isfinite(start_f) and math.isfinite(stop_f)):
        raise UsageError(f"sweep start and stop must be finite, got {start!r} and {stop!r}")
    if not start_f < stop_f:
        raise UsageError(f"sweep start must be < stop, got {start_f} >= {stop_f}")
    if steps_i < 2:
        raise UsageError(f"sweep needs at least 2 steps, got {steps_i}")
    return SweepSpec(variable=var, start=start_f, stop=stop_f, steps=steps_i)


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows, path=None, fieldnames=None) -> None:
    """Write rows (list of dicts) as CSV: 17 significant digits, LF endings."""
    if fieldnames is None:
        if not rows:
            raise UsageError("emit_csv needs fieldnames when there are no rows")
        fieldnames = list(rows[0].keys())
    lines = [",".join(fieldnames)]
    for row in rows:
        if list(row.keys()) != list(fieldnames):
            raise ValidationError("rows are not rectangular: field mismatch")
        lines.append(",".join(_fmt_cell(row[k]) for k in fieldnames))
    _write_text("\n".join(lines) + "\n", path)


def _write_text(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path!r}: {exc}") from exc


def _emit(rows, args) -> None:
    if args.format == "json":
        _write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out)
    else:
        emit_csv(rows, args.out)


# --- subcommands -------------------------------------------------------------


def _cmd_discriminate(args) -> int:
    if args.sweep is not None:
        sweep = parse_sweep(args.sweep)
        if sweep.variable != "mu":
            raise UsageError("discriminate sweeps over mu only")
        mus = sweep.grid()
    else:
        mus = [args.mu]
    rows = []
    for mu in mus:
        if not 0 <= mu < math.inf:  # also false for NaN
            raise ValidationError(f"--mu must be finite and >= 0, got {mu}")
        res = discriminate(float(mu))
        rows.append(
            {
                "mu": res.mu,
                "q_helstrom_pair": res.q_helstrom,
                "q_helstrom_triple": compose_error(res.q_helstrom, res.q_helstrom, "node"),
                "q_pair_closed": res.q_closed_pair,
                "q_triple_closed": res.q_closed_triple,
            }
        )
    _emit(rows, args)
    return 0


def _arm_kms(args):
    """Arm lengths (l_A, l_B, l_B', l_C) from --arm-km, or --distance-km split evenly."""
    if args.arm_km is not None and args.distance_km is not None:
        raise UsageError("give either --distance-km or --arm-km, not both")
    if args.arm_km is not None:
        if min(args.arm_km) < 0:
            raise UsageError("--arm-km lengths must be >= 0")
        return tuple(args.arm_km)
    total = args.distance_km if args.distance_km is not None else 0.0
    if total < 0:
        raise UsageError("--distance-km must be >= 0")
    return (total / 4.0,) * 4


def _keyrate_row(mu1, mu2, link1_km, link2_km, delta_ec):
    """eta, sift and chi of the bottleneck link, and its bits per pulse."""
    links = []
    for mu, km in ((mu1, link1_km), (mu2, link2_km)):
        eta = transmittance_from_distance(km)
        sift, chi, _, rate = link_rate(mu, eta, delta_ec)
        links.append({"eta": eta, "sift": sift, "chi": chi, "rate": rate})
    return min(links, key=lambda row: row["rate"])


def _cmd_keyrate(args) -> int:
    if args.mu <= 0:
        raise ValidationError(f"--mu must be > 0, got {args.mu}")
    mu2 = args.mu2 if args.mu2 is not None else args.mu
    if mu2 <= 0:
        raise ValidationError(f"--mu2 must be > 0, got {mu2}")
    if args.delta_ec < 0:
        raise ValidationError(f"--delta-ec must be >= 0, got {args.delta_ec}")
    l_a, l_b, l_bp, l_c = _arm_kms(args)
    link1, link2 = l_a + l_b, l_bp + l_c

    rows = []
    if args.sweep is not None:
        sweep = parse_sweep(args.sweep)
        if sweep.variable == "distance_km":
            if sweep.start < 0:
                raise ValidationError("distance sweep must start at >= 0 km")
            for total in sweep.grid():
                half = total / 2.0
                rows.append({"L_km": float(total),
                             **_keyrate_row(args.mu, mu2, half, half, args.delta_ec)})
        else:
            if sweep.start <= 0:
                raise ValidationError("mu sweep must start at > 0")
            if args.mu2 is not None:
                raise UsageError("mu sweeps drive both links; drop --mu2")
            for mu in sweep.grid():
                rows.append({"mu": float(mu), **_keyrate_row(mu, mu, link1, link2, args.delta_ec)})
    else:
        rows.append({"L_km": link1 + link2, "mu": args.mu,
                     **_keyrate_row(args.mu, mu2, link1, link2, args.delta_ec)})
    _emit(rows, args)
    return 0


def _cmd_simulate(args) -> int:
    arms = _arm_kms(args)
    config = SessionConfig(
        n_pulses=args.pulses,
        mu_a=args.mu,
        mu_b=args.mu,
        mu_c=args.mu,
        arm_lengths=arms,
        y0=args.y0,
        dark_count_prob=args.dark,
        seed=args.seed,
        ec_efficiency=args.ec_efficiency,
    )
    result = run_session(config)
    doc = {
        "config": {
            "n_pulses": config.n_pulses,
            "mu": args.mu,
            "arm_lengths_km": list(arms),
            "y0": config.y0,
            "dark_count_prob": config.dark_count_prob,
            "seed": config.seed,
            "ec_efficiency": config.ec_efficiency,
        },
        "result": session_result_to_dict(result),
    }
    print(format_session_result(result), file=sys.stderr)
    if args.format == "csv":
        flat = {
            "conclusive_ab": result.conclusive_counts["AB"],
            "conclusive_bc": result.conclusive_counts["BC"],
            "qber_ab": result.qber_ab,
            "qber_bc": result.qber_bc,
            "sifted_rate": result.sifted_rate,
            "chi": result.chi,
            "skr_per_pulse": result.skr_per_pulse,
            "skr_bps": result.skr_bps,
        }
        emit_csv([flat], args.out)
    else:
        _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _all_converge(keys, global_key, announcements) -> bool:
    """derive_global_key's verdict for every segment, in one pass over the announcements."""
    n_bits = len(global_key)
    path = {0: np.zeros(n_bits, dtype=np.uint8)}  # XOR of the announcements up to segment 0
    for par, child, bits in announcements:  # every parent is listed before its children
        path[child] = path[par] ^ bits
    return all(np.array_equal(key[:n_bits] ^ path[i], global_key) for i, key in enumerate(keys))


def _cmd_plan(args) -> int:
    if args.network == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.network) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read network file {args.network!r}: {exc}") from exc
    graph = PartyGraph.from_json(text)
    if args.mu <= 0:
        raise ValidationError(f"--mu must be > 0, got {args.mu}")
    if args.delta_ec < 0:
        raise ValidationError(f"--delta-ec must be >= 0, got {args.delta_ec}")
    if args.key_length < 1:
        raise UsageError("--key-length must be >= 1")
    plan = plan_network(graph, mu_policy=args.mu, delta_ec=args.delta_ec)

    rng = np.random.default_rng(args.seed)
    keys = [rng.integers(0, 2, args.key_length, dtype=np.uint8) for _ in plan.segments]
    global_key, announcements = reconcile_network(keys, plan)
    converge = _all_converge(keys, global_key, announcements)
    doc = {
        "tree_edges": [[a, b, km] for a, b, km in plan.tree_edges],
        "segments": [
            {
                "members": list(s.members),
                "center": s.center,
                "link_km": list(s.arm_distances),
                "rate_per_pulse": r,
            }
            for s, r in zip(plan.segments, plan.per_segment_rate)
        ],
        "intra_announcers": list(plan.intra_announcers),
        "inter_announcers": list(plan.inter_announcers),
        "bottleneck_km": plan.bottleneck_distance,
        "network_rate_per_pulse": plan.network_rate,
        "reconciliation": {
            "key_length": args.key_length,
            "announcements": len(announcements),
            "all_parties_converge": bool(converge),
            "global_key_sha256": hashlib.sha256(global_key.tobytes()).hexdigest(),
        },
    }
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_selftest(args) -> int:
    results = selfcheck.run_all()
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinfield-qka",
        description="Multi-party twin-field key agreement: analysis, simulation, planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("discriminate", help="node-level discrimination error vs intensity")
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--sweep", default=None, metavar="var:start:stop:steps")
    add_common(p)
    p.set_defaults(default_format="csv")

    p = sub.add_parser("keyrate", help="asymptotic secret key rate")
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--mu2", type=float, default=None, help="second-link intensity")
    p.add_argument("--distance-km", type=float, default=None,
                   help="total fiber length, split evenly over the four arms")
    p.add_argument("--arm-km", type=float, nargs=4, default=None,
                   metavar=("L_A", "L_B", "L_B2", "L_C"))
    p.add_argument("--delta-ec", type=float, default=0.0,
                   help="error-correction leakage per conclusive round (bits)")
    p.add_argument("--sweep", default=None, metavar="var:start:stop:steps")
    add_common(p)
    p.set_defaults(default_format="csv")

    p = sub.add_parser("simulate", help="Monte Carlo session")
    p.add_argument("--pulses", type=int, default=100000)
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--distance-km", type=float, default=None)
    p.add_argument("--arm-km", type=float, nargs=4, default=None,
                   metavar=("L_A", "L_B", "L_B2", "L_C"))
    p.add_argument("--y0", type=float, default=2.45e-6)
    p.add_argument("--dark", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ec-efficiency", type=float, default=0.0)
    add_common(p)
    p.set_defaults(default_format="json")

    p = sub.add_parser("plan", help="plan an N-party network and dry-run reconciliation")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--delta-ec", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key-length", type=int, default=256)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(default_format=None)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(default_format=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the process exit code.

    The parser is built once per process.  The handler is looked up by name
    on each call, so a `_cmd_*` replaced after the first call is the one run.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else 2
    if getattr(args, "format", None) is None and args.default_format is not None:
        args.format = args.default_format
    try:
        return globals()["_cmd_" + args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # its message may be empty
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
