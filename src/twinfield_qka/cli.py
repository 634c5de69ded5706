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

import numpy as np

from . import selfcheck
from .discrimination import compose_error, discriminate
from .errors import UsageError, ValidationError
from .keyrate import asymptotic_rate, transmittance_from_distance
from .network import PartyGraph, plan_network, reconcile_network
from .simulation import (
    SessionConfig,
    format_session_result,
    run_session,
    session_result_to_dict,
)

SWEEP_VARIABLES = ("distance_km", "mu")


def parse_sweep(text: str) -> tuple:
    """(variable, grid) from var:start:stop:steps; grid[0] is start, as Python floats."""
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
    return var, np.linspace(start_f, stop_f, steps_i).tolist()


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows, path=None) -> None:
    """Write rows (a non-empty list of dicts) as CSV: 17 significant digits, LF endings."""
    fieldnames = list(rows[0].keys())
    lines = [",".join(fieldnames)]
    for row in rows:
        if list(row.keys()) != fieldnames:
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


# --- plan document -----------------------------------------------------------

#: The C encoder with a NUL item separator.  JSON escapes every control
#: character inside a string, so a raw NUL in its output only ever separates.
_encode_nul = json.JSONEncoder(separators=("\0", ": ")).encode

_SEGMENT = ('    {{\n      "center": {},\n      "link_km": {},\n      "members": {},\n'
            '      "rate_per_pulse": {}\n    }}')


def _scalars(values) -> list:
    """The JSON text of each scalar in values, from one encoder call."""
    return _encode_nul(values)[1:-1].split("\0") if values else []


def _array(texts, pad: str) -> str:
    """Encoded items laid out as json.dumps(indent=2) lays out a list at indent pad."""
    if not texts:
        return "[]"
    item = "\n  " + pad
    return "[" + item + ("," + item).join(texts) + "\n" + pad + "]"


def _rows(rows, pad: str) -> list:
    """Each of the non-empty rows of scalars laid out as _array does, from one encoder call."""
    item = ",\n  " + pad
    return ["[\n  " + pad + row.replace("\0", item) + "\n" + pad + "]"
            for row in _encode_nul(rows)[2:-2].split("]\0[")]


def _plan_json(plan, reconciliation: dict) -> str:
    """The plan document: the bytes of json.dumps(doc, indent=2, sort_keys=True) + "\\n".

    json.dumps runs its pure-Python encoder whenever indent is set.  Here the
    C encoder writes each column of scalars in one call and only the layout
    is written in Python.  reconciliation maps plain names to scalars.
    """
    n = len(plan.segments)
    recon = sorted(reconciliation.items())
    bottleneck, network_rate, *texts = _scalars([
        plan.bottleneck_distance, plan.network_rate,
        *plan.intra_announcers, *plan.per_segment_rate, *(v for _, v in recon),
    ])
    centers, rates = texts[:n], texts[n:2 * n]  # intra_announcers are the segment centers
    recon_items = [f'    "{k}": {t}' for (k, _), t in zip(recon, texts[2 * n:])]
    members = _rows([s.members for s in plan.segments], "      ")
    link_km = _rows([s.arm_distances for s in plan.segments], "      ")
    return (
        "{\n"
        f'  "bottleneck_km": {bottleneck},\n'
        f'  "inter_announcers": {_array(_scalars(plan.inter_announcers), "  ")},\n'
        f'  "intra_announcers": {_array(centers, "  ")},\n'
        f'  "network_rate_per_pulse": {network_rate},\n'
        '  "reconciliation": {\n' + ",\n".join(recon_items) + "\n  },\n"
        '  "segments": [\n' + ",\n".join(map(_SEGMENT.format, centers, link_km, members, rates))
        + "\n  ],\n"
        f'  "tree_edges": {_array(_rows(plan.tree_edges, "    "), "  ")}\n'
        "}\n"
    )


# --- subcommands -------------------------------------------------------------


def _cmd_discriminate(args) -> int:
    if args.sweep is not None:
        variable, mus = parse_sweep(args.sweep)
        if variable != "mu":
            raise UsageError("discriminate sweeps over mu only")
    else:
        mus = [args.mu]
    rows = []
    for mu in mus:
        res = discriminate(mu)
        rows.append(
            {
                "mu": res.mu,
                "q_helstrom_pair": res.q_helstrom,
                "q_helstrom_triple": compose_error(res.q_helstrom, res.q_helstrom),
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
    links = [(mu1, transmittance_from_distance(link1_km)),
             (mu2, transmittance_from_distance(link2_km))]
    index, (sift, chi, _, rate) = asymptotic_rate(links, delta_ec)
    return {"eta": links[index][1], "sift": sift, "chi": chi, "rate": rate}


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
        variable, grid = parse_sweep(args.sweep)
        if variable == "distance_km":
            if grid[0] < 0:
                raise ValidationError("distance sweep must start at >= 0 km")
            for total in grid:
                half = total / 2.0
                rows.append({"L_km": total,
                             **_keyrate_row(args.mu, mu2, half, half, args.delta_ec)})
        else:
            if grid[0] <= 0:
                raise ValidationError("mu sweep must start at > 0")
            if args.mu2 is not None:
                raise UsageError("mu sweeps drive both links; drop --mu2")
            for mu in grid:
                rows.append({"mu": mu, **_keyrate_row(mu, mu, link1, link2, args.delta_ec)})
    else:
        rows.append({"L_km": link1 + link2, "mu": args.mu,
                     **_keyrate_row(args.mu, mu2, link1, link2, args.delta_ec)})
    _emit(rows, args)
    return 0


def _cmd_simulate(args) -> int:
    arms = _arm_kms(args)
    config = SessionConfig(
        n_pulses=args.pulses,
        mu=args.mu,
        arm_lengths=arms,
        y0=args.y0,
        dark_count_prob=args.dark,
        seed=args.seed,
    )
    result = run_session(config)
    summary = session_result_to_dict(result)
    doc = {
        "config": {
            "n_pulses": config.n_pulses,
            "mu": config.mu,
            "arm_lengths_km": list(arms),
            "y0": config.y0,
            "dark_count_prob": config.dark_count_prob,
            "seed": config.seed,
        },
        "result": summary,
    }
    print(format_session_result(result), file=sys.stderr)
    if args.format == "csv":
        counts = summary["conclusive_counts"]
        flat = {"conclusive_ab": counts["AB"], "conclusive_bc": counts["BC"],
                **{k: v for k, v in summary.items() if not isinstance(v, dict)}}
        emit_csv([flat], args.out)
    else:
        _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _segment_keys(rng, n_segments: int, n_bits: int) -> np.ndarray:
    """One row of n_bits random bits per segment, as a loop drawing each row would.

    numpy fills a uint8 draw from whole 32-bit words and starts a fresh word
    on every call, so one draw of rows padded to a multiple of four bytes
    consumes the stream exactly as n_segments draws of n_bits do.
    """
    padded = -(-n_bits // 4) * 4
    return rng.integers(0, 2, (n_segments, padded), dtype=np.uint8)[:, :n_bits]


def _all_converge(keys, global_key, announcements) -> bool:
    """derive_global_key's verdict for every segment, in one pass over the announcements."""
    n_bits = len(global_key)
    path = {0: np.zeros(n_bits, dtype=np.uint8)}  # XOR of the announcements up to segment 0
    for par, child, bits in announcements:  # every parent is listed before its children
        path[child] = path[par] ^ bits
    paths = np.array([path[i] for i in range(len(keys))])
    return bool(((np.asarray(keys)[:, :n_bits] ^ paths) == global_key).all())


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
    if args.seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    plan = plan_network(graph, mu=args.mu, delta_ec=args.delta_ec)

    keys = _segment_keys(np.random.default_rng(args.seed), len(plan.segments), args.key_length)
    global_key, announcements = reconcile_network(keys, plan)
    reconciliation = {
        "key_length": args.key_length,
        "announcements": len(announcements),
        "all_parties_converge": _all_converge(keys, global_key, announcements),
        "global_key_sha256": hashlib.sha256(global_key.tobytes()).hexdigest(),
    }
    _write_text(_plan_json(plan, reconciliation), args.out)
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

    def add_common(p, default):
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=default)

    p = sub.add_parser("discriminate", help="node-level discrimination error vs intensity")
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--sweep", default=None, metavar="var:start:stop:steps")
    add_common(p, "csv")

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
    add_common(p, "csv")

    p = sub.add_parser("simulate", help="Monte Carlo session")
    p.add_argument("--pulses", type=int, default=100000)
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--distance-km", type=float, default=None)
    p.add_argument("--arm-km", type=float, nargs=4, default=None,
                   metavar=("L_A", "L_B", "L_B2", "L_C"))
    p.add_argument("--y0", type=float, default=2.45e-6)
    p.add_argument("--dark", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, "json")

    p = sub.add_parser("plan", help="plan an N-party network and dry-run reconciliation")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--delta-ec", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key-length", type=int, default=256)
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    sub.add_parser("selftest", help="run the built-in invariant suite")

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
