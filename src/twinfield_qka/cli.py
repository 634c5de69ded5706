"""Command-line front end.

Subcommands: discriminate, keyrate, simulate, plan, selftest.  Outputs are
CSV for sweeps and JSON for structured results; everything is deterministic
given the full flag set, and output files are only written after the whole
computation has succeeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .discrimination import compose_error, discriminate
from .errors import (BELOW_ONE, COUNT, NON_NEGATIVE, POSITIVE, SEED, UsageError, ValidationError,
                     check)
from .keyrate import asymptotic_rate, transmittance_from_distance
from .network import PartyGraph, derive_global_key, plan_network, reconcile_network
from .simulation import (
    SessionConfig,
    _key_digest,
    format_session_result,
    run_session,
    session_result_to_dict,
)

#: Each sweep variable, and the flags (by dest) whose values its grid sets.
SWEEPS = {"distance_km": ("distance_km", "arm_km"), "mu": ("mu", "mu2")}


#: argparse takes an argument that starts with "-" for an option unless it
#: matches its parser's _negative_number_matcher, which in Python 3.11 is only
#: -\d+ or -\d*.\d+; with this one, -1e3 and -inf reach the domain check too.
_FLOAT_LITERAL = re.compile(r"-(\.?\d|inf(inity)?$|nan$)", re.IGNORECASE)

#: Every numeric flag, once: its domain and argparse settings.  build_parser adds
#: each subcommand's flags from here, and _check_flags holds the values to them.
FLAGS = {
    "--mu": (POSITIVE, dict(type=float, default=0.2, help="source intensity")),
    "--mu2": (POSITIVE, dict(type=float, help="second-link intensity (default: --mu)")),
    "--distance-km": (NON_NEGATIVE, dict(
        type=float, help="total fiber length, split evenly over the four arms")),
    "--arm-km": (NON_NEGATIVE, dict(type=float, nargs=4, metavar=("L_A", "L_B", "L_B2", "L_C"),
                                    help="fiber length of each arm")),
    "--delta-ec": (BELOW_ONE, dict(
        type=float, default=0.0, help="error-correction leakage per conclusive round (bits)")),
    "--pulses": (COUNT, dict(type=int, default=100000, help="pulses sent")),
    "--y0": (BELOW_ONE, dict(type=float, default=2.45e-6, help="background yield per gate")),
    "--dark": (BELOW_ONE, dict(type=float, default=1e-6, help="dark-count probability")),
    "--seed": (SEED, dict(type=int, default=0, help="random seed")),
    "--key-length": (COUNT, dict(type=int, default=256, help="bits per segment key")),
}


def parse_sweep(text: str) -> tuple:
    """(variable, grid) from var:start:stop:steps; grid[0] is start, as Python floats."""
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"--sweep wants var:start:stop:steps, got {text!r}")
    var, start, stop, steps = parts
    if var not in SWEEPS:
        raise UsageError(f"sweep variable must be one of {tuple(SWEEPS)}, got {var!r}")
    try:
        start_f, stop_f, steps_i = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise UsageError(f"bad --sweep numbers in {text!r}: {exc}") from exc
    if not math.isfinite(stop_f - start_f):  # else np.linspace warns and returns NaN
        raise UsageError("sweep start and stop must be finite, and so must stop - start, "
                         f"got {start!r} and {stop!r}")
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
        *(s.center for s in plan.segments), *plan.per_segment_rate, *(v for _, v in recon),
    ])
    centers, rates = texts[:n], texts[n:2 * n]
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


# --- session document --------------------------------------------------------

#: The simulate document as json.dumps(indent=2, sort_keys=True) lays it out,
#: with a field for each scalar in key order.
_SESSION = """\
{{
  "config": {{
    "arm_lengths_km": [
      {},
      {},
      {},
      {}
    ],
    "dark_count_prob": {},
    "mu": {},
    "n_pulses": {},
    "seed": {},
    "y0": {}
  }},
  "result": {{
    "chi": {},
    "conclusive_counts": {{
      "AB": {},
      "BC": {}
    }},
    "key_digests": {{
      "alice_ab": {},
      "bob_ab": {},
      "bob_bc": {},
      "charlie_bc": {}
    }},
    "key_lengths": {{
      "ab": {},
      "bc": {}
    }},
    "qber_ab": {},
    "qber_bc": {},
    "sifted_rate": {},
    "skr_bps": {},
    "skr_per_pulse": {}
  }}
}}
"""


def _session_json(config, summary: dict) -> str:
    """The simulate document: the bytes of json.dumps(doc, indent=2, sort_keys=True) + "\\n".

    doc is {"config": the config's fields, arm_lengths as arm_lengths_km,
    "result": summary}.  As in _plan_json, the C encoder writes every scalar
    in one call and only the layout is written in Python.
    """
    counts, digests, lengths = (summary["conclusive_counts"], summary["key_digests"],
                                summary["key_lengths"])
    return _SESSION.format(*_scalars([
        *config.arm_lengths, config.dark_count_prob, config.mu, config.n_pulses, config.seed,
        config.y0, summary["chi"], counts["AB"], counts["BC"], digests["alice_ab"],
        digests["bob_ab"], digests["bob_bc"], digests["charlie_bc"], lengths["ab"], lengths["bc"],
        summary["qber_ab"], summary["qber_bc"], summary["sifted_rate"], summary["skr_bps"],
        summary["skr_per_pulse"],
    ]))


# --- subcommands -------------------------------------------------------------


def _cmd_discriminate(args) -> int:
    """One row of error probabilities per mu.

    q_helstrom_pair is the minimum error for the mixtures as built and
    q_pair_closed the published closed form; each _triple column composes
    its pair column over two independent nodes.
    """
    rows = []
    for mu in args.sweep[1] if args.sweep is not None else [args.mu]:
        res = discriminate(mu)
        rows.append(
            {
                "mu": res.mu,
                "q_helstrom_pair": res.q_helstrom,
                "q_helstrom_triple": compose_error(res.q_helstrom, res.q_helstrom),
                "q_pair_closed": res.q_closed_pair,
                "q_triple_closed": compose_error(res.q_closed_pair, res.q_closed_pair),
            }
        )
    _emit(rows, args)
    return 0


def _arm_kms(args):
    """Arm lengths (l_A, l_B, l_B', l_C) from --arm-km, or --distance-km split evenly."""
    if args.arm_km is not None and args.distance_km is not None:
        raise UsageError("give either --distance-km or --arm-km, not both")
    if args.arm_km is not None:
        return tuple(args.arm_km)
    total = args.distance_km if args.distance_km is not None else 0.0
    return (total / 4.0,) * 4


def _keyrate_row(mu1, mu2, link1_km, link2_km, delta_ec):
    """eta, sift and chi of the bottleneck link, and its bits per pulse."""
    links = [(mu1, transmittance_from_distance(link1_km)),
             (mu2, transmittance_from_distance(link2_km))]
    index, (sift, chi, _, rate) = asymptotic_rate(links, delta_ec)
    return {"eta": links[index][1], "sift": sift, "chi": chi, "rate": rate}


def _cmd_keyrate(args) -> int:
    mu2 = args.mu2 if args.mu2 is not None else args.mu
    variable, grid = args.sweep if args.sweep is not None else (None, None)
    if variable == "distance_km":
        rows = [{"L_km": total, **_keyrate_row(args.mu, mu2, total / 2, total / 2, args.delta_ec)}
                for total in grid]
    else:
        l_a, l_b, l_bp, l_c = _arm_kms(args)
        link1, link2 = l_a + l_b, l_bp + l_c
        if variable is None:
            rows = [{"L_km": link1 + link2, "mu": args.mu,
                     **_keyrate_row(args.mu, mu2, link1, link2, args.delta_ec)}]
        else:
            rows = [{"mu": mu, **_keyrate_row(mu, mu, link1, link2, args.delta_ec)} for mu in grid]
    _emit(rows, args)
    return 0


def _cmd_simulate(args) -> int:
    config = SessionConfig(
        n_pulses=args.pulses,
        mu=args.mu,
        arm_lengths=_arm_kms(args),
        y0=args.y0,
        dark_count_prob=args.dark,
        seed=args.seed,
    )
    result = run_session(config)
    summary = session_result_to_dict(result)
    if args.format == "csv":
        counts = summary["conclusive_counts"]
        _emit([{"conclusive_ab": counts["AB"], "conclusive_bc": counts["BC"],
                **{k: v for k, v in summary.items() if not isinstance(v, dict)}}], args)
    else:
        _write_text(_session_json(config, summary), args.out)
    print(format_session_result(result), file=sys.stderr)  # only once the output is written
    return 0


def _segment_keys(rng, n_segments: int, n_bits: int) -> np.ndarray:
    """One row of n_bits random bits per segment, as a loop drawing each row would.

    numpy fills a uint8 draw from whole 32-bit words and starts a fresh word
    on every call, so one draw of rows padded to a multiple of four bytes
    consumes the stream exactly as n_segments draws of n_bits do.
    """
    padded = -(-n_bits // 4) * 4
    return rng.integers(0, 2, (n_segments, padded), dtype=np.uint8)[:, :n_bits]


def _cmd_plan(args) -> int:
    if args.network == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.network) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read network file {args.network!r}: {exc}") from exc
    plan = plan_network(PartyGraph.from_json(text), mu=args.mu, delta_ec=args.delta_ec)

    keys = _segment_keys(np.random.default_rng(args.seed), len(plan.segments), args.key_length)
    global_key, announcements = reconcile_network(keys, plan)
    recovered = derive_global_key(announcements, keys)
    reconciliation = {
        "key_length": args.key_length,
        "announcements": len(announcements),
        "all_parties_converge": bool((recovered == global_key).all()),
        "global_key_sha256": _key_digest(global_key),
    }
    _write_text(_plan_json(plan, reconciliation), args.out)
    return 0


def _cmd_selftest(args) -> int:
    from . import selfcheck  # only this subcommand runs the battery

    results = selfcheck.run_all()
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return 0 if all(passed for _, passed, _ in results) else 1


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinfield-qka",
        description="Multi-party twin-field key agreement: analysis, simulation, planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, flags, sweep=True, fmt="csv", **domains):
        """A subcommand with flags from FLAGS; a domain given by dest replaces the row's.

        Each flag parses to None when it is not given; _check_flags then sets
        its row's default.
        """
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = _FLOAT_LITERAL
        checks, defaults = {}, {}
        for flag in flags:
            domain, settings = FLAGS[flag]
            action = p.add_argument(flag, **{**settings, "default": None})
            domain = domains.get(action.dest, domain)
            action.help += f"; must be {domain[0]}"
            checks[action.dest] = flag, domain
            defaults[action.dest] = settings.get("default")
        p.set_defaults(domains=checks, defaults=defaults)  # read back by _check_flags
        if sweep:
            p.add_argument("--sweep", default=None, metavar="var:start:stop:steps")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default=fmt)
        return p

    # discriminate takes the vacuum, mu = 0, which has an error probability but no key.
    add("discriminate", "node-level discrimination error vs intensity", ["--mu"], mu=NON_NEGATIVE)
    add("keyrate", "asymptotic secret key rate",
        ["--mu", "--mu2", "--distance-km", "--arm-km", "--delta-ec"])
    add("simulate", "Monte Carlo session",
        ["--pulses", "--mu", "--distance-km", "--arm-km", "--y0", "--dark", "--seed"],
        sweep=False, fmt="json")
    plan = add("plan", "plan an N-party network and dry-run reconciliation",
               ["--mu", "--delta-ec", "--seed", "--key-length"], sweep=False, fmt=None)
    plan.add_argument("network", help="network JSON file, or - for stdin")
    sub.add_parser("selftest", help="run the built-in invariant suite")

    return parser


def _check_flags(args) -> None:
    """Hold each numeric flag, and a sweep's start, to its domain: exit 1 before any work.

    A --sweep is parsed here, once, and args.sweep becomes its (variable, grid);
    a flag whose value the sweep sets is refused alongside it, as a usage error.
    Flags not given then take their defaults.
    """
    checks = getattr(args, "domains", {})  # selftest has no numeric flags
    given = [(dest, getattr(args, dest)) for dest in checks if getattr(args, dest) is not None]
    if getattr(args, "sweep", None) is not None:
        variable, grid = args.sweep = parse_sweep(args.sweep)
        if variable not in checks:
            raise UsageError(f"{args.command} cannot sweep {variable}")
        sets = [checks[dest][0] for dest in SWEEPS[variable] if dest in checks]
        clash = [checks[dest][0] for dest, _ in given if dest in SWEEPS[variable]]
        if clash:
            raise UsageError(f"a {variable} sweep sets {' and '.join(sets)}; "
                             f"drop {' and '.join(clash)}")
        given.append((variable, grid[0]))
    for dest, value in given:
        flag, domain = checks[dest]
        for x in value if isinstance(value, list) else [value]:
            check(flag, x, domain)
    for dest, default in getattr(args, "defaults", {}).items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _subparsers() -> dict:
    """Each subcommand's own parser, by name."""
    return next(a for a in _parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _parse_args(argv) -> argparse.Namespace:
    """What _parser().parse_args(argv) returns, with the tokens parsed once.

    When argv[0] names a subcommand, the top-level parser would hand every
    later token to that subcommand's parser after reading them all itself;
    here they go straight to it.  Any other argv takes the top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _subparsers().get(argv[0]) if argv else None
    if sub is None:
        return _parser().parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the process exit code.

    The parser is built once per process.  The handler is looked up by name
    on each call, so a `_cmd_*` replaced after the first call is the one run.
    """
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else 2
    try:
        _check_flags(args)
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
