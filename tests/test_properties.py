"""Property tests: invariants that must hold for every input, not just sampled ones."""

import argparse
import ast
import cmath
import contextlib
import dataclasses
import inspect
import io
import json
import math
import re
import tempfile
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import FIG_SEVEN, ID_SLOTS, edge_entries, prufer_edges, walk_to_root  # noqa: E402
import twinfield_qka as api  # noqa: E402
from twinfield_qka import cli  # noqa: E402
from twinfield_qka.cli import _plan_json  # noqa: E402
from twinfield_qka.errors import (  # noqa: E402
    BELOW_ONE,
    COUNT,
    NON_NEGATIVE,
    POVM_INTENSITY,
    PROBABILITY,
    SEED,
    TRANSMITTANCE,
    ValidationError,
    in_domain,
)
from twinfield_qka.keyrate import asymptotic_rate, link_rate  # noqa: E402
from twinfield_qka.network import (  # noqa: E402
    PartyGraph,
    derive_global_key,
    plan_network,
    plan_rates,
    reconcile_network,
    segment_tree,
)
from twinfield_qka.simulation import (  # noqa: E402
    SessionConfig,
    _block_events,
    _block_rng,
    run_session,
    session_result_to_dict,
)

#: Probabilities in [0, 1], with the edges that break naive samplers
#: (subnormals, p so close to 1 that log1p(-p) is huge, and p == 1) drawn often.
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0 - 2**-53, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(cnt=st.integers(0, 5000), pa=PROBABILITIES, pb=PROBABILITIES,
       qa=PROBABILITIES, qb=PROBABILITIES, seed=st.integers(0, 2**32 - 1))
def test_block_events_are_one_merged_stream(cnt, pa, pb, qa, qb, seed):
    events = [(np.flatnonzero(at), bob, err)
              for at, bob, err in _block_events(_block_rng(seed, 0), cnt, [(pa, qa), (pb, qb)])]
    for (idx, bob, err), p, q in zip(events, (pa, pb), (qa, qb)):
        assert np.all(np.diff(idx) > 0)
        assert bob.dtype == np.uint8 and np.all(bob <= 1)
        assert err.dtype == bool
        assert len(bob) == len(err) == len(idx)
        if p == 1.0:
            assert np.array_equal(idx, np.arange(cnt))
        if q == 0.0:
            assert not err.any()
        if q == 1.0:
            assert err.all()
    (ab, bob_ab, _), (bc, bob_bc, _) = events
    # Every event is conclusive at one node at least, and Bob's bit is one per event.
    merged = np.union1d(ab, bc)
    assert len(merged) <= cnt
    assert np.array_equal(merged, np.arange(len(merged)))
    _, i_ab, i_bc = np.intersect1d(ab, bc, assume_unique=True, return_indices=True)
    assert np.array_equal(bob_ab[i_ab], bob_bc[i_bc])
    if pa == 0.0:
        assert len(ab) == 0
    if pb == 0.0:
        assert len(bc) == 0


#: link_rate's whole domain: finite mu >= 0 up to the float maximum, and eta in
#: (0, 1] with subnormals and exactly 1 (no loss) drawn often.
INTENSITIES = st.one_of(
    st.floats(0.0, 1.7e308),
    st.sampled_from([0.0, 5e-324, 1e-300, 0.2, 710.0, 4.5e307, 1e308, 1.7e308]),
)
TRANSMITTANCES = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1.0 - 2**-53, 1.0]),
)


@settings(max_examples=500, deadline=None)
@given(mu=INTENSITIES, eta=TRANSMITTANCES)
def test_link_rate_is_finite_and_in_range(mu, eta):
    sift, chi, fraction, bits = link_rate(mu, eta)
    assert np.isfinite([sift, chi, fraction, bits]).all()
    assert 0.0 <= sift <= 1.0
    assert 0.0 <= chi <= 1.0
    assert 0.0 <= fraction <= 1.0
    assert bits >= 0.0


@settings(max_examples=300, deadline=None)
@given(links=st.lists(st.tuples(INTENSITIES, TRANSMITTANCES), min_size=1, max_size=6),
       delta_ec=st.sampled_from([0.0, 0.05, 0.5]))
def test_asymptotic_rate_is_the_first_slowest_link(links, delta_ec):
    bits = [link_rate(mu, eta, delta_ec)[3] for mu, eta in links]
    index, rate = asymptotic_rate(links, delta_ec)
    assert rate == link_rate(*links[index], delta_ec)
    assert rate[3] == min(bits)
    assert index == bits.index(min(bits))


#: Ids whose JSON text needs escapes, or would hold the writer's NUL and
#: bracket separators if a string did not escape its control characters.
ESCAPE_IDS = ['"', "\\", "\0", ",", "[", "]", "]\0[", "\0]", "\u00fc", "\u6771\u4eac",
              "\x1f", "\u2028", "\ud800", ""]
PARTY_IDS = st.one_of(
    st.sampled_from([v for slot in ID_SLOTS for v in slot] + ESCAPE_IDS),
    st.text(max_size=4),
)


def plan_doc(plan, reconciliation):
    """The plan document as a dict, for json.dumps to write: the writer's oracle."""
    return {
        "tree_edges": [[a, b, km] for a, b, km in plan.tree_edges],
        "segments": [
            {"members": list(s.members), "center": s.center,
             "link_km": list(s.arm_distances), "rate_per_pulse": r}
            for s, r in zip(plan.segments, plan.per_segment_rate)
        ],
        "intra_announcers": list(plan.intra_announcers),
        "inter_announcers": list(plan.inter_announcers),
        "bottleneck_km": plan.bottleneck_distance,
        "network_rate_per_pulse": plan.network_rate,
        "reconciliation": reconciliation,
    }


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(PARTY_IDS, min_size=2, max_size=14, unique=True),
       coordinates=st.booleans(), km_scale=st.sampled_from([1.0, 30.0, 400.0]),
       seed=st.integers(0, 2**32 - 1))
def test_plan_writer_is_json_dumps(ids, coordinates, km_scale, seed):
    rng = np.random.default_rng(seed)
    n = len(ids)
    if coordinates:
        xy = rng.uniform(-km_scale, km_scale, (n, 2))
        graph = PartyGraph.build([{"id": p, "x": x, "y": y} for p, (x, y) in zip(ids, xy)])
    else:  # a random spanning tree, with integer lengths that tie, plus extra edges
        edges = [(ids[i], ids[int(rng.integers(i))], float(rng.integers(1, 5)) * km_scale)
                 for i in range(1, n)]
        edges += [(ids[i], ids[j], float(rng.uniform(1, 5)) * km_scale)
                  for i, j in combinations(range(n), 2) if rng.random() < 0.3]
        graph = PartyGraph.build(ids, edge_entries(edges))
    plan = plan_network(graph, mu=float(rng.uniform(0.05, 0.5)))
    reconciliation = {
        "key_length": int(rng.integers(1, 2**40)),
        "announcements": len(plan.segments) - 1,
        "all_parties_converge": bool(rng.random() < 0.5),
        "global_key_sha256": bytes(rng.integers(0, 256, 32, dtype=np.uint8)).hex(),
    }
    text = _plan_json(plan, reconciliation)
    assert text == json.dumps(plan_doc(plan, reconciliation), indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(pulses=st.integers(1, 4000) | st.sampled_from([1, 2, 3]),
       mu=st.sampled_from([5e-324, 1e-300, 1e-12]) | st.floats(1e-6, 2.0),
       arms=st.none() | st.lists(st.floats(0.0, 300.0), min_size=4, max_size=4),
       seed=st.integers(0, 2**64))
def test_session_writer_is_json_dumps(pulses, mu, arms, seed):
    """A tiny mu leaves the keys empty and the error rates 0.0."""
    argv = ["simulate", "--pulses", str(pulses), "--mu", repr(mu), "--seed", str(seed)]
    if arms is not None:
        argv += ["--arm-km", *map(repr, arms)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.dispatch(argv) == 0
    config = SessionConfig(n_pulses=pulses, mu=mu, seed=seed,
                           arm_lengths=(0.0,) * 4 if arms is None else arms)
    echo = dataclasses.asdict(config)
    echo["arm_lengths_km"] = echo.pop("arm_lengths")
    doc = {"config": echo, "result": session_result_to_dict(run_session(config))}
    assert stdout.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def relisted_networks(draw):
    """A network document from ID_SLOTS with integer km, and the same network listed anew.

    The new listing shuffles the parties and the edges and swaps the ends of
    some edges.  Whole kilometres make ties common, and the slots hold ids
    that an order by float value or by text alone cannot tell apart.
    """
    picks = draw(st.lists(st.integers(0, len(ID_SLOTS) - 1), min_size=2, max_size=10, unique=True))
    slots = [ID_SLOTS[k] for k in picks]
    n = len(slots)
    ids = [draw(st.sampled_from(slot)) for slot in slots]
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]  # a spanning tree
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=2 * n))
    edges = [{"a": draw(st.sampled_from(slots[i])), "b": draw(st.sampled_from(slots[j])),
              "km": draw(st.integers(1, 3))} for i, j in pairs]
    relisted = [dict(e, a=e["b"], b=e["a"]) if draw(st.booleans()) else e
                for e in draw(st.permutations(edges))]
    return ({"parties": ids, "edges": edges},
            {"parties": draw(st.permutations(ids)), "edges": relisted})


def plan_stdout(doc):
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp, "net.json")
        net.write_text(json.dumps(doc))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.dispatch(["plan", str(net)]) == 0
    return stdout.getvalue()


TIED_IDS = {"parties": [2**53, 2**53 + 1, 5],
            "edges": edge_entries([(2**53, 5, 1), (2**53 + 1, 5, 1), (2**53, 2**53 + 1, 1)])}


@settings(max_examples=100, deadline=None)
@given(docs=relisted_networks())
@example(docs=(TIED_IDS, dict(TIED_IDS, edges=[TIED_IDS["edges"][i] for i in (1, 0, 2)])))
def test_plan_does_not_depend_on_listing_order(docs):
    doc, relisted = docs
    assert plan_stdout(doc) == plan_stdout(relisted)


#: The forms a segment key may take, each read as the same bits.
KEY_FORMS = (
    lambda bits: np.array(bits, dtype=np.uint8),
    lambda bits: np.array(bits, dtype=np.int64),
    lambda bits: [bool(b) for b in bits],
    lambda bits: [float(b) for b in bits],
)


@st.composite
def keyed_plans(draw):
    """The plan of a random 2-40 party tree, and one key per segment, each of its own length and form."""
    n = draw(st.integers(2, 40))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    plan = plan_rates(segment_tree([(a, b, 10.0) for a, b in prufer_edges(seq, n)]), 0.2)
    keys = [draw(st.sampled_from(KEY_FORMS))(draw(st.lists(st.integers(0, 1), max_size=48)))
            for _ in plan.segments]
    return plan, keys


@settings(max_examples=200, deadline=None)
@given(case=keyed_plans())
def test_reconciliation_round_trips_over_mixed_keys(case):
    plan, keys = case
    global_key, announcements = reconcile_network(keys, plan)
    shortest = min(map(len, keys))
    np.testing.assert_array_equal(global_key, np.asarray(keys[0][:shortest], dtype=np.uint8))
    recovered = derive_global_key(announcements, keys)
    assert recovered.shape == (len(keys), shortest)
    for i, key in enumerate(keys):
        np.testing.assert_array_equal(recovered[i], global_key)
        np.testing.assert_array_equal(walk_to_root(announcements, i, key), global_key)


# --- the flag contract -------------------------------------------------------

SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices

#: (command, flag) -> (domain, type): each numeric flag of each subcommand,
#: with the domain the table gives it there.
FLAG_DOMAINS = {
    (command, flag): (domain, cli.FLAGS[flag][1]["type"])
    for command, parser in SUBCOMMANDS.items()
    for flag, domain in (parser.get_default("domains") or {}).values()
}

#: (command, flag, sweep): each numeric flag, and each flag a --sweep can start.
FLAG_CASES = [
    (command, flag, sweep)
    for command, flag in FLAG_DOMAINS
    for sweep in (False, True)
    if not sweep or (flag[2:].replace("-", "_") in cli.SWEEPS
                     and any(a.dest == "sweep" for a in SUBCOMMANDS[command]._actions))
]


def takes_four(flag):
    return cli.FLAGS[flag][1].get("nargs") == 4


def flag_argv(command, flag, x, position, sweep):
    """An argv that sets flag (its value at position, or a --sweep start) to x."""
    argv = [command, *(["NET"] if command == "plan" else [])]
    if sweep:
        stop = x / 2 if x < -1 else 1.0  # above x, with a finite span
        return [*argv, f"--sweep={flag[2:].replace('-', '_')}:{x!r}:{stop!r}:3"]
    if not takes_four(flag):
        return [*argv, flag, repr(x)]
    values = ["1"] * 4
    values[position] = repr(x)
    return [*argv, flag, *values]


def refused_edges(command, flag, sweep):
    """NaN, +-inf, and the values just past and far past each finite bound of the domain."""
    (_, lo, hi), kind = FLAG_DOMAINS[command, flag]
    if kind is int:
        return [lo - 1, lo - 10**30]
    edges = [math.nextafter(lo, -math.inf), -1e300] + ([hi, 1e300] if hi < math.inf else [])
    if sweep:  # a sweep refuses a non-finite end itself, as a usage error
        return edges
    return edges + [math.nan, math.inf, -math.inf]


def refused_cases(case):
    """(command, flag, x, position, sweep) with x outside the flag's domain."""
    command, flag, sweep = case
    (_, lo, hi), kind = FLAG_DOMAINS[command, flag]
    if kind is int:
        drawn = st.integers(max_value=lo - 1)
    else:
        drawn = st.floats(max_value=math.nextafter(lo, -math.inf), allow_infinity=False)
        if hi < math.inf:
            drawn |= st.floats(min_value=hi, allow_infinity=False)
    return st.tuples(st.just(command), st.just(flag),
                     st.sampled_from(refused_edges(*case)) | drawn,
                     st.integers(0, 3), st.just(sweep))


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return decorate


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(FLAG_CASES).flatmap(refused_cases))
@with_examples((*case[:2], x, 1, case[2]) for case in FLAG_CASES for x in refused_edges(*case))
@with_examples([("discriminate", "--mu", -0.5, 0, False), ("discriminate", "--mu", -1.0, 0, True),
                ("simulate", "--arm-km", -1.0, 0, False), ("keyrate", "--arm-km", -1.0, 0, False)])
def test_out_of_domain_flag_is_refused_before_any_work(case):
    """One line naming the flag, exit 1, no output; plan does not read its document."""
    command, flag, x, position, sweep = case
    words = FLAG_DOMAINS[command, flag][0][0]
    shown = x + 0.0 if sweep else x  # a sweep reports its grid's first point, where -0.0 is 0.0
    with tempfile.TemporaryDirectory() as tmp:
        net, out = Path(tmp, "net.json"), Path(tmp, "out")
        net.write_text("not json")
        argv = [str(net) if a == "NET" else a for a in flag_argv(*case)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert cli.dispatch([*argv, "--out", str(out)]) == 1
        assert stdout.getvalue() == ""
        assert stderr.getvalue() == f"error: {flag} must be {words}, got {shown}\n"
        assert not out.exists()


def accepted_cases(key):
    """(command, flag, x, position) with x inside the flag's domain, its bounds often."""
    (_, lo, hi), kind = FLAG_DOMAINS[key]
    top = lo + 10**30 if kind is int else math.nextafter(hi, -math.inf)
    drawn = st.integers(lo, top) if kind is int else st.floats(lo, top)
    return st.tuples(*map(st.just, key), st.sampled_from([lo, top]) | drawn, st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(list(FLAG_DOMAINS)).flatmap(accepted_cases))
@with_examples([("simulate", "--distance-km", 0.0, 0), ("keyrate", "--distance-km", 0.0, 0),
                ("simulate", "--seed", 0, 0), ("plan", "--seed", 0, 0),
                ("discriminate", "--mu", 0.0, 0), ("simulate", "--pulses", 1, 0),
                ("plan", "--key-length", 1, 0)])
def test_in_domain_flag_passes_the_check(case):
    args = cli._parser().parse_args(flag_argv(*case, sweep=False))
    cli._check_flags(args)


# --- the library's numeric domains -------------------------------------------

#: (exported callable, argument, name, domain): each float- or int-annotated
#: parameter of the package's API, the name its check reports and the domain it
#: is held to.
LIBRARY = [
    (api.basis_coeffs, "mu", "mean photon number", NON_NEGATIVE),
    (api.signal_vector, "mu", "mean photon number", NON_NEGATIVE),
    (api.correlated_mixture, "mu", "mean photon number", NON_NEGATIVE),
    (api.qmin_pair_closed, "mu", "mean photon number", NON_NEGATIVE),
    (api.discriminate, "mu", "mean photon number", NON_NEGATIVE),
    (api.compose_error, "q1", "error probability", PROBABILITY),
    (api.compose_error, "q2", "error probability", PROBABILITY),
    (api.binary_entropy, "z", "binary_entropy argument", PROBABILITY),
    (api.loss_povm, "mu", "intensity", POVM_INTENSITY),
    (api.loss_povm, "eta", "transmittance", TRANSMITTANCE),
    (api.link_rate, "mu", "intensity", NON_NEGATIVE),
    (api.link_rate, "eta", "transmittance", TRANSMITTANCE),
    (api.link_rate, "delta_ec", "error-correction leakage", NON_NEGATIVE),
    (api.symmetric_rate, "mu", "intensity", NON_NEGATIVE),
    (api.symmetric_rate, "eta", "transmittance", TRANSMITTANCE),
    (api.symmetric_rate, "delta_ec", "error-correction leakage", NON_NEGATIVE),
    (api.asymptotic_rate, "delta_ec", "error-correction leakage", NON_NEGATIVE),
    (api.optimize_intensity, "eta", "transmittance", TRANSMITTANCE),
    (api.transmittance_from_distance, "distance_km", "distance", NON_NEGATIVE),
    (api.plan_rates, "mu", "intensity", NON_NEGATIVE),
    (api.plan_rates, "delta_ec", "error-correction leakage", NON_NEGATIVE),
    (api.plan_network, "mu", "intensity", NON_NEGATIVE),
    (api.plan_network, "delta_ec", "error-correction leakage", NON_NEGATIVE),
    (api.SessionConfig, "n_pulses", "n_pulses", COUNT),
    (api.SessionConfig, "mu", "mu", NON_NEGATIVE),
    (api.SessionConfig, "y0", "y0", BELOW_ONE),
    (api.SessionConfig, "dark_count_prob", "dark_count_prob", BELOW_ONE),
    (api.SessionConfig, "seed", "seed", SEED),
]

#: Exported classes that hold results the package computed; it never checks them.
RECORDS = {api.LossPovm, api.DiscriminationResult, api.SessionResult, api.NetworkPlan}

#: A valid value of each required argument that a row does not draw.
VALID = {
    "sa": 1, "sb": 1, "parity": 1, "mu": 0.2, "q1": 0.1, "q2": 0.1, "z": 0.3, "eta": 0.5,
    "links": [(0.2, 0.5), (0.3, 0.1)], "mu_grid": [0.1, 0.2], "distance_km": 10.0,
    "segments": [api.Segment(members=(0, 1, 2), center=1, arm_distances=(10.0, 20.0))],
    "graph": PartyGraph.build(**FIG_SEVEN), "n_pulses": 10,
}


def call_with(fn, arg, x):
    """fn called with x as arg, and a valid value for each other required argument."""
    params = inspect.signature(fn).parameters
    kwargs = {p: VALID[p] for p, v in params.items() if v.default is v.empty and p != arg}
    return fn(**kwargs, **{arg: x})


def is_integer_domain(domain):
    return type(domain[1]) is int


def refused_values(domain):
    """NaN, +-inf, a bool, a string, values near and far past each bound, reals no float holds."""
    _, lo, hi = domain
    common = [math.nan, math.inf, -math.inf, True, False, "0.5", -10**400, -0.01, -0.1, -0.2, -1.0]
    common += [x for x in (0.0, 5e-324, 1e-320) if x < lo]  # their squares are 0
    if is_integer_domain(domain):  # ints compare exactly, so 10**400 is in
        return common + [lo - 1, float(lo), 3.0, lo + 0.5, 10.5, "3", None]
    past_hi = [hi, 1.1, 1.2, 1.5, 1e300] if hi < math.inf else []
    return common + [math.nextafter(lo, -math.inf), -1e300, *past_hi, 10**400, 1j]


def refused_library_cases(row):
    *_, domain = row
    _, lo, hi = domain
    if is_integer_domain(domain):
        drawn = st.integers(max_value=lo - 1) | st.floats(allow_nan=False)
    else:
        drawn = st.floats(max_value=math.nextafter(lo, -math.inf))
        if hi < math.inf:
            drawn |= st.floats(min_value=hi)
    return st.tuples(st.just(row), st.sampled_from(refused_values(domain)) | drawn)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(LIBRARY).flatmap(refused_library_cases))
@with_examples((row, x) for row in LIBRARY for x in refused_values(row[3]))
def test_out_of_domain_argument_is_refused(case):
    """A ValidationError from the domain check itself, naming the argument and the value."""
    (fn, arg, name, domain), x = case
    words = domain[0]
    if is_integer_domain(domain) and (isinstance(x, bool) or not isinstance(x, int)):
        words = "an integer"
    with pytest.raises(ValidationError) as refused:
        call_with(fn, arg, x)
    assert str(refused.value) == f"{name} must be {words}, got {x!r}"


def finite(result):
    """Whether every number in result (dataclasses, sequences, arrays) is finite."""
    if dataclasses.is_dataclass(result):
        return all(finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return all(map(finite, result))
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    return not isinstance(result, (int, float, complex)) or cmath.isfinite(result)


def accepted_library_cases(row):
    *_, domain = row
    _, lo, hi = domain
    if is_integer_domain(domain):
        top = lo + 10**30
        drawn = st.integers(lo, top)
    else:
        top = math.nextafter(hi, -math.inf)
        drawn = st.floats(lo, top) | st.integers(math.ceil(lo), min(math.floor(top), 10**300))
    return st.tuples(st.just(row), st.sampled_from([lo, top]) | drawn)


#: The refusals a domain allows inside its bounds: cosh(mu) overflows above
#: mu ≈ 710, and a long distance's transmittance underflows to 0.
IN_DOMAIN_REFUSALS = {
    **dict.fromkeys([api.basis_coeffs, api.signal_vector, api.correlated_mixture,
                     api.discriminate, api.loss_povm],
                    r"mean photon number too large: cosh\(.+\) overflows"),
    api.transmittance_from_distance:
        r"distance .+ km is too long: its transmittance underflows to 0",
}


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(LIBRARY).flatmap(accepted_library_cases))
@with_examples((row, x) for row in LIBRARY
               for x in (row[3][1], 5e-324, 1e-320, 0.5, 1.0, 800.0, 1e5, 1e300,
                         math.nextafter(row[3][2], -math.inf))
               if in_domain(x, row[3]))
def test_in_domain_argument_gives_a_finite_result_or_a_validation_error(case):
    (fn, arg, _, _), x = case
    try:
        result = call_with(fn, arg, x)
    except ValidationError as refused:
        assert re.fullmatch(IN_DOMAIN_REFUSALS.get(fn, "(?!)"), str(refused)), refused
        return
    assert finite(result)


def test_every_numeric_parameter_of_the_api_has_a_row():
    """A float or int argument added without a row in LIBRARY would go untested."""
    rows = {(fn, arg) for fn, arg, *_ in LIBRARY}
    for name, obj in vars(api).items():
        if (name.startswith("_") or not callable(obj) or obj in RECORDS
                or isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.annotation in ("float", "int", float, int):
                assert (obj, param.name) in rows, f"{name}({param.name}) has no row"
    assert all(arg in inspect.signature(fn).parameters for fn, arg, *_ in LIBRARY)


def test_only_errors_holds_a_number_to_a_bound_of_inf():
    """Every domain check goes through errors.check: no module but errors.py compares
    against math.inf or defines _finite, as the hand-written checks did."""
    found = []
    for path in sorted(Path(api.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Attribute) and n.attr == "inf"
                    and isinstance(n.value, ast.Name) and n.value.id == "math"
                    for n in (node.left, *node.comparators)):
                found.append(f"{path.name}:{node.lineno} compares against math.inf")
            elif isinstance(node, ast.FunctionDef) and node.name == "_finite":
                found.append(f"{path.name}:{node.lineno} defines _finite")
    assert found == []


#: Flag values, good for some flags and bad for others; NET and OUT stand for
#: a network file and an output path, the only path written.
VALUES = ["1", "3", "0.5", "-1", "-1e3", "nan", "abc", "csv", "json",
          "mu:0.1:1:3", "distance_km:0:10:3", "NET", "OUT"]
#: Tokens no subcommand takes as given: unknown or abbreviated flags, an
#: extra positional, the end of options, help.
JUNK = ["--bogus", "--pul", "--mu2=0.3", "extra", "--", "-h", "-x", "NET", "OUT"]


@st.composite
def command_lines(draw):
    """A subcommand or junk, then flags with as many values as they take or one fewer, and junk."""
    command = draw(st.sampled_from([*SUBCOMMANDS] * 3 + [None, "bogus", "-h", "--help", "--pul",
                                                         "--"]))
    argv = [] if command is None else [command]
    parser = SUBCOMMANDS.get(command)
    if command == "plan" and draw(st.integers(0, 3)):
        argv.append("NET")
    flags = [f for a in parser._actions if a.dest != "help" for f in a.option_strings] \
        if parser else []
    for _ in range(draw(st.integers(0, 4))):
        if flags and draw(st.integers(0, 5)):
            flag = draw(st.sampled_from(flags))
            action = parser._option_string_actions[flag]
            takes = 1 if action.nargs is None else action.nargs
            given = takes - 1 if draw(st.integers(0, 5)) == 5 else takes
            good = {"--format": "json", "--sweep": "mu:0.1:1:3"}.get(
                flag, "3" if action.type is int else "0.5")
            values = st.just("OUT") if flag == "--out" else st.just(good) | st.sampled_from(VALUES)
            argv += [flag, *draw(st.lists(values, min_size=given, max_size=given))]
        else:
            argv.append(draw(st.sampled_from(JUNK)))
    return argv


def run_with(argv, net, out):
    """Exit code, stdout, stderr and the --out file's text of one dispatch."""
    argv = [str(net) if a == "NET" else str(out) if a == "OUT" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.dispatch(argv)
    written = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, stdout.getvalue(), stderr.getvalue(), written


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
@example(argv=["simulate", "--pulses", "3", "--", "--seed", "1"])
@example(argv=["plan", "NET", "extra", "--pul"])
@example(argv=["keyrate", "--mu"])
@example(argv=[])
def test_parse_is_argparse(argv):
    """dispatch parses as the top-level parser's parse_args does, to the byte of every output."""
    with tempfile.TemporaryDirectory() as tmp:
        net, out = Path(tmp, "net.json"), Path(tmp, "out")
        net.write_text(json.dumps(FIG_SEVEN))
        got = run_with(argv, net, out)
        with mock.patch.object(cli, "_parse_args",
                               lambda argv: cli.build_parser().parse_args(argv)):
            assert got == run_with(argv, net, out)
