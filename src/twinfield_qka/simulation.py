"""Monte Carlo simulation of the three-party protocol, drawn event by event.

The three parties draw independent phase bits and launch weak coherent
pulses toward the two measurement nodes.  Each node interferes its two
(calibrated, equal-intensity) inputs on a balanced beam splitter: with
ideal visibility the constructive port carries mean photon number 2*m and
the destructive port is dark, where m is the per-arm arrival intensity.
Threshold detectors click with probability

    p_click = 1 - (1 - p_bg) * exp(-m_port)

where p_bg folds the background yield and the dark-count probability into
a single per-gate probability (keeps p <= 1 for any input; at realistic
magnitudes it is indistinguishable from the additive form Y0 + 1 - e^-m).
Exactly one click maps to '+' or '-', zero or two clicks to '?'.

Whatever the phase bits, a node is conclusive with probability
p_conc = p_sig (1 - p_bg) + p_bg (1 - p_sig), and a conclusive round is an
error with probability p_bg (1 - p_sig) / p_conc, independent of Bob's bit.
The two nodes are independent per pulse.  The sifted keys never use pulse
positions: the AB key is Bob's bits at AB events, the BC key his bits at BC
events, and the two share a bit exactly where one pulse is conclusive at
both nodes.  So a session draws only the events (pulses conclusive at either
node), as one merged stream per block: their number, then per event a label
(AB only, both or BC only), Bob's bit and, per node, an error flag.  That is
the law of drawing every pulse and applying the click rule above (the
per-pulse oracle in `tests/test_simulation.py` checks this), at a cost that
follows the events, not the pulses.  A label costs about one random byte:
its uniform is read to 72 bits, but only an event whose first byte equals a
threshold's first base-256 digit draws the other 64.  A node's error flags
over its m events are a Binomial(m, q) count placed on a uniformly random
subset of the events, which is m independent Bernoulli(q) flags.  Per-block
PCG64 streams keyed by (seed, block_index) make a session bit-for-bit
reproducible however the pulse loop is chunked.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BELOW_ONE, COUNT, NON_NEGATIVE, SEED, ValidationError, check
from .keyrate import link_rate, transmittance_from_distance
from .linalg import binary_entropy

#: Pulses per random block.  Fixed: changing it changes every session stream.
BLOCK_SIZE = 1 << 20
#: Pulses per second, for the key rate in bits per second.
REPETITION_RATE = 1e9


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one simulated session exactly."""

    n_pulses: int
    #: Intensity of all three sources.
    mu: float = 0.2
    #: Fiber lengths (l_A, l_B, l_B', l_C) in km; node AB joins the first
    #: two arms, node BC the last two.
    arm_lengths: tuple = (0.0, 0.0, 0.0, 0.0)
    y0: float = 2.45e-6
    dark_count_prob: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "arm_lengths", tuple(self.arm_lengths))
        for name, domain in (("n_pulses", COUNT), ("mu", NON_NEGATIVE), ("y0", BELOW_ONE),
                             ("dark_count_prob", BELOW_ONE), ("seed", SEED)):
            check(name, getattr(self, name), domain)
        if len(self.arm_lengths) != 4:
            raise ValidationError("arm_lengths must hold four lengths (l_A, l_B, l_B', l_C)")
        for length in self.arm_lengths:
            check("arm lengths", length, NON_NEGATIVE)


@dataclass(frozen=True)
class SessionResult:
    """Sifted material and rate figures for one session."""

    sifted_ab: tuple  # (alice_bits, bob_bits)
    sifted_bc: tuple  # (bob_bits, charlie_bits)
    conclusive_counts: dict  # {"AB": int, "BC": int}
    qber_ab: float
    qber_bc: float
    sifted_rate: float  # conclusive fraction of the bottleneck link
    chi: float  # Holevo deduction applied to the bottleneck link
    skr_per_pulse: float
    skr_bps: float


def background_click_probability(y0: float, dark_count_prob: float) -> float:
    """Single per-gate background probability folding stray light and darks."""
    return 1.0 - (1.0 - y0) * (1.0 - dark_count_prob)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _raw_bytes(rng, n: int) -> np.ndarray:
    """n uniform random bytes: the little-endian bytes of whole 64-bit PCG64 outputs."""
    return rng.bit_generator.random_raw((n + 7) >> 3).astype("<u8", copy=False).view(np.uint8)[:n]


def _digits(t: float):
    """floor(2^72 t) for t in [0, 1], as (head, tail): t's first base-256 digit, then 64 bits.

    Exact (t * 2^72 only shifts t's exponent); head is 256 for t = 1.
    """
    x = int(math.ldexp(t, 72))
    return x >> 64, x & (2**64 - 1)


def _below(rng, first: np.ndarray, thresholds) -> list:
    """Per threshold t, the mask [U < t] over uniforms U whose first random bytes are `first`.

    U is read to 72 bits: a U whose first byte equals some t's head draws
    64 more bits, once for all thresholds, and is below t when they are
    below t's tail.  So [U < t] holds with probability floor(2^72 t) / 2^72,
    within 2^-72 of t, from about one byte per U.
    """
    cuts = [_digits(t) for t in thresholds]
    tied = np.zeros(len(first), dtype=bool)
    for head, _ in cuts:
        tied |= first == head
    tied = np.flatnonzero(tied)
    first_tied, rest = first[tied], rng.bit_generator.random_raw(len(tied))
    masks = []
    for head, tail in cuts:
        below = first < head
        below[tied] |= (first_tied == head) & (rest < tail)
        masks.append(below)
    return masks


#: The number of set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
#: Per bit position k of a byte, the mask of the bits below it.
_BELOW_BIT = np.array([(1 << k) - 1 for k in range(8)], dtype=np.uint8)


def _block_events(rng, cnt: int, laws):
    """Per node law (P(conclusive), P(error | conclusive)): event marks, Bob's bits, errors.

    The nodes are independent per pulse, so the block's events (pulses
    conclusive at either node) are Binomial(cnt, p_any) in number, with
    p_any = pa + pb (1 - pa), and each is independently AB only, both or BC
    only with probabilities proportional to pa (1 - pb), pa pb and (1 - pa) pb.
    One uniform U per event picks its label from the intervals
    [AB only | both | BC only] of [0, 1), read about a byte at a time
    (`_below`).  Every event carries one uniform bit, Bob's, in the key of
    each node where it is conclusive.  So each node draws one fresh bit per
    event of its own, and at the events of both the AB bit is copied into
    the BC key.  A node's error flags are a Binomial(m, q) count of its m
    events, placed on a uniformly random subset of them: m Bernoulli(q)
    flags.

    Returns [(at, bits, errors) for AB, BC]: `at` marks the node's events in
    the block's merged stream of events.
    """
    (pa, _), (pb, _) = laws
    p_any = pa + pb * (1.0 - pa)  # never above 1, and exactly 1 when pa or pb is
    n = int(rng.binomial(cnt, p_any))
    # U in [0, ab_only) is AB only, [ab_only, ab) both and [ab, 1) BC only.
    ab, ab_only = (pa / p_any, pa * (1.0 - pb) / p_any) if p_any else (0.0, 0.0)
    ab_only_mask, at_ab = _below(rng, _raw_bytes(rng, n), (ab_only, ab))
    at_bc = ~ab_only_mask
    shared = np.flatnonzero(at_ab & at_bc)
    keys = [np.unpackbits(_raw_bytes(rng, (m + 7) >> 3), count=m)
            for m in (np.count_nonzero(at_ab), np.count_nonzero(at_bc))]
    if len(shared):
        # The j-th shared event, at index s_j after A_j AB-only events, is
        # bit j + A_j of the AB key and bit s_j - A_j of the BC key.  A_j is
        # the AB-only events in the whole bytes of the packed mask before s_j's
        # byte, plus those in that byte's bits below s_j.
        packed = np.packbits(ab_only_mask, bitorder="little")
        before_byte = np.zeros(len(packed) + 1, dtype=np.int32)
        np.cumsum(_POPCOUNT[packed], dtype=np.int32, out=before_byte[1:])
        byte, bit = shared >> 3, shared & 7
        a_before = before_byte[byte] + _POPCOUNT[packed[byte] & _BELOW_BIT[bit]]
        keys[1][shared - a_before] = keys[0][np.arange(len(shared)) + a_before]
    events = []
    for at, key, (_, q) in zip((at_ab, at_bc), keys, laws):
        m = len(key)
        err = np.zeros(m, dtype=bool)
        err[rng.choice(m, rng.binomial(m, q), replace=False, shuffle=False)] = True
        events.append((at, key, err))
    return events


def _joined(parts) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def run_session(config: SessionConfig) -> SessionResult:
    """Simulate a full session: sources, nodes, announcements, sifting, rates.

    The per-node arrival intensity is set by calibration: the party with
    the stronger arm attenuates down to its partner's arrival intensity
    (variable attenuators only remove light), so for link AB the common
    arrival is min(mu * t(l_A), mu * t(l_B)).

    Only conclusive rounds are drawn, block by block: Bob's sifted bit is
    his phase bit, the flipper's (Alice at AB, Charlie at BC) that bit XOR
    the round's error flag.

    A node's rate is its sift times link_rate's secret fraction at the
    calibrated source intensity mu * t(|l1 - l2| / 2), with the measured
    errors charged as leakage h(qber), the Shannon limit; the weaker node
    caps the group key.
    """
    p_bg = background_click_probability(config.y0, config.dark_count_prob)
    # Per node, AB then BC: the detector law at the common arrival intensity m,
    # and the link transmittance and calibrated source intensity for the rate.
    laws, working_points = [], []
    for l1, l2 in (config.arm_lengths[:2], config.arm_lengths[2:]):
        t1, t2 = transmittance_from_distance(l1), transmittance_from_distance(l2)
        m = config.mu * min(t1, t2)
        p_sig = 1.0 - (1.0 - p_bg) * math.exp(-2.0 * m)
        p_conc = p_sig * (1.0 - p_bg) + p_bg * (1.0 - p_sig)
        laws.append((p_conc, p_bg * (1.0 - p_sig) / p_conc if p_conc > 0 else 0.0))
        working_points.append((t1 * t2, config.mu * transmittance_from_distance(abs(l1 - l2) / 2.0)))

    bobs, ends, errors = ([], []), ([], []), [0, 0]
    n = config.n_pulses
    for bi in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        cnt = min(n - bi * BLOCK_SIZE, BLOCK_SIZE)
        for i, (_, bob, err) in enumerate(_block_events(_block_rng(config.seed, bi), cnt, laws)):
            bobs[i].append(bob)
            ends[i].append(bob ^ err)  # Alice's bits at AB, Charlie's at BC
            errors[i] += np.count_nonzero(err)
    bobs, ends = [_joined(parts) for parts in bobs], [_joined(parts) for parts in ends]

    qbers = [e / len(end) if len(end) else 0.0 for e, end in zip(errors, ends)]
    links = []
    for (eta, mu_eff), end, qber in zip(working_points, ends, qbers):
        sift = len(end) / n
        _, chi, fraction, _ = link_rate(mu_eff, eta, binary_entropy(qber))
        links.append((sift * fraction, sift, chi))
    skr, sifted_rate, chi = min(links, key=lambda link: link[0])

    return SessionResult(
        sifted_ab=(ends[0], bobs[0]),
        sifted_bc=(bobs[1], ends[1]),
        conclusive_counts={"AB": len(ends[0]), "BC": len(ends[1])},
        qber_ab=qbers[0],
        qber_bc=qbers[1],
        sifted_rate=sifted_rate,
        chi=chi,
        skr_per_pulse=skr,
        skr_bps=skr * REPETITION_RATE,
    )


def _key_digest(bits: np.ndarray) -> str:
    """SHA-256 of the key's bits packed 8 to a byte, the first bit most significant.

    The last byte is padded with zero bits, so the digest names the key only
    together with its length.
    """
    return hashlib.sha256(np.packbits(bits)).hexdigest()


def session_result_to_dict(result: SessionResult) -> dict:
    """JSON-ready summary: counts, error rates and rates, and each sifted key as a digest.

    A key is reported by its length (key_lengths) and the SHA-256 of its
    packed bits (`_key_digest`), never bit by bit.
    """
    alice, bob_ab = result.sifted_ab
    bob_bc, charlie = result.sifted_bc
    return {
        "conclusive_counts": dict(result.conclusive_counts),
        "qber_ab": result.qber_ab,
        "qber_bc": result.qber_bc,
        "sifted_rate": result.sifted_rate,
        "chi": result.chi,
        "skr_per_pulse": result.skr_per_pulse,
        "skr_bps": result.skr_bps,
        "key_digests": {
            "alice_ab": _key_digest(alice),
            "bob_ab": _key_digest(bob_ab),
            "bob_bc": _key_digest(bob_bc),
            "charlie_bc": _key_digest(charlie),
        },
        "key_lengths": {"ab": len(alice), "bc": len(charlie)},
    }


def format_session_result(result: SessionResult) -> str:
    """Aligned human-readable summary table."""
    counts = result.conclusive_counts
    rows = [
        ("conclusive AB / BC", f"{counts['AB']} / {counts['BC']}"),
        ("qber AB / BC", f"{result.qber_ab:.6g} / {result.qber_bc:.6g}"),
        ("sifted rate (bottleneck)", f"{result.sifted_rate:.6g}"),
        ("holevo deduction chi", f"{result.chi:.6g}"),
        ("secret key rate /pulse", f"{result.skr_per_pulse:.6g}"),
        ("secret key rate bps", f"{result.skr_bps:.6g}"),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)
