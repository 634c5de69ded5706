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
follows the events, not the pulses.  A node's error flags over its m events
are a Binomial(m, q) count placed on a uniformly random subset of the events,
which is m independent Bernoulli(q) flags.  Per-block PCG64 streams keyed by
(seed, block_index) make a session bit-for-bit reproducible however the
pulse loop is chunked.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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
        for name in ("n_pulses", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n_pulses < 1:
            raise ValidationError(f"n_pulses must be >= 1, got {self.n_pulses!r}")
        if not 0.0 <= self.mu < math.inf:  # also false for NaN
            raise ValidationError(f"mu must be finite and >= 0, got {self.mu!r}")
        if len(self.arm_lengths) != 4:
            raise ValidationError("arm_lengths must hold four lengths (l_A, l_B, l_B', l_C)")
        if not all(0.0 <= l < math.inf for l in self.arm_lengths):
            raise ValidationError("arm lengths must be finite and >= 0")
        for name in ("y0", "dark_count_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValidationError(f"{name} must lie in [0, 1), got {p!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def equal_arms(cls, n_pulses: int, mu: float, total_km: float, **kwargs) -> "SessionConfig":
        """Config with the total fiber split evenly over the 4 arms."""
        if total_km < 0:
            raise ValidationError(f"total_km must be >= 0, got {total_km!r}")
        arm = total_km / 4.0
        return cls(n_pulses=n_pulses, mu=mu, arm_lengths=(arm, arm, arm, arm), **kwargs)


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


def _block_events(rng, cnt: int, laws):
    """Per node law (P(conclusive), P(error | conclusive)): event indices, Bob's bits, errors.

    The nodes are independent per pulse, so the block's events (pulses
    conclusive at either node) are Binomial(cnt, p_any) in number, with
    p_any = pa + pb (1 - pa), and each is independently AB only, both or BC
    only with probabilities proportional to pa (1 - pb), pa pb and (1 - pa) pb.
    One uniform per event picks its label from the intervals
    [AB only | both | BC only] of [0, 1), and one packed bit per event is
    Bob's.  A node's indices are its events' places in that merged stream:
    sorted, and shared by the two nodes exactly at the events conclusive at
    both.  A node's error flags are a Binomial(m, q) count of its m events,
    placed on a uniformly random subset of them: m Bernoulli(q) flags.
    """
    (pa, qa), (pb, qb) = laws
    p_any = pa + pb * (1.0 - pa)  # never above 1, and exactly 1 when pa or pb is
    n = int(rng.binomial(cnt, p_any))
    u = rng.random(n)
    bob = np.unpackbits(np.frombuffer(rng.bytes((n + 7) >> 3), dtype=np.uint8), count=n)
    # u in [0, ab_only) is AB only, [ab_only, ab) both and [ab, 1) BC only.
    ab, ab_only = (pa / p_any, pa * (1.0 - pb) / p_any) if p_any else (0.0, 0.0)
    events = []
    for idx, q in ((np.flatnonzero(u < ab), qa), (np.flatnonzero(u >= ab_only), qb)):
        m = len(idx)
        err = np.zeros(m, dtype=bool)
        err[rng.choice(m, rng.binomial(m, q), replace=False, shuffle=False)] = True
        events.append((idx, bob[idx], err))
    return events


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

    bobs, errs = ([], []), ([], [])
    n = config.n_pulses
    for bi in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        cnt = min(n - bi * BLOCK_SIZE, BLOCK_SIZE)
        for i, (_, bob, err) in enumerate(_block_events(_block_rng(config.seed, bi), cnt, laws)):
            bobs[i].append(bob)
            errs[i].append(err)
    bobs = [np.concatenate(parts) for parts in bobs]
    errs = [np.concatenate(parts) for parts in errs]
    ends = [bob ^ err for bob, err in zip(bobs, errs)]  # Alice's bits at AB, Charlie's at BC

    qbers = [np.count_nonzero(err) / len(err) if len(err) else 0.0 for err in errs]
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


def reconcile_pair(k_ab, k_bc):
    """Bridge announcement k_ab XOR k_bc after truncating to the shorter key.

    Returns (announcement, common_ab, common_bc).  Anyone holding one of
    the truncated keys recovers the other by XOR with the announcement.
    """
    a = _as_key_bits(k_ab)
    b = _as_key_bits(k_bc)
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    return a ^ b, a, b


def _as_key_bits(bits) -> np.ndarray:
    """bits as a 1-D uint8 array; other dtypes are compared, since a cast truncates 0.5."""
    arr = np.asarray(bits)
    if arr.dtype == np.uint8:
        valid = not arr.tobytes().translate(None, b"\0\1")  # what is left is not a bit
    else:
        ones = arr == 1
        valid = bool((ones | (arr == 0)).all())
        arr = ones.astype(np.uint8)
    if not valid or arr.ndim != 1:
        raise ValidationError("key bits must be a 1-D sequence of 0s and 1s")
    return arr


def _key_digest(bits: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(bits).tobytes()).hexdigest()


def session_result_to_dict(result: SessionResult) -> dict:
    """JSON-ready summary; key material is reported as length + SHA-256 digest."""
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
