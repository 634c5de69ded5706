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
So a session draws only the conclusive rounds, with Bob's bit and an error
flag each: the law of drawing every pulse and applying the click rule
above (the per-pulse oracle in `tests/test_simulation.py` checks this).
Both the conclusive rounds among the pulses and the errors among those
rounds are drawn as sparse successes of Bernoulli trials, with geometric
gaps by inversion of standard exponentials, so the cost follows the number
of successes, not of trials.  Per-block Philox streams keyed by
(seed, block_index) make a session bit-for-bit reproducible however the
pulse loop is chunked.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .keyrate import holevo_closed, transmittance_from_distance
from .linalg import binary_entropy

#: Pulses per random block.  Fixed: changing it changes every session stream.
BLOCK_SIZE = 1 << 20


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one simulated session exactly."""

    n_pulses: int
    mu_a: float = 0.2
    mu_b: float = 0.2
    mu_c: float = 0.2
    #: Fiber lengths (l_A, l_B, l_B', l_C) in km; node AB joins the first
    #: two arms, node BC the last two.
    arm_lengths: tuple = (0.0, 0.0, 0.0, 0.0)
    y0: float = 2.45e-6
    dark_count_prob: float = 1e-6
    repetition_rate: float = 1e9
    seed: int = 0
    ec_efficiency: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "arm_lengths", tuple(self.arm_lengths))
        if self.n_pulses < 1:
            raise ValidationError(f"n_pulses must be >= 1, got {self.n_pulses!r}")
        for name in ("mu_a", "mu_b", "mu_c", "ec_efficiency"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # also false for NaN
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
        if len(self.arm_lengths) != 4:
            raise ValidationError("arm_lengths must hold four lengths (l_A, l_B, l_B', l_C)")
        if not all(0.0 <= l < math.inf for l in self.arm_lengths):
            raise ValidationError("arm lengths must be finite and >= 0")
        for name in ("y0", "dark_count_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValidationError(f"{name} must lie in [0, 1), got {p!r}")
        if not 0.0 < self.repetition_rate < math.inf:
            raise ValidationError("repetition_rate must be finite and > 0")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")

    @classmethod
    def equal_arms(cls, n_pulses: int, mu: float, total_km: float, **kwargs) -> "SessionConfig":
        """Config with all sources at mu and the total fiber split evenly over 4 arms."""
        if total_km < 0:
            raise ValidationError(f"total_km must be >= 0, got {total_km!r}")
        arm = total_km / 4.0
        return cls(n_pulses=n_pulses, mu_a=mu, mu_b=mu, mu_c=mu,
                   arm_lengths=(arm, arm, arm, arm), **kwargs)


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
    return np.random.Generator(np.random.Philox(ss))


def _successes(rng, n: int, p: float) -> np.ndarray:
    """Sorted int64 indices of the successes among n Bernoulli(p) trials.

    The gaps between successes are geometric, drawn by inversion from
    standard exponentials E as floor(E / -log1p(-p)) + 1, in batches until
    one passes n.  Gaps are capped at n + 1, so the float64 running sums
    stay exact integers (below about 2^41 for BLOCK_SIZE trials).  Dividing
    (by inf when p == 1) rather than multiplying by the reciprocal keeps
    0 * inf = NaN out.
    """
    if p == 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    rate = -math.log1p(-p) if p < 1 else math.inf
    batches, last = [], -1.0
    while last < n:
        mean = (n - last) * p
        pos = rng.standard_exponential(int(mean + 5.0 * math.sqrt(mean) + 16))
        with np.errstate(over="ignore"):  # a tiny p overflows to inf, capped below
            pos /= rate
        np.floor(pos, out=pos)
        np.minimum(pos, n, out=pos)
        pos += 1.0
        pos[0] += last
        np.cumsum(pos, out=pos)
        batches.append(pos)
        last = pos[-1]
    pos = np.concatenate(batches) if len(batches) > 1 else batches[0]
    return pos[: np.searchsorted(pos, n)].astype(np.int64)


def _block_events(rng, cnt: int, laws):
    """Per node law (P(conclusive), P(error | conclusive)): positions, Bob's bits, errors.

    Positions are the successes among the block's cnt pulses and the error
    flags the successes among the node's events, both drawn sparsely by
    _successes; Bob's bits are one packed draw per block, shared by both nodes.
    """
    kb = np.frombuffer(rng.bytes((cnt + 7) >> 3), dtype=np.uint8)
    events = []
    for p, q in laws:
        pos = _successes(rng, cnt, p)
        bob = (kb[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        err = np.zeros(len(pos), dtype=bool)
        err[_successes(rng, len(pos), q)] = True
        events.append((pos, bob, err))
    return events


def run_session(config: SessionConfig) -> SessionResult:
    """Simulate a full session: sources, nodes, announcements, sifting, rates.

    The per-node arrival intensity is set by calibration: the party with
    the stronger arm attenuates down to its partner's arrival intensity
    (variable attenuators only remove light), so for link AB the common
    arrival is min(mu_a * t(l_A), mu_b * t(l_B)).

    Only conclusive rounds are drawn, block by block: Bob's sifted bit is
    his phase bit, the flipper's (Alice at AB, Charlie at BC) that bit XOR
    the round's error flag.

    The secret fraction applies the loss-only Holevo deduction evaluated
    at the session's effective per-link working point, plus an optional
    ec_efficiency * h(qber) error-correction leakage; the weaker link caps
    the group key.
    """
    t_a, t_b, t_bp, t_c = (transmittance_from_distance(l) for l in config.arm_lengths)
    p_bg = background_click_probability(config.y0, config.dark_count_prob)
    # Per node, AB then BC: common arrival intensity and link transmittance.
    nodes = (
        (min(config.mu_a * t_a, config.mu_b * t_b), t_a * t_b),
        (min(config.mu_b * t_bp, config.mu_c * t_c), t_bp * t_c),
    )
    laws = []
    for m, _ in nodes:
        p_sig = 1.0 - (1.0 - p_bg) * math.exp(-2.0 * m)
        p_conc = p_sig * (1.0 - p_bg) + p_bg * (1.0 - p_sig)
        laws.append((p_conc, p_bg * (1.0 - p_sig) / p_conc if p_conc > 0 else 0.0))

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
    for (m, eta), end, qber in zip(nodes, ends, qbers):
        sift = len(end) / n
        chi = holevo_closed(m / math.sqrt(eta), eta) if m > 0 else 0.0
        skr = sift * max(0.0, 1.0 - chi - config.ec_efficiency * binary_entropy(qber))
        links.append((skr, sift, chi))
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
        skr_bps=skr * config.repetition_rate,
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
    return (a ^ b).astype(np.uint8), a, b


def _as_key_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size and arr.max() > 1:
        raise ValidationError("key bits must be 0 or 1")
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
