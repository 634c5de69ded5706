"""How hard is it for a node operator to tell correlated from anti-correlated pulses?

An eavesdropper sitting at a measurement node has to distinguish the equal
mixture of (+,+)/(-,-) sign pairs from the equal mixture of (+,-)/(-,+).
This script sweeps the pulse intensity and compares two routes to her
minimum error probability:

* the numeric trace-norm bound evaluated on the explicitly constructed
  4x4 mixtures (comes out as exp(-4 mu)/2): the minimum error for the
  states as built, and
* the analytic closed form (3 + exp(-4 mu))/8 published for this protocol
  family: the same Helstrom formula on the mixtures taken at trace 1/2,
  with one 2x2 block made equal between them.

Each route's two-node (three-party) version composes it with itself,
compose_error(q, q).  The two routes do NOT agree; the package keeps both
visible, and so does this plot.

Run:  python3 demos/discrimination_bounds.py
"""

import numpy as np

from twinfield_qka import compose_error, discriminate

mus = np.linspace(0.0, 1.5, 151)
results = [discriminate(mu) for mu in mus]
closed_triple = [compose_error(r.q_closed_pair, r.q_closed_pair) for r in results]

print(f"{'mu':>6} {'trace-norm':>12} {'closed pair':>12} {'closed triple':>14}")
for mu in (0.0, 0.1, 0.2, 0.5, 1.0, 1.5):
    r = discriminate(mu)
    triple = compose_error(r.q_closed_pair, r.q_closed_pair)
    print(f"{mu:6.2f} {r.q_helstrom:12.6f} {r.q_closed_pair:12.6f} {triple:14.6f}")

# For every intensity the three-party protocol forces more announcement
# errors on the node operator than a single two-party link.
assert all(t > r.q_closed_pair for r, t in zip(results, closed_triple) if r.mu > 0)
print("\nthree-party error stays above the two-party error for every mu > 0")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(mus, [r.q_helstrom for r in results], label="trace-norm bound, one node")
    ax.plot(mus, [r.q_closed_pair for r in results], "--", label="closed form, one node")
    ax.plot(mus, closed_triple, "-.", label="closed form, two nodes")
    ax.plot(
        mus,
        [compose_error(r.q_helstrom, r.q_helstrom) for r in results],
        ":",
        label="trace-norm bound, two nodes",
    )
    ax.set_xlabel("mean photon number $\\mu$")
    ax.set_ylabel("minimum discrimination error")
    ax.set_ylim(0, 1)
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("discrimination_bounds.png", dpi=150)
    print("wrote discrimination_bounds.png")
