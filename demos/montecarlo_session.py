"""One simulated session, drawn event by event, compared against the analytic rate.

Three parties fire 2 million pulses at two measurement nodes over 100 km of
total fiber with realistic detector backgrounds.  The script prints the
session summary, reconciles the two pairwise keys into one group key via
Bob's public XOR announcement, and checks the Monte Carlo secret key rate
against the asymptotic formula at the same working point.

Everything is reproducible: rerunning with the same seed gives the same
keys, bit for bit.

Run:  python3 demos/montecarlo_session.py
"""

import numpy as np

from twinfield_qka import (
    SessionConfig,
    run_session,
    symmetric_rate,
    transmittance_from_distance,
)
from twinfield_qka.simulation import format_session_result

config = SessionConfig(
    n_pulses=2_000_000,
    mu=0.2,
    arm_lengths=(100.0 / 4,) * 4,  # 100 km of fiber split evenly over the four arms
    seed=2024,
)
result = run_session(config)

print("session summary")
print("---------------")
print(format_session_result(result))

alice, bob_ab = result.sifted_ab
bob_bc, charlie = result.sifted_bc
n = min(len(bob_ab), len(bob_bc))
k_ab, k_bc = bob_ab[:n], bob_bc[:n]
announcement = k_ab ^ k_bc  # Bob's public bridge: one XOR announcement over the shorter key

# Alice holds k_AB, Charlie holds k_BC; the public XOR lets each recover
# the other pair's key without revealing either.  With real detector
# backgrounds a few sifted bits are wrong, and exactly those bits show up
# as a mismatch here: the residual equals the measured qber, nothing is
# silently lost (an error-correction pass would clean it up).
alice_view_of_bc = announcement ^ alice[:n]
charlie_view_of_ab = announcement ^ charlie[:n]
residual_alice = float(np.mean(alice_view_of_bc != k_bc))
residual_charlie = float(np.mean(charlie_view_of_ab != k_ab))

print("\nreconciliation")
print("--------------")
print(f"group key length               {n}")
print(f"alice's residual vs k_BC       {residual_alice:.3e}  (qber_ab {result.qber_ab:.3e})")
print(f"charlie's residual vs k_AB     {residual_charlie:.3e}  (qber_bc {result.qber_bc:.3e})")
print(f"first 32 group-key bits        {''.join(map(str, k_ab[:32]))}")

eta_link = transmittance_from_distance(50.0)  # each link spans half the total
analytic = symmetric_rate(0.2, eta_link)
print("\nmonte carlo vs analytic")
print("-----------------------")
print(f"simulated skr/pulse   {result.skr_per_pulse:.6e}")
print(f"asymptotic  /pulse    {analytic:.6e}")
print(f"relative gap          {abs(result.skr_per_pulse - analytic) / analytic:.2%}")
