"""Every selfcheck check returns a Python bool, and none of them is vacuous.

Acceptance criteria 1-5 and 7 are checks inside the program, so each is
shown to fail, naming the fault, when a result it checks is moved by more
than its tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from twinfield_qka import discrimination, keyrate, selfcheck, simulation


def test_every_check_returns_a_python_bool():
    assert [type(passed) for _, passed, _ in selfcheck.run_all()] == [bool] * 7


FAULTS = [  # check, module, function, fault applied to each of its results, what the detail says
    (selfcheck.check_discrimination_identities, discrimination, "qmin_pair_closed",
     lambda q: q + 1e-9, ["q_pair(0) = 0.500000001, want exactly 0.5", "max |form1 - form2|"]),
    (selfcheck.check_helstrom_value, discrimination, "helstrom_error",
     lambda q: q + 1e-9, ["max |q - exp(-4 mu)/2| = 1.00e-09 > 1e-10"]),
    (selfcheck.check_helstrom_value, discrimination, "discriminate",
     lambda r: replace(r, q_helstrom=r.q_closed_pair),
     ["does not hold the two direct values", "the two routes differ by 0 < 0.1"]),
    (selfcheck.check_povm_completeness, keyrate, "loss_povm",
     lambda povm: replace(povm, f_plus=povm.f_plus - 1e-9 * np.eye(4)),
     ["max |sum - I| = 1.00e-09 > 1e-10", "min eigenvalue = -1.00e-09 < -1e-10"]),
    (selfcheck.check_announcement_statistics, keyrate, "announcement_probability",
     lambda probs: {**probs, "?": probs["?"] + 1e-9},
     ["max |p(?) - closed form| = 1.00e-09", "max |sum - 1| = 1.00e-09"]),
    (selfcheck.check_entropy_closed_form, keyrate, "link_rate",
     lambda r: (r[0], r[1] + 1e-8, *r[2:]),
     ["max |holevo - chi| = 1.00e-08 > 1e-09", "fraction != max(0, 1 - chi) at 400 points"]),
    (selfcheck.check_noiseless_session, simulation, "run_session",
     lambda r: replace(r, qber_bc=0.01, conclusive_counts={"AB": r.conclusive_counts["AB"] + 2000}),
     ["5 sigma or more off 0.32968 at seeds [0, 1,", "nonzero qber at seeds [0, 1,"]),
]


@pytest.mark.parametrize("check, module, function, fault, named", FAULTS,
                         ids=[function for _, _, function, _, _ in FAULTS])
def test_check_fails_on_a_fault_beyond_its_tolerance(check, module, function, fault, named,
                                                      monkeypatch):
    fast = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args: fault(fast(*args)))
    _, passed, detail = check()
    assert passed is False and all(text in detail for text in named), detail
