"""Tests for the threshold solvers."""

import pytest

from mbqcomm.belldiag import shannon_entropy, werner
from mbqcomm.codes import ring5_code
from mbqcomm.netsim import elementary_pair
from mbqcomm.protocols import Depolarize, evaluate_stages
from mbqcomm.thresholds import (
    UNIVERSAL_EPP_THRESHOLD,
    code_threshold,
    dephasing_repetition_threshold,
    hashing_threshold,
    repeater_threshold,
)


def test_hashing_f_min_is_the_zero_of_the_unclamped_yield():
    report = hashing_threshold()
    f_min = report.assumptions["F_min"]
    assert abs(f_min - 0.810710) < 5e-7
    assert abs(1.0 - shannon_entropy(werner(f_min))) < 1e-9
    assert abs(report.analytic - 0.929864) < 5e-7


def test_repeater_detector_boundary_matches_universal_threshold():
    report = repeater_threshold(4)
    assert abs(report.analytic - UNIVERSAL_EPP_THRESHOLD) < 1e-3


def in_coupled_fidelity(p: float) -> float:
    """Fidelity of an elementary pair with the station's resource-input
    noise moved onto it, under q = p."""
    return evaluate_stages(elementary_pair(p), [Depolarize(p)])[0].fidelity


def test_in_coupled_fidelity_is_the_universal_closed_form():
    for p in (k / 20 for k in range(21)):
        assert abs(in_coupled_fidelity(p) - (3.0 * p ** 4 + 1.0) / 4.0) < 1e-12


def test_in_coupled_fidelity_is_one_half_at_the_universal_threshold():
    assert abs(in_coupled_fidelity(UNIVERSAL_EPP_THRESHOLD) - 0.5) < 1e-12


# the paper's ring-5 bound p_no^5 + 5 p_no^4 p_yes, as reported before one
# logical channel served every code
@pytest.mark.parametrize("regime,p_crit", [
    ("q=p", 0.9379528247535346), ("q=1", 0.9083882197000409),
])
def test_ring5_code_threshold_frozen(regime, p_crit):
    report = code_threshold(ring5_code(), regime)
    assert abs(report.analytic - p_crit) < 1e-12
    assert abs(report.details["p_tilde"] - 0.8251691576898097) < 1e-12


def test_dephasing_repetition_details_frozen():
    details = dephasing_repetition_threshold().details
    frozen = {
        "below": [0.3520000000000001, 0.31744000000000017, 0.28979200000000005,
                  0.2665676800000001],
        "above": [0.648, 0.68256, 0.7102080000000001, 0.7334323199999999],
    }
    assert set(details) >= set(frozen)
    for key, values in frozen.items():
        assert len(details[key]) == len(values)
        assert all(abs(a - b) < 1e-12 for a, b in zip(details[key], values))
