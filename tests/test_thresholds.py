"""Tests for the threshold solvers and the regime detectors."""

import pytest

from mbqcomm.belldiag import shannon_entropy, werner
from mbqcomm.codes import ring5_code
from mbqcomm.thresholds import (
    UNIVERSAL_EPP_THRESHOLD,
    code_threshold,
    dephasing_repetition_threshold,
    epp_regime_detector,
    hashing_threshold,
    repeater_regime_detector,
    sweep,
)


def test_hashing_f_min_is_the_zero_of_the_unclamped_yield():
    report = hashing_threshold()
    f_min = report.assumptions["F_min"]
    assert abs(f_min - 0.810710) < 5e-7
    assert abs(1.0 - shannon_entropy(werner(f_min))) < 1e-9
    assert abs(report.analytic - 0.929864) < 5e-7


def test_repeater_detector_boundary_matches_universal_threshold():
    result = sweep(repeater_regime_detector(4), 0.72, 0.80, name="repeater")
    assert abs(result.boundary - UNIVERSAL_EPP_THRESHOLD) < 1e-3


def test_epp_detector_straddles_the_threshold():
    detector = epp_regime_detector()
    assert not detector(0.74)[0]
    assert detector(0.78)[0]


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
