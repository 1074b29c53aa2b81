"""Tests for the threshold solvers and the regime detectors."""

from mbqcomm.belldiag import shannon_entropy, werner
from mbqcomm.rng import make_rng
from mbqcomm.thresholds import (
    UNIVERSAL_EPP_THRESHOLD,
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
    detector = epp_regime_detector(20_000, make_rng(1))
    assert not detector(0.74)[0]
    assert detector(0.78)[0]
