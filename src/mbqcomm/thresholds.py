"""Closed-form error-threshold solvers and empirical sweep drivers.

The analytic values reproduce the noise thresholds of the protocols:
recurrence purification (universal), hashing, code-based correction and
dephasing repetition codes. Sweeps locate the same boundaries from
Monte-Carlo simulation and report both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .belldiag import shannon_entropy, werner
from .codes import CodeSpec
from .netsim import elementary_pair, repeater_stages
from .noise import PauliChannel
from .protocols import Depolarize, evaluate_stages, logical_error_rate, sample_stages

UNIVERSAL_EPP_THRESHOLD = 3.0 ** (-0.25)
SHOR_TYPE_P_TILDE = 0.7449  # imported constant for Shor-type codes


class ThresholdError(ValueError):
    """Raised for infeasible assumption sets or missing crossings."""


@dataclass
class ThresholdReport:
    """Analytic threshold value plus optional empirical confirmation."""

    name: str
    analytic: float
    assumptions: dict
    formula: str
    binding: str | None = None
    empirical: float | None = None
    empirical_interval: tuple[float, float] | None = None
    notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.analytic <= 1.0:
            raise ThresholdError("threshold must lie in [0, 1]")

    @property
    def noise_percent(self) -> float:
        return 100.0 * (1.0 - self.analytic)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "analytic": self.analytic,
            "noise_percent": self.noise_percent,
            "assumptions": self.assumptions,
            "formula": self.formula,
            "binding": self.binding,
            "empirical": self.empirical,
            "empirical_interval": self.empirical_interval,
            "notes": list(self.notes),
            "details": self.details,
        }


def universal_epp_threshold(assumption: str = "q=p",
                            q_value: float | None = None) -> ThresholdReport:
    """Solve q^2 p^2 > 1/3 and p^2 >= q^2 for the resource noise p.

    Under q = p both conditions reduce to p^4 > 1/3, the universal
    purification threshold; for fixed q the binding constraint is
    reported explicitly.
    """
    if assumption == "q=p":
        return ThresholdReport(
            name="universal-epp",
            analytic=UNIVERSAL_EPP_THRESHOLD,
            assumptions={"q": "p"},
            formula="p_min = 3^(-1/4) from q^2 p^2 > 1/3 with q = p",
            binding="input fidelity (q^2 p^2 > 1/3)",
        )
    if assumption == "q_fixed":
        if q_value is None:
            raise ThresholdError("q_fixed needs a value")
        if q_value <= 0:
            raise ThresholdError("infeasible: q^2 p^2 > 1/3 cannot hold at q = 0")
        fidelity_bound = 1.0 / (math.sqrt(3.0) * q_value)
        p_min = max(q_value, fidelity_bound)
        if p_min > 1.0:
            raise ThresholdError(
                f"infeasible assumption set: required p = {p_min:.4f} > 1"
            )
        binding = (
            "output vs input fidelity (p >= q)"
            if q_value >= fidelity_bound
            else "input fidelity (q^2 p^2 > 1/3)"
        )
        return ThresholdReport(
            name="universal-epp",
            analytic=p_min,
            assumptions={"q": q_value},
            formula="p_min = max(q, 1/(sqrt(3) q))",
            binding=binding,
        )
    raise ThresholdError(f"unknown assumption {assumption!r}")


def hashing_threshold() -> ThresholdReport:
    """Solve (3 q^2 p^2 + 1)/4 >= F_min with q = p.

    F_min is the Werner fidelity where the hashing yield 1 - S(werner(F))
    crosses zero, found by bisection on the unclamped yield.
    """
    f_min = _bisect(lambda f: 1.0 - shannon_entropy(werner(f)), 0.5, 1.0, tol=1e-12)
    p_min = ((4.0 * f_min - 1.0) / 3.0) ** 0.25
    return ThresholdReport(
        name="hashing",
        analytic=p_min,
        assumptions={"q": "p", "F_min": f_min},
        formula="p_min = ((4 F_min - 1)/3)^(1/4), 1 - S(werner(F_min)) = 0",
        binding="input fidelity reaches F_min",
    )


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            tol: float = 1e-7, max_iter: int = 200) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ThresholdError("no sign change in bisection bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def code_crossing(code: CodeSpec, lo: float = 0.5, hi: float = 0.9999) -> float:
    """Noise parameter where the logical error equals the physical one."""
    return _bisect(lambda p: logical_error_rate(code, p) - p, lo, hi, tol=1e-7)


def code_threshold(code: CodeSpec, regime: str = "q=p") -> ThresholdReport:
    """Resource-noise threshold of repeated measurement-based correction.

    Solves p_L(p~) = p~ and converts the per-step noise p~ = p^2 q to a
    resource threshold: p_crit = p~^(1/3) when q = p, p~^(1/2) when the
    storage noise is negligible (q ~ 1).
    """
    p_tilde = code_crossing(code)
    return _from_p_tilde(f"code-{code.name}", p_tilde, regime,
                         details={"crossing_formula": "p_L(p) = p"})


def _from_p_tilde(name: str, p_tilde: float, regime: str, details=None,
                  notes: tuple[str, ...] = ()) -> ThresholdReport:
    if regime == "q=p":
        p_crit = p_tilde ** (1.0 / 3.0)
        formula = "p_crit = p~^(1/3) (per step p~ = p^2 q with q = p)"
    elif regime in ("q=1", "q~1"):
        p_crit = math.sqrt(p_tilde)
        formula = "p_crit = p~^(1/2) (per step p~ = p^2, storage ideal)"
    else:
        raise ThresholdError(f"unknown regime {regime!r}")
    d = {"p_tilde": p_tilde}
    d.update(details or {})
    return ThresholdReport(
        name=name,
        analytic=p_crit,
        assumptions={"regime": regime},
        formula=formula,
        binding="logical error beats physical error",
        notes=notes,
        details=d,
    )


def shor_type_threshold(regime: str = "q=p") -> ThresholdReport:
    """Threshold chain for Shor-type codes from the imported constant.

    p~ = 0.7449 is taken as given (no Shor-code simulator here). Note:
    the q ~ 1 value is sqrt(p~) = 0.8631; quoting it as p_crit = p~
    would be inconsistent with the printed number, so the square root is
    used and the discrepancy recorded.
    """
    report = _from_p_tilde(
        "code-shor-type", SHOR_TYPE_P_TILDE, regime,
        details={"p_tilde_source": "imported constant"},
        notes=(
            "q~1 value follows p_crit = sqrt(p~); the alternative reading "
            "p_crit = p~ does not reproduce 0.8631",
        ),
    )
    return report


def dephasing_repetition_threshold(sizes=(3, 5, 7, 9)) -> ThresholdReport:
    """Asymptotic repetition-code threshold under pure dephasing: 1/2.

    Sweep mode: verifies that below the boundary the logical error is
    strictly decreasing in the code size, and increasing above it.
    """
    from .codes import repetition_code

    details = {}
    for eps, key in ((0.4, "below"), (0.6, "above")):
        errs = []
        for m in sizes:
            code = repetition_code(m)
            p_l = logical_error_rate(code, 1.0 - eps)
            errs.append(1.0 - p_l)
        details[key] = errs
    ok_below = all(a > b for a, b in zip(details["below"], details["below"][1:]))
    ok_above = all(a < b for a, b in zip(details["above"], details["above"][1:]))
    if not (ok_below and ok_above):
        raise ThresholdError("majority-vote monotonicity check failed")
    return ThresholdReport(
        name="dephasing-repetition",
        analytic=0.5,
        assumptions={"code": "repetition, asymptotic size"},
        formula="p_crit = 1/2 (any q > 0 correctable by large enough codes)",
        binding="logical flip probability at 1/2 stays 1/2 for all sizes",
        notes=("finite sizes verified monotone on both sides of the boundary",),
        details=details,
    )


# -- empirical sweeps ---------------------------------------------------------


@dataclass
class SweepResult:
    """Bracketed detector boundary plus the evaluated grid points."""

    boundary: float
    bracket: tuple[float, float]
    points: list  # (param, statistic, stat_err, detector_bool)
    detector: str

    def plot_rows(self) -> list[tuple[float, float, float]]:
        return [(p, s, e) for p, s, e, _flag in self.points]


def sweep(detector: Callable[[float], tuple[bool, float, float]],
          lo: float, hi: float, *, steps: int = 7, refine: int = 14,
          name: str = "detector") -> SweepResult:
    """Locate a monotone detector's boundary by grid scan + bisection.

    detector(p) returns (flag, statistic, stat_err). The flag must be
    False at lo and True at hi; a non-monotone grid response raises.
    """
    points = []
    grid = np.linspace(lo, hi, steps)
    flags = []
    for p in grid:
        flag, stat, err = detector(float(p))
        points.append((float(p), stat, err, flag))
        flags.append(flag)
    if flags[0] or not flags[-1]:
        raise ThresholdError(
            f"{name}: detector must be off at {lo} and on at {hi}"
        )
    flips = [k for k in range(len(flags) - 1) if flags[k] != flags[k + 1]]
    if len(flips) != 1:
        raise ThresholdError(f"{name}: non-monotone detector response {flags}")
    b_lo, b_hi = float(grid[flips[0]]), float(grid[flips[0] + 1])
    for _ in range(refine):
        mid = 0.5 * (b_lo + b_hi)
        flag, stat, err = detector(mid)
        points.append((mid, stat, err, flag))
        if flag:
            b_hi = mid
        else:
            b_lo = mid
    return SweepResult(
        boundary=0.5 * (b_lo + b_hi),
        bracket=(b_lo, b_hi),
        points=points,
        detector=name,
    )


def epp_regime_detector(samples: int, rng) -> Callable[[float], tuple[bool, float, float]]:
    """Monte-Carlo detector of a nonempty purification regime.

    Samples the in-coupling stage of the recurrence protocol under
    q = p: elementary pairs from the channel with the resource-input
    noise moved onto them (noise-moving lemma). The regime is nonempty
    iff this effective fidelity exceeds 1/2.
    """
    def detector(p: float) -> tuple[bool, float, float]:
        counts = sample_stages(elementary_pair(p), [Depolarize(p)], samples, rng)
        f_hat = counts["good"] / counts["kept"]
        err = math.sqrt(max(f_hat * (1 - f_hat), 1e-12) / samples)
        return f_hat > 0.5, f_hat, err

    return detector


def repeater_regime_detector(segments: int):
    """Exact detector: delivered fidelity of the nested scheme above 1/2.

    Under q = p, per level the station noise is moved onto the pairs
    and 25 merged recurrence rounds purify them; swapping joins the
    segments. The end stations' output noise is a fixed factor (p >= q
    holds with equality under q = p) and is left out.
    """
    levels = int(math.log2(segments))
    if 1 << levels != segments:
        raise ThresholdError("segments must be a power of two")

    def detector(p: float) -> tuple[bool, float, float]:
        stages = repeater_stages(Depolarize(p), 25, levels)
        fidelity = evaluate_stages(elementary_pair(p), stages)[0].fidelity
        return fidelity > 0.5, fidelity, 0.0

    return detector


def code_improvement_mc(code: CodeSpec, p: float, samples: int, rng,
                        regime: str = "q=p") -> tuple[bool, float, float]:
    """MC detector for code sweeps: does one perfect correction step
    reduce the error at the logical level?

    Samples i.i.d. single-qubit Paulis at the folded per-step strength
    p~ (= p^3 under q = p), applies the exact syndrome lookup and counts
    logical errors: the residual after correction is harmless iff it
    commutes with both logical operators.
    """
    from .pauli import PauliString

    p_tilde = p ** 3 if regime == "q=p" else p ** 2
    weights = PauliChannel.depolarizing(p_tilde).weights  # sigma order I,X,Y,Z
    n = code.n
    letters = rng.choice(4, size=(samples, n), p=weights)
    syn_bits = np.zeros((n, 4), dtype=np.int64)
    logx_bits = np.zeros((n, 4), dtype=np.int64)
    logz_bits = np.zeros((n, 4), dtype=np.int64)
    for q in range(n):
        for letter, name in enumerate("IXYZ"):
            op = PauliString.single(n, q, name)
            mask = 0
            for k, g in enumerate(code.stabilizers):
                if not op.commutes(g):
                    mask |= 1 << k
            syn_bits[q, letter] = mask
            logx_bits[q, letter] = 0 if op.commutes(code.logical_x) else 1
            logz_bits[q, letter] = 0 if op.commutes(code.logical_z) else 1
    syndrome = np.zeros(samples, dtype=np.int64)
    ex = np.zeros(samples, dtype=np.int64)
    ez = np.zeros(samples, dtype=np.int64)
    for q in range(n):
        syndrome ^= syn_bits[q, letters[:, q]]
        ex ^= logx_bits[q, letters[:, q]]
        ez ^= logz_bits[q, letters[:, q]]
    n_syn = 1 << len(code.stabilizers)
    corr_x = np.zeros(n_syn, dtype=np.int64)
    corr_z = np.zeros(n_syn, dtype=np.int64)
    for s in range(n_syn):
        bits = tuple((s >> k) & 1 for k in range(len(code.stabilizers)))
        est = code.correction_for(bits)
        corr_x[s] = 0 if est.commutes(code.logical_x) else 1
        corr_z[s] = 0 if est.commutes(code.logical_z) else 1
    clean = ((ex ^ corr_x[syndrome]) == 0) & ((ez ^ corr_z[syndrome]) == 0)
    p_no_hat = float(clean.mean())
    p_l_hat = (4.0 * p_no_hat - 1.0) / 3.0
    err = 4.0 / 3.0 * math.sqrt(max(p_no_hat * (1 - p_no_hat), 1e-12) / samples)
    return p_l_hat > p_tilde, p_l_hat, err
