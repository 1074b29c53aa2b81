"""Error-threshold solvers.

The values reproduce the noise thresholds of the protocols: recurrence
purification (universal), hashing, code-based correction, dephasing
repetition codes and the nested repeater. Every code number comes from
the code's one exact logical channel (`CodeSpec.logical_channel`). A
value without a closed form is the bisected zero of an exact margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from .belldiag import shannon_entropy, werner
from .codes import CodeSpec, repetition_code
from .netsim import elementary_pair, repeater_levels, repeater_stages
from .protocols import Depolarize, evaluate_stages

UNIVERSAL_EPP_THRESHOLD = 3.0 ** (-0.25)
SHOR_TYPE_P_TILDE = 0.7449  # imported constant for Shor-type codes
REPEATER_ROUNDS = 25  # merged recurrence rounds per repeater level


class ThresholdError(ValueError):
    """Raised for infeasible assumption sets or missing crossings."""


@dataclass
class ThresholdReport:
    """Analytic threshold value with its assumptions and formula."""

    name: str
    analytic: float
    assumptions: dict
    formula: str
    binding: str | None = None
    notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.analytic <= 1.0:
            raise ThresholdError("threshold must lie in [0, 1]")

    @property
    def noise_percent(self) -> float:
        return 100.0 * (1.0 - self.analytic)

    def to_dict(self) -> dict:
        return {**asdict(self), "noise_percent": self.noise_percent}


def universal_epp_threshold(q: float | None = None) -> ThresholdReport:
    """Solve q^2 p^2 > 1/3 and p^2 >= q^2 for the resource noise p.

    Under q = p (`q` None) both conditions reduce to p^4 > 1/3, the
    universal purification threshold; for a fixed q the binding
    constraint is reported explicitly.
    """
    if q is None:
        return ThresholdReport(
            name="universal-epp",
            analytic=UNIVERSAL_EPP_THRESHOLD,
            assumptions={"q": "p"},
            formula="p_min = 3^(-1/4) from q^2 p^2 > 1/3 with q = p",
            binding="input fidelity (q^2 p^2 > 1/3)",
        )
    if q <= 0:
        raise ThresholdError("infeasible: q^2 p^2 > 1/3 cannot hold at q = 0")
    fidelity_bound = 1.0 / (math.sqrt(3.0) * q)
    p_min = max(q, fidelity_bound)
    if p_min > 1.0:
        raise ThresholdError(f"infeasible assumption set: required p = {p_min:.4f} > 1")
    return ThresholdReport(
        name="universal-epp",
        analytic=p_min,
        assumptions={"q": q},
        formula="p_min = max(q, 1/(sqrt(3) q))",
        binding=("output vs input fidelity (p >= q)" if q >= fidelity_bound
                 else "input fidelity (q^2 p^2 > 1/3)"),
    )


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


def code_crossing(code: CodeSpec, max_weight: int | None = None) -> float:
    """Per-step noise p~ at which one correction step's logical
    depolarizing parameter equals the physical one; with `max_weight`
    for the bound that counts only errors up to that weight."""
    try:
        return _bisect(lambda p: code.logical_noise(p, max_weight) - p, 0.5, 0.9999,
                       tol=1e-7)
    except ThresholdError:
        raise ThresholdError(f"code {code.name} never beats the physical error: "
                             "p_L(p~) = p~ has no crossing for p~ in [0.5, 0.9999]"
                             ) from None


def code_threshold(code: CodeSpec, regime: str = "q=p") -> ThresholdReport:
    """Resource-noise threshold of repeated measurement-based correction.

    Solves p_L(p~) = p~ for the paper's bound, which corrects only errors
    of weight up to `correctable_weight`, and converts the per-step noise
    p~ = p^2 q to a resource threshold: p_crit = p~^(1/3) when q = p,
    p~^(1/2) when the storage noise is negligible (q ~ 1). The crossing
    of the exact logical channel is reported beside it.
    """
    bound = code_crossing(code, code.correctable_weight)
    exact = code_crossing(code)
    return _from_p_tilde(f"code-{code.name}", bound, regime, details={
        "crossing_formula": "p_L(p) = p",
        "exact_p_tilde": exact,
        "exact_p_crit": _p_crit(exact, regime)[0],
    })


def _p_crit(p_tilde: float, regime: str) -> tuple[float, str]:
    """Resource threshold of a per-step crossing p~, and its formula."""
    if regime == "q=p":
        return p_tilde ** (1.0 / 3.0), "p_crit = p~^(1/3) (per step p~ = p^2 q with q = p)"
    if regime == "q=1":
        return math.sqrt(p_tilde), "p_crit = p~^(1/2) (per step p~ = p^2, storage ideal)"
    raise ThresholdError(f"unknown regime {regime!r}")


def _from_p_tilde(name: str, p_tilde: float, regime: str, details=None,
                  notes: tuple[str, ...] = ()) -> ThresholdReport:
    p_crit, formula = _p_crit(p_tilde, regime)
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


def dephasing_repetition_threshold() -> ThresholdReport:
    """Asymptotic repetition-code threshold under pure dephasing: 1/2.

    Verifies that below the boundary the logical flip probability,
    under bit flips with probability eps on every qubit, is strictly
    decreasing in the code size (3, 5, 7, 9), and increasing above it.
    """
    details = {
        key: [1.0 - repetition_code(m).logical_channel((1.0 - eps, 0.0, eps, 0.0))[0]
              for m in (3, 5, 7, 9)]
        for eps, key in ((0.4, "below"), (0.6, "above"))
    }
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


def repeater_threshold(segments: int) -> ThresholdReport:
    """Resource noise at which the nested repeater over `segments`
    segments delivers fidelity 1/2.

    Under q = p, per level the station noise is moved onto the pairs
    and `REPEATER_ROUNDS` merged recurrence rounds purify them; swapping
    joins the segments. The end stations' output noise is a fixed factor
    (p >= q holds with equality under q = p) and is left out.
    """
    levels = repeater_levels(segments)

    def margin(p: float) -> float:
        stages = repeater_stages(Depolarize(p), REPEATER_ROUNDS, levels)
        return evaluate_stages(elementary_pair(p), stages)[0].fidelity - 0.5

    return ThresholdReport(
        name="repeater",
        analytic=_bisect(margin, 0.5, 1.0, tol=1e-7),
        assumptions={"q": "p", "segments": segments, "rounds": REPEATER_ROUNDS},
        formula="F(p_min) = 1/2, F the exact delivered fidelity of the nested scheme",
        binding="delivered fidelity reaches 1/2",
    )
