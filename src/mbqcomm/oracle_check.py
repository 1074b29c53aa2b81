"""Self-verification: regenerate golden maps and re-run the exactness
checks that tie the stabilizer engine, the dense oracle and the
analytic maps together. Used by the `oracle-check` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import belldiag, dense
from .catalog import (
    code_by_name,
    code_decode_syndrome,
    code_encode,
    epp_recurrence,
    repeater_station,
)
from .noise import PauliChannel, move_noise_across_bell
from .pauli import random_clifford
from .resources import LabeledRegister, cj_state, merge, teleport_in
from .tableau import BellOutcome, StabilizerState


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class OracleReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            out.append(f"[{mark}] {c.name}: {c.detail}")
        return out


def _check_golden_maps() -> CheckResult:
    packaged = belldiag.load_golden_maps(refresh=True)
    fresh = belldiag.generate_golden_maps()
    dev = max(
        float(np.max(np.abs(packaged[name] - fresh[name]))) for name in fresh
    )
    return CheckResult(
        "golden-maps", dev < 1e-12,
        f"max deviation packaged vs regenerated = {dev:.2e}",
    )


def _check_stabilizer_vs_dense(seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    specs = [
        epp_recurrence(1),
        code_encode(code_by_name("repetition3")),
        code_encode(code_by_name("ring5")),
        code_decode_syndrome(code_by_name("repetition3")),
        repeater_station(1),
    ]
    worst = 0.0
    for spec in specs:
        state = spec.state.copy()
        v = state.to_dense()
        for g in state.stabs:
            dev = float(np.max(np.abs(dense.apply_pauli_vec(g, v) - v)))
            worst = max(worst, dev)
        # one random measurement branch per resource
        from .pauli import random_pauli

        p = random_pauli(state.n, rng, allow_identity=False)
        p = p if p.sign == 1 else p.negate()
        branches = dense.measure_pauli_vec(v, p)
        if state.outcome_is_random(p):
            for prob, outcome, ref in branches:
                worst = max(worst, abs(prob - 0.5))
                test = state.copy()
                test.measure(p, force=outcome)
                got = test.to_dense()
                if not dense.states_equal_up_to_phase(got, ref, 1e-10):
                    worst = max(worst, 1.0)
        else:
            prob, outcome, _ref = branches[0]
            test = state.copy()
            worst = max(worst, abs(prob - 1.0))
            if test.measure(p) != outcome:
                worst = max(worst, 1.0)
    return CheckResult(
        "stabilizer-vs-dense", worst < 1e-10,
        f"catalog resources, worst deviation = {worst:.2e}",
    )


def _check_noise_moving(seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        s = StabilizerState.zero_state(3)
        s.apply_clifford(random_clifford(3, rng))
        rho = dense.DensityMatrix.from_vec(s.to_dense())
        report = move_noise_across_bell(
            PauliChannel.depolarizing(float(rng.uniform(0.2, 1.0))), rho, 0, 2
        )
        worst = max(worst, report.max_deviation)
        if not report.holds:
            worst = max(worst, 1.0)
    return CheckResult(
        "noise-moving-lemma", worst < 1e-12,
        f"10 random states, worst deviation = {worst:.2e}",
    )


def _check_channel_identity(seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(5):
        c = random_clifford(2, rng)
        spec = cj_state(c, "rc")
        base = StabilizerState.zero_state(2)
        base.apply_clifford(random_clifford(2, rng))
        for i in range(4):
            for j in range(4):
                host = LabeledRegister.from_state(base.copy(), ["a", "b"])
                teleport_in(
                    spec, host, {"in0": "a", "in1": "b"},
                    forced=[BellOutcome.from_index(i), BellOutcome.from_index(j)],
                    apply_frame=True,
                )
                v = host.to_dense()
                for g in base.stabs:
                    img = c.conjugate(g)
                    if not np.allclose(dense.apply_pauli_vec(img, v), v, atol=1e-9):
                        failures += 1
    return CheckResult(
        "cj-channel-identity", failures == 0,
        f"{failures} failing outcome branches over 5 random Cliffords",
    )


def _check_merge_identity() -> CheckResult:
    code = code_by_name("repetition3")
    enc = code_encode(code)
    dec = code_decode_syndrome(code)
    chain = merge(enc, dec, [(f"b{k}", f"b{k}") for k in range(code.n)])
    ok = chain.state.same_state(StabilizerState.bell_pair())
    return CheckResult(
        "merge-encode-decode", ok,
        "merged encode+decode equals the identity resource" if ok
        else "merged state is not a Bell pair",
    )


def _check_seed_invariance() -> CheckResult:
    from .belldiag import recurrence_step, werner

    a1 = recurrence_step(werner(0.77), werner(0.77), "DEJMPS")
    a2 = recurrence_step(werner(0.77), werner(0.77), "DEJMPS")
    same = a1[0].coeffs == a2[0].coeffs and a1[1] == a2[1]
    return CheckResult(
        "exact-mode-determinism", same,
        "analytic maps are seed-independent" if same else "analytic drift",
    )


_CHECKS = {
    "golden": _check_golden_maps,
    "stab-vs-dense": _check_stabilizer_vs_dense,
    "noise-moving": _check_noise_moving,
    "channel-identity": _check_channel_identity,
    "merge-identity": _check_merge_identity,
    "determinism": _check_seed_invariance,
}


def oracle_check(scope: str = "all") -> OracleReport:
    if scope == "all":
        names = list(_CHECKS)
    elif scope in _CHECKS:
        names = [scope]
    else:
        raise ValueError(f"unknown oracle-check scope {scope!r}")
    return OracleReport([_CHECKS[n]() for n in names])
