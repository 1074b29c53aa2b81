"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py

For each workload, at one seed and a small sample count, runs one
untraced and two traced children and checks that:

- all three print byte-identical records, so the wrappers consume no
  random numbers and change no result;
- the two traced children report identical call counts;
- calls reached only through aliases are traced: `cli` calls
  `qec_encode` imported from `protocols`, `protocols` calls
  `teleport_in` imported from `resources`, the tableau multiplies Pauli
  strings with `*` (`pauli.mul`);
- qec-ring5 makes 3 outermost catalog builds per shot, and the
  index-sampling workloads call no `tableau.*`, `gf2.*` or `catalog.*`
  function.

Exits 0 when every check passes.
"""

from __future__ import annotations

import sys

import run
import workloads as wl

SEED = 12345
SAMPLES = {"qec-ring5": 4, "purify-stab": 8, "purify-mc": 20_000, "repeater-mc": 1 << 14}


def check(w: wl.Workload, env: dict) -> list[str]:
    samples = SAMPLES[w.name]
    argv = [*w.argv, "--samples", str(samples), "--seed", str(SEED)]
    plain = run.run_child(argv, False, env)
    traced = [run.run_child(argv, True, env) for _ in range(2)]
    failed = [c["why"] for c in (plain, *traced) if not c["ok"]]
    if failed:
        return failed
    problems = []
    if any(c["stdout"] != plain["stdout"] for c in traced):
        problems.append("traced record differs from the untraced record")
    calls = [{name: span[0] for name, span in c["spans"].items()} for c in traced]
    if calls[0] != calls[1]:
        problems.append("call counts differ between two traced runs")
    count = calls[0]
    builds = (traced[0]["build"] or [0])[0]
    if w.name == "qec-ring5":
        expected = {"protocols.qec_encode": samples, "resources.teleport_in": 3 * samples}
        for name, n in expected.items():
            if count.get(name) != n:
                problems.append(f"{name}: {count.get(name)} calls, expected {n}")
        if not count.get("pauli.mul"):
            problems.append("pauli.mul: products taken with * were not traced")
        if builds != 3 * samples:
            problems.append(f"{builds} catalog builds, expected 3 per shot")
    if w.name in ("purify-mc", "repeater-mc"):
        stray = sorted(n for n, c in count.items()
                       if c and n.split(".")[0] in ("tableau", "gf2", "catalog"))
        if stray:
            problems.append(f"stabilizer layers called: {', '.join(stray)}")
    return problems


def main() -> int:
    env, _ = run.child_env()
    failures = 0
    for w in wl.WORKLOADS:
        problems = check(w, env)
        failures += bool(problems)
        print(f"{w.name:<12} {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"    {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
