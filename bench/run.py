"""Benchmark of the mbqcomm stabilizer and index-sampling engines.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any working directory works: paths are
taken from this file). Each workload in `workloads.py` is one fixed CLI
command. A run first computes the workload's reference engine in a
fresh interpreter (which also fills the bytecode cache), then for
`--seconds` seconds, and at least `MIN_CHILDREN` times, starts a fresh
interpreter that imports `mbqcomm.cli` and calls `main(argv)` with the
benchmark seed as the CLI seed. Children run one at a time (closed
loop, one client).

With `--trace 0` the end-to-end metrics are medians over the children:

- setup_s: time to import `mbqcomm.cli`, what a user pays before the
  subcommand starts;
- shots_per_s: shots requested by `--samples` / time inside `main`;
- wall_s: setup_s plus the time inside `main`;
- peak_rss_mb: peak resident memory of the child.

None of them depends on sampled outcomes. The three timings are in
reference seconds (see `calib.py`): each child's measured seconds are
scaled by the median time of a fixed calibration kernel run just before
and just after it, so that a host that is slower for a while does not
move them. The measured medians and the kernel median are printed
beside them.

With `--trace 1` children alternate traced and untraced, and the
per-layer metrics come from the traced ones (see `spans.py` and
`workloads.LAYERS`).

Correctness gate, per child (an operation): the CLI exits 0 and prints
a record; the record is byte-identical to the first child's (same
seed, traced or not, so tracing consumes no random numbers); the
record reports the requested sample count; each sampled quantity
passes a two-sided binomial test against the reference engine at
p >= ALPHA; the reference matches its frozen values; with tracing, all
traced children make the same calls. A child failing any of these is
a failed operation. The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
CALIB = os.path.join(BENCH, "calib.py")
REF_KERNEL_S = 0.010  # calibration kernel time that defines a reference second
CLI_SOURCE = os.path.join(ROOT, "src", "mbqcomm", "cli.py")

MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150
ALPHA = 1e-6                 # gate: two-sided binomial p-value must be >= ALPHA
EXACT_BINOMIAL_MAX_N = 5000  # above this the normal approximation is used
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("shots_per_s", "1/s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"))


def child_env() -> tuple[dict, list[str]]:
    """Environment for children: no MBQCOMM_* or PYTHON* user settings.

    MBQCOMM_SHARDS would change the sample split, PYTHONHASHSEED set
    iteration order, PYTHONPATH which package is imported. Returns the
    environment and the names removed from it.
    """
    removed = sorted(k for k in os.environ
                     if k.startswith("MBQCOMM_") or (k.startswith("PYTHON") and k != "PYTHONHOME"))
    env = {k: v for k, v in os.environ.items() if k not in removed}
    env.update(PINNED_ENV)
    return env, removed


def run_child(argv, trace: bool, env: dict) -> dict:
    """Run one fresh interpreter; `ok` is False if it or the CLI failed."""
    cmd = [sys.executable, CHILD, "1" if trace else "0", *argv]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"ok": False, "why": f"child exited {proc.returncode}: {tail[0]}"}
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "why": "child printed no report"}
    report["ok"] = False
    if report["error"]:
        report["why"] = "CLI raised: " + report["error"].strip().splitlines()[-1]
    elif report["rc"] != 0:
        report["why"] = f"CLI returned {report['rc']}"
    else:
        try:
            report["record"] = json.loads(report["stdout"].strip().splitlines()[-1])
            report["ok"] = True
        except (json.JSONDecodeError, IndexError):
            report["why"] = "CLI printed no JSON record"
    return report


@contextlib.contextmanager
def calibrator(kernel: str, env: dict):
    """A function that times a calibration kernel in its own process."""
    proc = subprocess.Popen([sys.executable, CALIB, kernel], env=env, cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def sample() -> list[float]:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited {proc.wait()}")
        return json.loads(line)

    try:
        yield sample
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def binomial_p(k: int, n: int, p: float) -> float:
    """Two-sided p-value of k successes in n trials at success rate p."""
    if n == 0:
        return 1.0
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(p * n) else 0.0
    if n > EXACT_BINOMIAL_MAX_N:
        z = (k - n * p) / math.sqrt(n * p * (1 - p))
        return math.erfc(abs(z) / math.sqrt(2))
    log_c = math.lgamma(n + 1)
    pmf = [math.exp(log_c - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                    + i * math.log(p) + (n - i) * math.log1p(-p)) for i in range(n + 1)]
    return min(1.0, 2 * min(sum(pmf[:k + 1]), sum(pmf[k:])))


def record_counts(w: wl.Workload, record: dict) -> dict[str, tuple[int, int]]:
    """(successes, trials) behind each sampled quantity of a CLI record."""
    if w.counts == "qec":
        n = record["samples"]
        return {"fidelity": (round(record["fidelity"] * n), n)}
    if w.counts == "purify":
        n = record["samples"]
        kept = round(record["p_success"] * n)
        return {"p_success": (kept, n), "fidelity": (round(record["fidelity"] * kept), kept)}
    delivered = round(record["p_success"] * w.slots)
    return {"p_success": (delivered, w.slots),
            "fidelity": (round(record["fidelity"] * delivered), delivered)}


def check_reference(w: wl.Workload, ref: dict) -> tuple[dict, list[str], list[str]]:
    """Reference values, report lines and problems."""
    if not ref["ok"]:
        return {}, [f"reference failed: {ref['why']}"], [f"reference failed: {ref['why']}"]
    values, lines, problems = {}, [], []
    for key, frozen in w.frozen.items():
        if not isinstance(ref["record"].get(key), (int, float)):
            lines.append(f"reference {key} missing FAIL")
            problems.append(f"reference record has no number {key!r}")
            continue
        values[key] = ref["record"][key]
        ok = abs(values[key] - frozen) <= wl.FROZEN_TOL
        lines.append(f"reference {key} {values[key]:.6f} (frozen {frozen}) {'ok' if ok else 'FAIL'}")
        if not ok:
            problems.append(f"reference {key} {values[key]:.6f} != frozen {frozen}")
    return values, lines, problems


def gate(w: wl.Workload, record: dict, ref: dict) -> tuple[list[str], list[str]]:
    """Report lines and problems of one record against the reference."""
    lines, problems = [], []
    if w.counts != "repeater" and record.get("samples") != w.samples:
        problems.append(f"record reports {record.get('samples')} samples, asked {w.samples}")
    try:
        counts = record_counts(w, record)
    except (KeyError, TypeError) as exc:
        return lines, problems + [f"record lacks a number: {exc!r}"]
    for key, (k, n) in counts.items():
        if key not in ref:
            continue
        pval = binomial_p(k, n, ref[key])
        ok = pval >= ALPHA
        lines.append(f"gate {key} {k}/{n} = {k / n if n else 0:.6f} vs {ref[key]:.6f}: "
                     f"p = {pval:.3g} {'ok' if ok else 'FAIL'} (bound p >= {ALPHA:g})")
        if not ok:
            problems.append(f"{key} {k}/{n} vs reference {ref[key]:.6f}, p = {pval:.3g}")
    return lines, problems


def layer_metrics(w: wl.Workload, traced: list[dict], untraced: list[dict]) -> dict:
    first = traced[0]
    calls = {name: span[0] for name, span in first["spans"].items()}
    values = {}
    for name in wl.TRACED_FUNCTIONS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = statistics.median(
            [c["spans"].get(name, [0, 0.0])[1] for c in traced])
        values[f"{name}.per_shot"] = calls.get(name, 0) / w.samples
    builds = [c["build"] or [0, 0.0] for c in traced]
    values["catalog.build.incl_s"] = statistics.median([b[1] for b in builds])
    values["catalog.builds_per_shot"] = builds[0][0] / w.samples
    values["protocols.keep_frac"] = first["fractions"].get("protocols.keep_frac", 0.0)
    values["netsim.delivered_frac"] = first["fractions"].get("netsim.delivered_frac", 0.0)
    values["trace.overhead"] = (statistics.median([c["main_s"] for c in traced])
                                / statistics.median([c["main_s"] for c in untraced]))
    return values


def end_to_end_metrics(w: wl.Workload, timed: list[dict], reference: bool) -> dict:
    """Medians over children, of measured or of reference timings."""
    def scale(c):
        return c["scale"] if reference else 1.0
    return {
        "setup_s": statistics.median([scale(c) * c["setup_s"] for c in timed]),
        "shots_per_s": w.samples / statistics.median([scale(c) * c["main_s"] for c in timed]),
        "wall_s": statistics.median([scale(c) * (c["setup_s"] + c["main_s"]) for c in timed]),
        "peak_rss_mb": statistics.median([c["peak_rss_mb"] for c in timed]),
    }


def measure(w: wl.Workload, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of one workload; prints its report lines."""
    env, removed = child_env()
    argv = [*w.argv, "--samples", str(w.samples), "--seed", str(seed)]
    ref_run = run_child(w.reference, False, env)
    ref, ref_lines, ref_problems = check_reference(w, ref_run)
    children = []
    with calibrator(w.kernel, env) as calibrate:
        kernel_before = calibrate()
        start = last = time.perf_counter()
        longest = 0.0
        # start a child only if one as long as the longest so far ends in time
        while len(children) < MIN_CHILDREN or last - start + longest <= seconds:
            traced = trace and len(children) % 2 == 0
            child = run_child(argv, traced, env)
            kernel_after = calibrate()
            # reference seconds per measured second, from the kernel runs
            # just before and just after this child
            child["scale"] = REF_KERNEL_S / statistics.median(kernel_before + kernel_after)
            children.append((traced, child))
            kernel_before = kernel_after
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
    elapsed = last - start

    failed, first_stdout, first_calls = 0, None, None
    gate_lines, gate_problems = [], []
    problems_seen = []
    for traced, c in children:
        problems = list(ref_problems)
        if not c["ok"]:
            problems.append(c["why"])
        else:
            if first_stdout is None:
                first_stdout = c["stdout"]
                gate_lines, gate_problems = gate(w, c["record"], ref)
            elif c["stdout"] != first_stdout:
                problems.append("record differs from the first child's record")
            problems += gate_problems
            if traced:
                calls = {n: span[0] for n, span in c["spans"].items()}
                if first_calls is None:
                    first_calls = calls
                elif calls != first_calls:
                    problems.append("call counts differ between traced children")
        if problems:
            failed += 1
            problems_seen += [p for p in problems if p not in problems_seen]

    timed = [c for traced, c in children if not traced and "main_s" in c]
    traced_ok = [c for traced, c in children if traced and c["ok"]]
    print(f"== {w.name}  seed {seed}  trace {int(trace)}  "
          f"{len(children)} children in {elapsed:.1f} s")
    print(f"why      {w.why}")
    print(f"argv     {' '.join(argv)}")
    print(f"env      MBQCOMM_SHARDS unset; removed [{', '.join(removed)}]; set "
          + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    print(f"ref argv {' '.join(w.reference)}")
    for line in ref_lines + gate_lines:
        print(line)
    print(f"record   {first_stdout.strip() if first_stdout else None}")
    for p in problems_seen:
        print(f"PROBLEM  {p}")
    print(f"failed   {failed} of {len(children)} operations")
    if not timed or (trace and not traced_ok):
        raise RuntimeError(f"{w.name}: no child run completed, nothing to measure")
    if trace:
        values = layer_metrics(w, traced_ok, timed)
        units = {name: unit for name, unit, _ in wl.layer_metric_specs()}
    else:
        kernel_s = REF_KERNEL_S / statistics.median([c["scale"] for c in timed])
        measured = end_to_end_metrics(w, timed, reference=False)
        print(f"host     calibration kernel median {kernel_s * 1e3:.3f} ms "
              f"(reference {REF_KERNEL_S * 1e3:g} ms); measured: "
              + ", ".join(f"{name} {measured[name]:.6g}" for name in
                          ("setup_s", "shots_per_s", "wall_s")))
        values = end_to_end_metrics(w, timed, reference=True)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name:<44} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.BY_NAME, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(CLI_SOURCE):
        print(f"error: package source {CLI_SOURCE} not found", file=sys.stderr)
        return 2
    chosen = wl.WORKLOADS if args.workload == "all" else (wl.BY_NAME[args.workload],)
    try:
        results = {w.name: measure(w, args.seed, args.seconds, bool(args.trace))
                   for w in chosen}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
