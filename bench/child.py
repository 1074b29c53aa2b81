"""Run one mbqcomm CLI invocation in a fresh interpreter.

    python3 bench/child.py <trace 0|1> <mbqcomm argv...>

Times the import of `mbqcomm.cli` (set-up) and the call of
`mbqcomm.cli.main(argv)` in this process, captures what the CLI prints,
and prints one JSON object as its last line of standard output. With
trace 1 the public functions of the package are wrapped by
`spans.install` after the import and before `main`, and the span
aggregates are reported as well.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TRACED_MODULES = ("pauli", "gf2", "tableau", "noise", "resources", "catalog",
                  "codes", "belldiag", "protocols", "netsim", "cli")
CAPTURED = ("protocols.purify_recurrence_mc", "netsim.repeater_chain")
BUILD_GROUP = "catalog.build"


def _install_tracer():
    import importlib

    import spans

    modules = [importlib.import_module(f"mbqcomm.{m}") for m in TRACED_MODULES]
    catalog = importlib.import_module("mbqcomm.catalog")
    # a build is a call of a catalog function that returns a resource
    builders = {
        f"catalog.{name}": BUILD_GROUP
        for name, fn in vars(catalog).items()
        if inspect.isfunction(fn) and fn.__module__ == catalog.__name__
        and not name.startswith("_")
        and inspect.signature(fn).return_annotation in ("ResourceSpec", catalog.ResourceSpec)
    }
    tracer = spans.Tracer()
    spans.install(tracer, modules, groups=builders, capture=CAPTURED)
    return tracer


def _fractions(returns: dict) -> dict:
    """Useful outcomes over attempts, read from captured return values."""
    out = {}
    stats = returns.get("protocols.purify_recurrence_mc")
    chain = returns.get("netsim.repeater_chain")
    try:
        if stats is not None:
            counts = stats.extra["counts"]
            out["protocols.keep_frac"] = counts["kept"] / counts["attempts"]
        if chain is not None and "delivered" in chain.extra:
            out["netsim.delivered_frac"] = chain.extra["delivered"] / chain.samples
    except (AttributeError, KeyError, TypeError, ZeroDivisionError):
        pass
    return out


def main() -> int:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import mbqcomm.cli
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(mbqcomm.cli.__file__).startswith(SRC + os.sep):
        print(f"mbqcomm was imported from {mbqcomm.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = _install_tracer() if trace else None
    out = io.StringIO()
    error = None
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = mbqcomm.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported to the parent as a failed operation
        rc = None
        error = traceback.format_exc()
    main_s = time.perf_counter() - t1
    report = {
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "setup_s": setup_s,
        "main_s": main_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["build"] = tracer.groups.get(BUILD_GROUP)
        report["fractions"] = _fractions(tracer.returns)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
