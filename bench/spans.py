"""Outside-in span tracer for the mbqcomm package.

The tracer wraps the public functions and public methods of selected
package modules from outside the package: no source file is edited.
Each call of a wrapped function is a span. Open spans form a stack, so
each knows its parent; a span's self time is its duration minus the
durations of its direct children. Spans are aggregated per name as
they close, because a stabilizer run makes millions of calls and a
list of raw spans would not fit in memory.

Naming: a module function or method `f` of module `mbqcomm.m` is the
span `m.f`. A method that two classes of one module both define is
`m.Class.f`. A method the class also exposes as an operator dunder
(`__mul__ = multiply`) is named after the operator (`pauli.mul`),
because the program mostly calls it through the operator. A call made
directly from a span of the same name is folded into that span: module
wrappers such as `tableau.bell_measure(state, ...)` around the method
of the same name count once.

Aliases: after wrapping, every attribute of every loaded `mbqcomm.*`
module, and every value of a module-level dict, that still holds an
original function is rebound to its wrapper. This covers names
imported with `from .x import f`, which would otherwise bypass the
wrapper.

The wrappers read only the clock, so they consume no random numbers
and change no result.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

ROOT = "<root>"


class Tracer:
    """Collects span aggregates for one process."""

    def __init__(self):
        # name -> [calls, self seconds]
        self.spans: dict[str, list] = {}
        # group -> [outermost calls, inclusive seconds of outermost calls]
        self.groups: dict[str, list] = {}
        # name -> return value of its latest call, for `capture`
        self.returns: dict[str, object] = {}
        self._stack = [[ROOT, 0.0]]
        self._open: dict[str, int] = {}

    def wrap(self, name: str, fn, group: str | None = None,
             capture: bool = False):
        """Return a traced stand-in for `fn` recorded under `name`.

        A call in `group` made while no other call of the group is open
        adds to the group's outermost count and inclusive time.
        """
        stack, spans, groups = self._stack, self.spans, self.groups
        open_calls, returns = self._open, self.returns
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            if group:
                depth = open_calls.get(group, 0)
                open_calls[group] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                span = spans.get(name)
                if span is None:
                    span = spans[name] = [0, 0.0]
                span[0] += 1
                span[1] += dt - frame[1]
                if group:
                    open_calls[group] = depth
                    if depth == 0:
                        g = groups.setdefault(group, [0, 0.0])
                        g[0] += 1
                        g[1] += dt
            if capture:
                returns[name] = result
            return result

        return traced


def _public_functions(module):
    """Yield (owner, raw attribute, function, span name) for each public
    function and method defined in `module`."""
    short = module.__name__.rsplit(".", 1)[-1]
    classes = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, obj, obj, f"{short}.{attr}"
        elif inspect.isclass(obj):
            classes.append(obj)
    methods = []
    for cls in classes:
        for attr, raw in vars(cls).items():
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            methods.append((cls, attr, raw, fn))
    owners: dict[str, set] = {}
    for cls, attr, _raw, _fn in methods:
        owners.setdefault(attr, set()).add(cls)
    for cls, attr, raw, fn in methods:
        operator = next((a.strip("_") for a, v in vars(cls).items()
                         if a.startswith("__") and v is raw), None)
        if operator:
            name = f"{short}.{operator}"
        elif len(owners[attr]) > 1:
            name = f"{short}.{cls.__name__}.{attr}"
        else:
            name = f"{short}.{attr}"
        yield cls, raw, fn, name


def install(tracer: Tracer, modules, groups: dict[str, str] | None = None,
            capture=()) -> None:
    """Wrap the public functions of `modules` and rebind their aliases.

    `groups` maps span names to a group name; `capture` lists span
    names whose latest return value is kept.
    """
    groups = groups or {}
    wrapped = {}
    for module in modules:
        for owner, raw, fn, name in list(_public_functions(module)):
            traced = tracer.wrap(name, fn, groups.get(name), name in capture)
            wrapped[fn] = traced
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(traced)
            else:
                replacement = traced
            for alias, value in list(vars(owner).items()):
                if value is raw:
                    setattr(owner, alias, replacement)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mbqcomm" or mod_name.startswith("mbqcomm.")):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrapped:
                        value[key] = wrapped[item]
