"""Spans around the program's entry points and mpmath primitive counters.

Only the traced run installs these, inside the job process and before
``nullcontrol.cli.main`` is called.  Nothing under ``src/`` is edited:

* a span wrapper replaces each entry point at the attribute name its
  caller looks up (``synthesis.build_biortho`` is the name synthesis
  imported, and ``cli.solve_mode`` and ``grushin.solve_mode`` are two
  names of one function, so both are wrapped);
* every ``mpf_*`` / ``mpc_*`` function exported by ``mpmath.libmp`` has
  its code object swapped for a counting trampoline that calls a copy of
  the original.  Swapping the code object, not a module attribute, also
  counts calls made through references mpmath captured at import time
  (its context methods) and calls libmp makes to itself.  The cached
  constants (``mpf_pi`` and the like) are closures and are not counted.

A span's self time and self op count are its totals minus those of the
spans it encloses, so self figures add up to the root span ``cli.main``.
"""

from __future__ import annotations

import importlib
import math
import time
import types
from collections import defaultdict

# (module, attribute, span name); the class entry wraps a method.
ENTRY_POINTS = (
    ("nullcontrol.synthesis", "sample_plan", "synthesis.sample_plan"),
    ("nullcontrol.synthesis", "synthesize_simple", "synthesis.synthesize"),
    ("nullcontrol.synthesis", "synthesize_multiple", "synthesis.synthesize"),
    ("nullcontrol.synthesis", "synthesize_jordan", "synthesis.synthesize"),
    ("nullcontrol.synthesis", "verify_moments", "synthesis.verify_moments"),
    ("nullcontrol.synthesis", "build_biortho", "biortho_time.build_biortho"),
    ("nullcontrol.synthesis", "build_biortho_jordan", "biortho_time.build_biortho"),
    ("nullcontrol.biortho_time", "build_biortho", "biortho_time.build_biortho"),
    ("nullcontrol.biortho_time", "build_biortho_jordan", "biortho_time.build_biortho"),
    ("nullcontrol.models", "ParabolicModel.modes", "models.modes"),
    ("nullcontrol.spectral", "from_rule", "spectral.from_rule"),
    ("nullcontrol.spectral", "condensation_profile", "spectral.condensation_profile"),
    ("nullcontrol.spectral", "bohr_profile", "spectral.bohr_profile"),
    ("nullcontrol.hautus", "tstar_estimate", "hautus.tstar_estimate"),
    ("nullcontrol.grushin", "solve_mode", "grushin.solve_mode"),
    ("nullcontrol.cli", "solve_mode", "grushin.solve_mode"),
    ("nullcontrol.cli", "grushin_tstar_profile", "grushin.grushin_tstar_profile"),
)

ROOT = "cli.main"
MP_KINDS = ("mul", "add", "div", "exp", "log")


def _mp_kind(name: str) -> str:
    op = name.split("_", 1)[1]
    if op.startswith("mul"):
        return "mul"
    if op.startswith(("add", "sub")):
        return "add"
    if op.startswith(("div", "rdiv")):
        return "div"
    if op.startswith("exp"):
        return "exp"
    if op.startswith("log"):
        return "log"
    return "other"


class Tracer:
    """Spans and counters of one job process."""

    def __init__(self):
        self.mp_counts: list[int] = []
        self._mp_names: list[str] = []
        self._stack: list[list] = []    # [name, start, start_ops, child_s, child_ops]
        self.spans: list[tuple] = []    # (name, parent, start, end) in job seconds
        self.self_s = defaultdict(float)
        self.self_ops = defaultdict(int)
        self.calls = defaultdict(int)
        self.families: list[tuple] = []   # (dps, cond_estimate, residual)
        self.head_dps: list[int] = []
        self._t0 = time.perf_counter()

    # -- mpmath primitive counters -------------------------------------------

    def install_mp_counters(self) -> None:
        import mpmath.libmp as libmp

        originals = []
        for name in sorted(dir(libmp)):
            fn = getattr(libmp, name)
            if not (name.startswith(("mpf_", "mpc_")) and isinstance(fn, types.FunctionType)
                    and fn.__closure__ is None):
                continue
            copy = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                      fn.__defaults__, None)
            copy.__kwdefaults__ = fn.__kwdefaults__
            idx = len(originals)
            originals.append(copy)
            self._mp_names.append(name)
            self.mp_counts.append(0)
            fn.__globals__["_perfbench_mp_counts"] = self.mp_counts
            fn.__globals__["_perfbench_mp_originals"] = originals
            src = (f"def {name}(*args, **kwargs):\n"
                   f"    _perfbench_mp_counts[{idx}] += 1\n"
                   f"    return _perfbench_mp_originals[{idx}](*args, **kwargs)\n")
            scope: dict = {}
            exec(compile(src, f"<perfbench counter {name}>", "exec"), scope)
            fn.__code__ = scope[name].__code__

    def mp_total(self) -> int:
        return sum(self.mp_counts)

    def mp_by_kind(self) -> dict:
        out = dict.fromkeys(MP_KINDS + ("other",), 0)
        for name, n in zip(self._mp_names, self.mp_counts):
            out[_mp_kind(name)] += n
        return out

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), self.mp_total(), 0.0, 0])

    def exit(self) -> None:
        end, ops = time.perf_counter(), self.mp_total()
        name, start, start_ops, child_s, child_ops = self._stack.pop()
        dur, n_ops = end - start, ops - start_ops
        self.self_s[name] += dur - child_s
        self.self_ops[name] += n_ops - child_ops
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((name, parent, start - self._t0, end - self._t0))
        if self._stack:
            self._stack[-1][3] += dur
            self._stack[-1][4] += n_ops

    def _wrap(self, fn, name):
        tracer = self

        def spanned(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer._observe(name, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _observe(self, name, result) -> None:
        if name == "biortho_time.build_biortho":
            self.families.append((result.dps, result.cond_estimate, result.residual))
        elif name == "spectral.from_rule":
            self.head_dps.append(result.dps)

    def install_spans(self) -> None:
        for module, attr, name in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(getattr(owner, leaf), name))

    def run_root(self, fn, *args):
        """Call ``fn`` inside the root span."""
        self.enter(ROOT)
        try:
            return fn(*args)
        finally:
            self.exit()

    # -- report --------------------------------------------------------------

    def report(self) -> dict:
        names = sorted(set(self.calls))
        fam = self.families
        return {
            "self_s": {n: self.self_s[n] for n in names},
            "mp_ops": {n: self.self_ops[n] for n in names},
            "calls": {n: self.calls[n] for n in names},
            "mp_ops_by_kind": self.mp_by_kind(),
            "mp_ops_total": self.mp_total(),
            "dps_max": max((f[0] for f in fam), default=0),
            "cond_log10_max": max((math.log10(f[1]) for f in fam if f[1] > 0), default=0.0),
            "residual_max": max((f[2] for f in fam), default=0.0),
            "head_dps": max(self.head_dps, default=0),
            "spans": self.spans,
        }
