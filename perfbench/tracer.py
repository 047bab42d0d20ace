"""Spans and counters around the public functions of every ``gamma4`` module.

The tracer wraps functions from outside the library: it replaces each
target at *every* binding it has (``from .cfk import tensor`` copies the
name into ``nuplus``, so both ``cfk.tensor`` and ``nuplus.tensor`` are
replaced by the same wrapper) and puts the originals back on uninstall.  No
library code changes.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _len_or_none(value):
    try:
        return len(value)
    except TypeError:
        return None


# Per-target hooks ``(counters, args, kwargs, result)``, run after a traced
# call returns.  They read only argument and result sizes.


def _route_kind(counters, args, kwargs, result):
    counters[result.kind.replace("-", "_")] += 1


def _genus(counters, args, kwargs, result):
    counters["genus_sum"] += result.genus


def _generators_out(counters, args, kwargs, result):
    counters["generators_out"] += len(result)


def _levels(counters, args, kwargs, result):
    counters["levels"] += len(result)


def _entries(counters, args, kwargs, result):
    size = _len_or_none(args[1] if len(args) > 1 else kwargs.get("entries"))
    if size is not None:
        counters["entries"] += size


def _snf_sizes(counters, args, kwargs, result):
    rows, grading = args[0], args[1]
    n = len(grading)
    counters["n_sum"] += n
    counters["n_max"] = max(counters["n_max"], n)
    counters["rank_x2"] += 2 * len(result[0])
    counters["matrix_bytes"] += rows.nbytes


def _sieve_cells(counters, args, kwargs, result):
    counters["cells"] += max(0, int(args[2]))


def _gap_cells(counters, args, kwargs, result):
    counters["cells"] += max(0, int(args[2])) * len(args[1])


#: (metric prefix, module, attribute path, hook).  An attribute path with a
#: dot names a method on a class; the wrapper replaces it in the class dict.
TARGETS = (
    ("cli.main", "gamma4.cli", "main", None),
    ("cli.cache.lookup", "gamma4.cli", "ProfileCache.profile", None),
    ("cli.cache.save", "gamma4.cli", "ProfileCache.save", None),
    ("expressions.parse", "gamma4.expressions", "parse", None),
    ("nuplus.route", "gamma4.nuplus", "route", _route_kind),
    ("nuplus.vi_expr", "gamma4.nuplus", "vi_expr", None),
    ("nuplus.vi_from_nuplus", "gamma4.nuplus", "vi_from_nuplus", None),
    ("nuplus.tensor_complex", "gamma4.nuplus", "tensor_complex", None),
    ("nuplus.vi_tensor_oracle", "gamma4.nuplus", "vi_tensor_oracle", None),
    ("semigroups.from_generators", "gamma4.semigroups",
     "FormalSemigroup.from_generators", _genus),
    ("semigroups.from_vi", "gamma4.semigroups", "FormalSemigroup.from_vi", None),
    ("torus.alexander", "gamma4.torus", "alexander", None),
    ("torus.signature", "gamma4.torus", "signature", None),
    ("torus.vi_lspace", "gamma4.torus", "vi_lspace", None),
    ("cfk.staircase", "gamma4.cfk", "staircase", None),
    ("cfk.dual", "gamma4.cfk", "dual", None),
    ("cfk.tensor", "gamma4.cfk", "tensor", _generators_out),
    ("cfk.subcomplex_at_level", "gamma4.cfk", "subcomplex_at_level", None),
    ("cfk.validate", "gamma4.cfk", "BifilteredComplex.__post_init__", None),
    ("cfk.homology", "gamma4.cfk", "homology_over_polynomial_ring", None),
    ("cfk.vi_sequence", "gamma4.cfk", "vi_sequence", _levels),
    ("kernels.pack_bit_rows", "gamma4._kernels", "pack_bit_rows", _entries),
    ("kernels.graded_snf", "gamma4._kernels", "graded_snf", _snf_sizes),
    ("kernels.sieve_members", "gamma4._kernels", "sieve_members", _sieve_cells),
    ("kernels.max_gap_profile", "gamma4._kernels", "max_gap_profile", _gap_cells),
    ("kernels.signature_count", "gamma4._kernels", "signature_count", None),
    ("bounds.report", "gamma4.bounds", "report", None),
    ("bounds.omega_upper", "gamma4.bounds", "omega_upper", None),
    ("bounds.thin_bounds", "gamma4.bounds", "thin_bounds", None),
    ("surgery.d_invariant", "gamma4.surgery", "d_invariant", None),
)


class Tracer:
    """Wraps every target at every binding; records spans while ``active``.

    ``install()`` and ``uninstall()`` swap the wrappers in and out, so a
    pass can run with the library untouched.  While installed, a wrapper
    records nothing unless ``active`` is set, which the caller does around
    each op so that correctness checks are not traced.  ``op_id`` tags
    every span opened while it is set.
    """

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names = [target[0] for target in TARGETS]
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.levels_evaluated = 0
        self._distinct: set = set()  # vi_expr arguments seen this pass
        self._stack: list[list] = []  # [span index, child seconds]
        self._inside_vi_sequence = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gamma4" or name.startswith("gamma4."))
        ]
        for index, (name, module_name, path, hook) in enumerate(TARGETS):
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, index, hook))
                else:
                    wrapped = self._wrap(raw, index, hook)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, index, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def end_pass(self) -> None:
        """Close one pass: distinct ``vi_expr`` arguments are counted per pass."""
        self.counters["nuplus.vi_expr"]["distinct"] += len(self._distinct)
        self._distinct.clear()

    def _wrap(self, fn, index: int, hook):
        tracer = self
        name = TARGETS[index][0]
        counters = self.counters[name]
        is_vi_expr = name == "nuplus.vi_expr"
        is_vi_sequence = name == "cfk.vi_sequence"
        is_homology = name == "cfk.homology"
        is_lookup = name == "cli.cache.lookup"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span = len(tracer.spans)
            tracer.spans.append((index, 0.0, 0.0, parent, tracer.op_id))
            frame = [span, 0.0]
            stack.append(frame)
            if is_vi_sequence:
                tracer._inside_vi_sequence += 1
            elif is_homology and tracer._inside_vi_sequence:
                tracer.levels_evaluated += 1
            elif is_lookup:
                computed_before = tracer.calls["nuplus.vi_expr"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_vi_sequence:
                    tracer._inside_vi_sequence -= 1
                duration = end - start
                tracer.spans[span] = (index, start, end, parent, tracer.op_id)
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if is_vi_expr:
                tracer._distinct.add((args, tuple(sorted(kwargs.items()))))
            elif is_lookup:
                hit = tracer.calls["nuplus.vi_expr"] == computed_before
                counters["hits" if hit else "misses"] += 1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV: name, start, end, parent, op id."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span,name,start_s,end_s,parent,op\n")
            for span, (index, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    f"{span},{self.names[index]},{start:.9f},{end:.9f},{parent},{op}\n"
                )
