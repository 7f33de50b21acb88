"""Spans and counters around calls into flbessel, installed from outside.

The package is never edited: ``Tracer.install`` replaces each hooked
function with a wrapper at every place a flbessel module holds a reference
to it (``from .mpnum import pochhammer`` makes a second binding in
``sumverify``, ``hypergeom`` and ``legendre``).  A hook whose target no
longer exists is reported absent instead of failing, so the benchmark keeps
working while later changes delete or move functions.

Each span records its name, start, end, parent span and whether the call
raised.  Spans stay in memory until ``write_spans``.  Per-layer numbers:

* ``calls``: spans of that name;
* ``s``: time inside the outermost call of that name (recursion and nested
  calls of the same name are not counted twice);
* ``self_s``: span duration minus the time its child spans cover;
* ``terms``: items produced by a hooked generator;
* ``hit_ratio`` and ``misses``: from ``cache_info()`` of an ``lru_cache``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: Functions wrapped in spans, as ``<module>.<name>`` under ``flbessel``.
SPANNED = (
    "cli.main",
    "sumverify.verify_identity",
    "sumverify.term_rational",
    "sumverify._brackets",
    "sumverify._f12",
    "mpnum.pochhammer",
    "mpnum.BigReal.from_fraction",
    "hypergeom.plain_sum_rational",
    "hypergeom.regularized_sum_rational",
    "series.coeff_a",
    "series.build_series",
    "series.eval_series",
    "series.accuracy_scan",
    "series.maclaurin_ref",
    "legendre.monomials",
    "powerprime.to_power_series",
    "powerprime.certify_prime_structure",
    "emit.emit_legendre_code",
    "emit.emit_power_code",
    "emit.emit_json",
)

#: Generators whose yielded items are counted.
COUNTED = ("hypergeom.plain_terms",)

#: ``lru_cache`` functions whose statistics are read after the run.
CACHES = ("series._coeff_rational", "sumverify._f12", "legendre._coeff_table")


def _modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "flbessel" or name.startswith("flbessel.")]


def _lookup(path: str):
    """(owner, attribute, object) for ``module.name`` or ``module.Class.name``."""
    module, _, rest = path.partition(".")
    owner = sys.modules.get(f"flbessel.{module}")
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
    if owner is None:
        return None, attr, None
    return owner, attr, (vars(owner).get(attr) if isinstance(owner, type)
                         else getattr(owner, attr, None))


def _rebind(original, replacement) -> None:
    """Point every flbessel module-level reference to ``original`` elsewhere."""
    for module in _modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, raised, outermost of its name]
        self.spans: list[list] = []
        self.terms: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._caches: dict[str, object] = {}

    def install(self) -> None:
        for path in CACHES:
            _, _, fn = _lookup(path)
            if hasattr(fn, "cache_info"):
                self._caches[path] = fn
            else:
                self.absent.append(path)
        for path in SPANNED:
            owner, attr, target = _lookup(path)
            if isinstance(target, classmethod):
                setattr(owner, attr, classmethod(self._span(path, target.__func__)))
            elif callable(target):
                _rebind(target, self._span(path, target))
            else:
                self.absent.append(path)
        for path in COUNTED:
            _, _, target = _lookup(path)
            if callable(target):
                _rebind(target, self._counter(path, target))
            else:
                self.absent.append(path)

    def _span(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, True,
                      depth[name] == 0]
            stack.append(len(spans))
            spans.append(record)
            depth[name] += 1
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                record[4] = False
                return result
            finally:
                record[2] = time.perf_counter()
                depth[name] -= 1
                stack.pop()

        return traced

    def _counter(self, name: str, gen_fn):
        terms = self.terms

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                terms[name] += 1
                yield item

        return counted

    def _self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - cover
                for (_, start, end, _, _, _), cover in zip(self.spans, covered)]

    def layers(self) -> dict[str, float]:
        """Every per-layer number of the run, keyed ``<module>.<name>.<stat>``."""
        out: dict[str, float] = {}
        for path in SPANNED:
            if path not in self.absent:
                out.update({f"{path}.calls": 0, f"{path}.s": 0.0, f"{path}.self_s": 0.0})
        for (name, start, end, _, _, outermost), self_s in zip(self.spans, self._self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            if outermost:
                out[f"{name}.s"] += end - start
        for path in COUNTED:
            if path not in self.absent:
                out[f"{path}.terms"] = self.terms[path]
        for path, fn in self._caches.items():
            info = fn.cache_info()
            calls = info.hits + info.misses
            out[f"{path}.hit_ratio"] = info.hits / calls if calls else 0.0
            out[f"{path}.misses"] = info.misses
        return out

    def top_level_self_s(self) -> float:
        """Self time summed over all spans: the time of the top-level spans."""
        return sum(self._self_times())

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, raised, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, raised]) + "\n")
