"""The benchmark's hooks name live functions on the paths they time.

``perfbench/tracer.py`` wraps functions by name and reports a name that no
longer resolves as absent; a traced run with an absent or idle hook is not a
valid measurement.  The file is only read here, never imported or changed.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from flbessel import cli, hypergeom, powerprime, series, sumverify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _hook_names() -> dict[str, tuple[str, ...]]:
    names = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED", "CACHES"):
                    names[target.id] = ast.literal_eval(node.value)
    return names


HOOKS = _hook_names()


def _resolve(path: str):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"flbessel.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_the_tracer_declares_all_three_hook_lists():
    assert set(HOOKS) == {"SPANNED", "COUNTED", "CACHES"}
    assert all(HOOKS.values())


@pytest.mark.parametrize("path", HOOKS["SPANNED"])
def test_spanned_hook_resolves(path):
    assert callable(_resolve(path))


@pytest.mark.parametrize("path", HOOKS["COUNTED"])
def test_counted_hook_is_a_generator_function(path):
    assert inspect.isgeneratorfunction(_resolve(path))


@pytest.mark.parametrize("path", HOOKS["CACHES"])
def test_cache_hook_has_cache_info(path):
    assert hasattr(_resolve(path), "cache_info")


def _counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_fold_and_evaluation_hooks_stay_on_their_paths(monkeypatch, capsys):
    # the tracer rebinds module-level names; the power fold must still reach
    # the Legendre table through ``monomials`` and ``bench`` must evaluate
    # through ``eval_series``
    calls = Counter()
    for owner, attr in ((powerprime, "monomials"), (powerprime, "to_power_series"),
                        (series, "eval_series")):
        monkeypatch.setattr(owner, attr, _counting(calls, attr, getattr(owner, attr)))
    assert cli.main(["power", "J", "0", "1", "--max-power", "4", "--terms", "3"]) == 0
    assert cli.main(["bench", "--which", "j1", "--grid", "3"]) == 0
    capsys.readouterr()
    assert calls == {"monomials": 3, "to_power_series": 1, "eval_series": 3}


def test_verify_hooks_stay_on_its_path(monkeypatch, capsys):
    # each term that survives the vanished head builds its bracket through
    # ``_brackets`` and takes a_L / 2^L from ``_f12``; j1 over h 0..1 with
    # h+2 terms has two such terms per identity.  A fresh bracket takes three
    # ``pochhammer`` calls (the name in ``sumverify`` that the tracer
    # rebinds); the second identity's L = 3 bracket steps down from the
    # first identity's and takes none.  The memos go with ``_degree``'s
    # cache, so the count does not depend on what ran before.
    calls = Counter()
    for attr in ("_brackets", "pochhammer", "_f12"):
        monkeypatch.setattr(sumverify, attr, _counting(calls, attr, getattr(sumverify, attr)))
    sumverify._degree.cache_clear()
    assert cli.main(["verify", "--family", "j1", "--h-range", "0..1", "--terms", "+2",
                     "--tol", "1"]) == 0
    capsys.readouterr()
    assert calls == {"_brackets": 4, "pochhammer": 9, "_f12": 4}


def test_coefficient_hooks_stay_on_their_path(monkeypatch, capsys):
    # the tracer rebinds every flbessel module's reference to a hooked
    # function, so the wrappers go wherever the tracer's would; each
    # coefficient comes through ``coeff_a`` and one regularized sum, which
    # sums through ``plain_sum_rational`` unless a head vanishes (J3 at
    # L = 1 only)
    calls = Counter()
    for owner, attr in ((hypergeom, "plain_sum_rational"),
                        (hypergeom, "regularized_sum_rational"), (series, "coeff_a")):
        original = getattr(owner, attr)
        wrapper = _counting(calls, attr, original)
        for name, module in list(sys.modules.items()):
            if name == "flbessel" or name.startswith("flbessel."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
    series._coeff_rational.cache_clear()
    assert cli.main(["coeffs", "J", "0", "1", "--lmax", "4"]) == 0
    assert cli.main(["coeffs", "J", "3", "7/3", "--lmax", "5"]) == 0
    capsys.readouterr()
    assert calls == {"coeff_a": 6, "regularized_sum_rational": 6, "plain_sum_rational": 5}
