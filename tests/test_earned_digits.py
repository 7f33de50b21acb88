"""Every printed digit is earned: whole commands against 40 more guard digits.

A digit that moves when every sum carries 40 more guard digits was not
earned.  Each command runs in-process at the default guard and again with
``mpnum.DEFAULT_GUARD_DIGITS`` raised by 40 (16 to 56); stdout, stderr and
the exit code must be byte-identical.  The guard is read where each sum starts, so
the one monkeypatch reaches every route.  The ``--digits`` p against p+40
half of the audit is not here yet.
"""

from __future__ import annotations

import json

import pytest

from flbessel import legendre, mpnum, series, sumverify
from flbessel.cli import main
from refdata import DATA

#: ``verify`` prints where its 1F2 coefficient sums stopped, not the error of
#: the truncated identity, so its ``rel_diff`` moves with the guard.
ITEM_22 = pytest.mark.xfail(
    strict=True,
    reason="item 22: verify's rel_diff measures the coefficient sums' stop, "
           "not the identity",
)

GOLDEN_ARGV = [e["argv"] for e in json.loads((DATA / "cli_goldens.json").read_text())]

COMMANDS = [
    pytest.param(argv, marks=ITEM_22) if argv[0] == "verify" else argv
    for argv in GOLDEN_ARGV
] + [
    ["table1"],
    ["emit", "--what", "legendre-j0"],
    ["emit", "--what", "power-j1"],
    ["emit", "--what", "intpower-j0"],
    ["coeffs", "J", "0", "1", "--lmax", "40"],
    ["coeffs", "I", "5", "7/3", "--lmax", "30"],
    ["coeffs", "J", "12", "1", "--lmax", "40"],
    ["--format", "json", "coeffs", "J", "3", "7/3", "--lmax", "20"],
    ["eval", "J", "0", "1", "1/2"],
    ["eval", "I", "1", "7/3", "--", "-3/4"],
    ["power", "J", "1", "1", "--max-power", "21", "--terms", "40"],
    pytest.param(["verify", "--family", "j1", "--h-range", "0..3", "--terms", "+40"],
                 marks=ITEM_22),
]


def _clear_caches() -> None:
    series._coeff_rational.cache_clear()
    sumverify._f12.cache_clear()
    legendre._coeff_table.cache_clear()


@pytest.fixture
def fresh_caches():
    """No value summed at one guard answers a lookup at the other, and none
    summed at guard 56 outlives the test."""
    _clear_caches()
    yield _clear_caches
    _clear_caches()


def _run(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_forty_more_guard_digits_print_the_same_bytes(monkeypatch, capsys,
                                                      fresh_caches, argv):
    at_default = _run(capsys, argv)
    fresh_caches()
    monkeypatch.setattr(mpnum, "DEFAULT_GUARD_DIGITS", mpnum.DEFAULT_GUARD_DIGITS + 40)
    assert _run(capsys, argv) == at_default
