"""The benchmark's workloads: CLI commands built from a seed.

``verify_sweep``: seed 0 gives the paper's inputs (k = 1); any other seed
draws the scale k of each family from ``K_CHOICES``, and every choice passes
at ``+74``/``+78`` terms.  The sweep's time hardly depends on k.

``hiprec_tables``: every seed runs the paper's two tables (J0 at k = 1, J3
at k = 7/3), then the same two orders at scales drawn from ``K_CHOICES``.
A 2000-digit table's time depends on k by up to 30 %, so the fixed pair
keeps the run-to-run spread across seeds small while the drawn pair still
varies the input.

``artifacts`` is the same for every seed, because its listings are pinned
by the golden files.

Each command is a dict: ``argv`` for ``flbessel.cli.main``, ``check`` naming
the witness in ``witness.py``, ``ops`` (how many operations it stands for:
one per identity, coefficient or listing) and the witness's parameters.
"""

from __future__ import annotations

import random

K_CHOICES = ("3/4", "7/8", "9/8", "5/4", "3/2")

WHY = {
    "verify_sweep": "summed-series identity sweeps j0 h<=42 and j1 h<=43 at 50 digits: "
                    "exact Pochhammer brackets, small 1F2 sums reused across h",
    "hiprec_tables": "J0 and J3 coefficient tables to L=146 at 2000 digits, at the paper's "
                     "k and at drawn k: few huge 1F2 and regularized 2F3 sums, no cache reuse",
    "artifacts": "every listing, bench, power fold, table1 and the N=2..12 tables at "
                 "50 digits: many small calls, low-precision general route",
}


def _draw(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(K_CHOICES) for _ in range(count)]


def _verify(family: str, h_hi: int, terms: int, k: str) -> dict:
    return {
        "argv": ["verify", "--family", family, "--h-range", f"0..{h_hi}",
                 "--terms", f"+{terms}", "--tol", "1e-33", "--k", k],
        "check": "verify", "ops": h_hi + 1, "h_lo": 0, "h_hi": h_hi, "terms": terms,
    }


def _coeffs(order: int, k: str, lmax: int, digits: int, fmt: str = "text") -> dict:
    return {
        "argv": ["coeffs", "J", str(order), k, "--lmax", str(lmax),
                 "--digits", str(digits), "--format", fmt],
        "check": "coeffs", "ops": len(range(order % 2, lmax + 1, 2)),
        "kind": "J", "order": order, "k": k, "lmax": lmax, "digits": digits,
        "format": fmt,
    }


def verify_sweep(seed: int) -> list[dict]:
    k0, k1 = ("1", "1") if seed == 0 else _draw(seed, 2)
    return [_verify("j0", 42, 74, k0), _verify("j1", 43, 78, k1)]


def hiprec_tables(seed: int) -> list[dict]:
    k0, k3 = _draw(seed, 2)
    return [_coeffs(order, k, 146, 2000)
            for order, k in ((0, "1"), (3, "7/3"), (0, k0), (3, k3))]


_LISTINGS = {
    "legendre-j0": "legendre_J0.txt", "legendre-j1": "legendre_J1.txt",
    "legendre-i0": "legendre_I0.txt", "legendre-i1": "legendre_I1.txt",
    "power-j0": "power_J0.txt", "power-j1": "power_J1.txt",
    "intpower-j0": "intpower_J0.txt", "intpower-j1": "intpower_J1.txt",
}


def artifacts(seed: int) -> list[dict]:
    del seed  # pinned by the golden files
    commands = [
        {"argv": ["emit", "--what", what], "check": "golden", "ops": 1, "golden": golden}
        for what, golden in _LISTINGS.items()
    ]
    commands += [
        {"argv": ["bench", "--which", which], "check": "bench", "ops": 1,
         "which": which, "digits": 50}
        for which in ("j0", "j1", "i0", "i1")
    ]
    commands.append({
        "argv": ["power", "J", "0", "1", "--max-power", "42", "--terms", "74",
                 "--factorize"],
        "check": "power", "ops": 22, "kind": "J", "order": 0, "max_power": 42,
        "digits": 50,
    })
    commands.append({"argv": ["table1"], "check": "table1", "ops": 1,
                     "golden": "table1_rows.txt"})
    # JSON output, so emit_json is exercised too
    commands += [_coeffs(n, "1", 80, 50, "json") for n in range(2, 13)]
    return commands


WORKLOADS = {
    "verify_sweep": verify_sweep,
    "hiprec_tables": hiprec_tables,
    "artifacts": artifacts,
}
