"""Benchmark flbessel end to end through ``flbessel.cli.main``.

    python3 perfbench/run.py --workload verify_sweep --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository (``src/`` and ``tests/data/`` must be
present; mpmath is needed for the witnesses).  Workloads are in
``workloads.py``.  A run is a closed loop with one client: it repeats the
workload body, each time in a fresh interpreter so caches start cold as they
do for a command-line user, until ``--seconds`` would be exceeded (at least
once).  Bodies run one after another, never in parallel.

``--trace 0`` reports the end-to-end metrics, medians over the bodies:

* ``run_s``: wall seconds of the body after import;
* ``cpu_s``: process CPU seconds of the same span;
* ``setup_s``: from spawning an interpreter to ``import flbessel`` done,
  median of ``SETUP_PROBES`` separate spawns;
* ``peak_rss_mb``: peak resident memory of the body's process.

Every time is reported at the reference host speed (``hostspeed.py``); the
raw wall seconds and the host's speed are printed beside them.

``--trace 1`` alternates untraced and traced bodies and reports the
per-layer metrics of the traced ones (``tracer.py``), the import time, and
``trace.overhead_ratio`` (traced over untraced ``run_s``).  Spans are
written to ``.perfbench/`` in the checkout.

Every output is checked outside the timed region against the witnesses in
``witness.py``.  One operation is one identity, coefficient or listing; one
that raised or failed its witness counts in ``failed`` without stopping the
run.  ``correct`` is false when repeated bodies print different output for
the same inputs, or when the traced run fails its self-checks.  The last
line of stdout is the JSON result; the lines before it list every metric by
name and unit with its sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import witness
from hostspeed import REFERENCE_S, at_reference_speed, calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 170
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import flbessel; "
         "sys.stdout.write('.'); sys.stdout.flush()")

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> (unit, the workload on which it must be nonzero).
PER_LAYER = {
    "sumverify.verify_identity.calls": ("count", "verify_sweep"),
    "sumverify.term_rational.self_s": ("s", "verify_sweep"),
    "sumverify._brackets.s": ("s", "verify_sweep"),
    "sumverify._f12.s": ("s", "verify_sweep"),
    "sumverify._f12.hit_ratio": ("ratio", "verify_sweep"),
    "mpnum.pochhammer.calls": ("count", "verify_sweep"),
    "mpnum.pochhammer.s": ("s", "verify_sweep"),
    "mpnum.BigReal.from_fraction.calls": ("count", "hiprec_tables"),
    "mpnum.BigReal.from_fraction.s": ("s", "hiprec_tables"),
    "hypergeom.plain_sum_rational.calls": ("count", "hiprec_tables"),
    "hypergeom.plain_sum_rational.s": ("s", "hiprec_tables"),
    "hypergeom.regularized_sum_rational.calls": ("count", "hiprec_tables"),
    "hypergeom.regularized_sum_rational.s": ("s", "hiprec_tables"),
    "hypergeom.plain_terms.terms": ("count", "hiprec_tables"),
    "series.coeff_a.calls": ("count", "hiprec_tables"),
    "series.coeff_a.s": ("s", "hiprec_tables"),
    "series.build_series.self_s": ("s", "hiprec_tables"),
    "series._coeff_rational.hit_ratio": ("ratio", "artifacts"),
    "series.eval_series.s": ("s", "artifacts"),
    "series.accuracy_scan.s": ("s", "artifacts"),
    "series.maclaurin_ref.s": ("s", "artifacts"),
    "legendre.monomials.s": ("s", "artifacts"),
    "legendre._coeff_table.misses": ("count", "artifacts"),
    "powerprime.to_power_series.s": ("s", "artifacts"),
    "powerprime.certify_prime_structure.s": ("s", "artifacts"),
    "emit.emit_legendre_code.s": ("s", "artifacts"),
    "emit.emit_power_code.s": ("s", "artifacts"),
    "emit.emit_json.s": ("s", "artifacts"),
    "cli.main.self_s": ("s", "artifacts"),
    "flbessel.import_s": ("s", None),
    "trace.overhead_ratio": ("ratio", None),
}

#: Layers that must do no work at all on a workload.
IDLE_LAYERS = {"hiprec_tables": "sumverify."}


class BenchError(RuntimeError):
    """The benchmark could not run the program or read its report."""


def setup_once() -> float:
    """Seconds from spawning an interpreter to ``import flbessel`` done,
    at the reference host speed."""
    calibration_s = calibrate()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-I", "-c", PROBE, str(ROOT / "src")],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        ready = proc.stdout.read(1)
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if ready != b"." or proc.returncode != 0:
        raise BenchError("the probe could not import flbessel from src/")
    return at_reference_speed(elapsed, calibration_s)


def run_body(argvs: list[list[str]], spans: Path | None = None) -> dict:
    """One workload body in a fresh interpreter (``child.py``)."""
    spec = {"commands": argvs, "spans": str(spans) if spans else None}
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "child.py")], input=json.dumps(spec),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"workload body failed:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise BenchError(f"unreadable body report: {exc}") from exc


def grade(commands: list[dict], outputs: list[list]) -> list[bool]:
    """One verdict per operation of one body's outputs."""
    verdicts = []
    for cmd, (rc, stdout, _) in zip(commands, outputs):
        completed = rc == 0 or (cmd["check"] == "verify" and rc == 1)
        try:
            got = witness.CHECKS[cmd["check"]](stdout, cmd) if completed else []
        except witness.OutputError:
            got = []
        verdicts += got if len(got) == cmd["ops"] else [False] * cmd["ops"]
    return verdicts


def self_check(workload: str, body: dict) -> list[str]:
    """Problems with one traced body's numbers; empty when it is consistent."""
    layers, problems = body["layers"], []
    if body["top_level_self_s"] > body["run_s"]:
        problems.append("top-level self times exceed the traced run_s")
    for name, (_, wanted_on) in PER_LAYER.items():
        if wanted_on == workload and name in layers and layers[name] <= 0:
            problems.append(f"{name} is zero on {workload}")
    prefix = IDLE_LAYERS.get(workload)
    for name, value in layers.items():
        if prefix and name.startswith(prefix) and value != 0:
            problems.append(f"{name} is nonzero on {workload}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[workload](seed)
    argvs = [c["argv"] for c in commands]
    spans, setup = None, []
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    else:
        setup = [setup_once() for _ in range(SETUP_PROBES)]

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(run_body(argvs))
        if trace:
            traced.append(run_body(argvs, spans))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break

    bodies = untraced + traced
    verdicts = grade(commands, bodies[0]["outputs"])
    first = [out[:2] for out in bodies[0]["outputs"]]
    correct = all([out[:2] for out in b["outputs"]] == first for b in bodies)
    if not correct:
        print("repeated bodies printed different output", file=sys.stderr)

    def median(key: str, group: list[dict]) -> float:
        """Median over bodies of a time at the reference host speed."""
        return statistics.median(at_reference_speed(b[key], b["calibration_s"])
                                 for b in group)

    if trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        metrics = {}
        for name in PER_LAYER:
            if name in traced[0]["layers"]:
                values = [b["layers"][name] for b in traced]
                if units[name] == "s":
                    values = [at_reference_speed(v, b["calibration_s"])
                              for v, b in zip(values, traced)]
                metrics[name] = statistics.median(values)
        metrics["flbessel.import_s"] = median("import_s", bodies)
        metrics["trace.overhead_ratio"] = median("run_s", traced) / median("run_s", untraced)
        for problem in sorted({p for b in traced for p in self_check(workload, b)}):
            print(f"trace self-check: {problem}", file=sys.stderr)
            correct = False
        absent = traced[0]["absent"]
        if absent:
            print(f"absent hooks: {', '.join(absent)}", file=sys.stderr)
        samples = len(traced)
    else:
        units = END_TO_END
        metrics = {
            "run_s": median("run_s", untraced),
            "cpu_s": median("cpu_s", untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(b["peak_rss_kb"] for b in untraced) / 1024,
        }
        samples = len(untraced)
        raw = statistics.median(b["run_s"] for b in untraced)
        speed = REFERENCE_S / statistics.median(b["calibration_s"] for b in untraced)
        print(f"{'raw run_s':44s} {raw:.6g} s, host at {speed:.3f} of reference speed")

    attempted = len(verdicts) * len(bodies)
    failed = verdicts.count(False) * len(bodies)
    for name, value in metrics.items():
        n = SETUP_PROBES if name == "setup_s" else samples
        print(f"{name:44s} {value:.6g} {units[name]} (median of {n})")
    print(f"{'failed_ratio':44s} {failed / attempted:.4f} ({failed} of {attempted} operations)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "flbessel" / "cli.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        print(f"error: {ROOT} is not a flbessel checkout (src/ and tests/data/ needed)",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
