"""Run one workload body in this fresh interpreter and report it as JSON.

Reads ``{"commands": [argv, ...], "spans": path or null}`` on stdin, imports
flbessel from the checkout's ``src``, calls ``flbessel.cli.main(argv)`` for
each command in turn with stdout and stderr captured, and prints one JSON
object: import time, wall and CPU time of the body, the host's speed while it
ran (``calibration_s``), peak resident memory, every command's exit code and
output, and, when ``spans`` is set, the traced per-layer numbers (the spans
themselves go to that file).

Started by ``run.py`` as ``python -I perfbench/child.py``, so every body
starts with cold caches and ignores PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import calibrate  # noqa: E402  (needs the path above)


def peak_rss_kb() -> int:
    """High-water resident size of this process's own address space (Linux).

    Not ``ru_maxrss``: that starts at the parent's resident size at spawn.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import flbessel.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs, calibration = [], [calibrate(), calibrate()]
    run_s = cpu_s = 0.0
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = flbessel.cli.main(argv)
            except Exception:  # an escaped exception is a failed operation
                traceback.print_exc()
                rc = None
        run_s += time.perf_counter() - wall0
        cpu_s += time.process_time() - cpu0
        outputs.append([rc, out.getvalue(), err.getvalue()])
        calibration += [calibrate(), calibrate()]

    report = {
        "import_s": import_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "calibration_s": statistics.median(calibration),
        "peak_rss_kb": peak_rss_kb(),
        "outputs": outputs,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        report["top_level_self_s"] = tracer.top_level_self_s()
        report["absent"] = tracer.absent
        tracer.write_spans(spec["spans"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
