"""Self-test of the benchmark harness, mostly at smoke size (about three minutes).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py``
reports; that the bracket checks accept rounding-level changes and reject
a missed, a widened or a negative bracket at an interior probe state; that
every exact-count counter repeats across two traced runs with the same seed
(the sweep count at full size, since sweeps happen only above
``DIRECT_LIMIT``); that pinning values
outside 1..nproc are refused; and that the harness fails without output
in a directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(*args: str, env=None, cwd=None) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd or run.ROOT, env=env, capture_output=True,
                          text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return out if set(out) == {"correct", "attempted", "failed", "metrics"} else None


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
          "BENCHMARK.json per_layer matches run.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")


def test_bracket_checks(tmp: Path) -> None:
    probe = [3, 4, 1.0, 1.5, 10.0]
    check(run.compare_probe(probe, 1.0, 1.5) is None, "identical bracket accepted")
    check(run.compare_probe(probe, 1.0 - 1e-12, 1.5 + 1e-12) is None,
          "rounding-level widening accepted")
    check(run.compare_probe(probe, 1.6, 1.7) is not None, "disjoint bracket rejected")
    check(run.compare_probe(probe, 0.9, 1.5) is not None, "wider bracket rejected")

    op = run.harmonic_op("quadrant", run.RADIUS["smoke"]["harmonic-300"], "endpoint1")
    refs = run.load_refs("smoke", [op])
    env = run.child_env(tmp)
    res = run.run_op(op, tmp / "op", env, False, run.OP_TIMEOUT_S)
    out = tmp / "op" / "out"
    run.check_op(res, out, refs)
    check(res.ok, f"smoke output passes its checks {res.error}")
    csv = out / "quadrant_harmonic.csv"
    good = csv.read_text()
    # Edit the probe farthest from the walls and the truncation edge, so
    # the check is shown to reach interior states.
    radius = run.RADIUS["smoke"]["harmonic-300"]
    x, y = max((p[:2] for p in refs[op.ref_key]["probes"]),
               key=lambda xy: min(xy[0], xy[1], radius + 1 - xy[0], radius + 1 - xy[1]))
    check(min(x, y, radius + 1 - x, radius + 1 - y) > radius // 4,
          f"reference has an interior probe ({x},{y})")
    for label, edit in (("shifted", lambda lo, hi: (lo * 3 + 1, hi * 3 + 1)),
                        ("widened", lambda lo, hi: (lo - 1e-3, hi + 1e-3)),
                        ("negative", lambda lo, hi: (-2.0, -1.0))):
        lines = good.splitlines()
        for i, line in enumerate(lines):
            parts = line.split(",")
            if parts[:2] == [str(x), str(y)]:
                lo, hi = edit(float(parts[2]), float(parts[3]))
                parts[2:4] = [repr(lo), repr(hi)]
                lines[i] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        bad = run.OpResult(op, 0.0, 0.0, 0.0, True)
        run.check_op(bad, out, refs)
        check(not bad.ok, f"{label} interior probe bracket rejected: {bad.error}")
    csv.write_text(good)


def test_traced_counts_repeat() -> None:
    names = [n for n, _ in run.PER_LAYER]
    for workload in run.WORKLOADS:
        runs = []
        for _ in range(2):
            rc, lines = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", "1", "--smoke")
            runs.append(result_of(lines) if rc == 0 else None)
        check(all(r and r["correct"] and r["failed"] == 0 for r in runs),
              f"{workload}: two traced smoke runs succeed")
        if not all(runs):
            continue
        check(all(list(r["metrics"]) == names for r in runs),
              f"{workload}: traced run reports every per-layer metric")
        for key in tracer.EXACT_COUNTS:
            a, b = (r["metrics"][key]["value"] for r in runs)
            check(a == b, f"{workload}: {key} repeats exactly ({a} vs {b})")


def test_sweep_count_repeats(tmp: Path) -> None:
    """Sweeps happen only above DIRECT_LIMIT, so this one runs at full size."""
    op = run.harmonic_op("asymmetric", run.RADIUS["full"]["harmonic-450"], "endpoint1")
    env = run.child_env(tmp)
    counts = []
    for i in range(2):
        res = run.run_op(op, tmp / f"sweeps{i}", env, True, run.OP_TIMEOUT_S)
        counts.append(res.layers["solver.sweep_count"] if res.ok and res.layers else None)
    check(counts[0] is not None and counts[0] > 0 and counts[0] == counts[1],
          f"harmonic-450 at R=450: solver.sweep_count repeats exactly ({counts})")


def test_end_to_end_run() -> None:
    rc, lines = bench("--workload", "harmonic-450", "--seed", "3", "--seconds", "1",
                      "--smoke")
    res = result_of(lines)
    check(rc == 0 and res is not None and res["correct"], "untraced smoke run succeeds")
    if res:
        check(list(res["metrics"]) == [n for n, _ in run.END_TO_END]
              and all(m["value"] > 0 for m in res["metrics"].values()),
              "untraced run reports every end-to-end metric, each above 0")
    check(any(line.startswith("env ") and '"pinning"' in line for line in lines),
          "environment is recorded with the result")


def test_refusals(tmp: Path) -> None:
    env = dict(os.environ, OMP_NUM_THREADS="999")
    rc, lines = bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                      "--smoke", env=env)
    check(rc != 0 and result_of(lines) is None, "pinning above nproc is refused")

    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("--workload", "harmonic-300", "--seed", "1", "--seconds", "1",
                      cwd=bare)
    check(rc != 0 and result_of(lines) is None,
          "fails without a result when only the benchmark files are present")


def main() -> int:
    tmp_root = run.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=tmp_root))
    try:
        test_benchmark_json()
        test_bracket_checks(tmp)
        test_end_to_end_run()
        test_refusals(tmp)
        test_traced_counts_repeat()
        test_sweep_count_repeats(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
