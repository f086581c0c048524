"""Benchmark of the ``conewalk`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload harmonic-300 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload verify --seed 1 --seconds 1 --trace 1 --smoke

Load shape: a closed loop with one client.  Each operation is one
``python -m conewalk.cli ...`` call in a fresh process with
``PYTHONPATH=src``; operations run one after another, so interpreter
start-up and imports are counted, and no in-process cache carries over
between calls.  A pass is a fixed list of operations, and a workload's
cycle is a fixed list of passes; passes follow the cycle round and round
until ``--seconds`` would be exceeded, and the first cycle always runs.  The
seed only generates CLI arguments.  Every operation's outputs are checked
(see ``check_harmonic`` and ``check_verify``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` each pass runs once untraced and once under the tracer,
whole cycles only, and the last line reports the per-layer metrics.
``--smoke`` runs every workload's code path at a tiny size, for checking
the harness itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

WORKLOADS = ("harmonic-300", "harmonic-450", "verify")
MODELS = ("asymmetric", "quadrant", "cone45")

#: Interior normals are drawn at these fractions of the sector angle, so
#: the reference brackets of every seed can be generated in advance.
Q_FRACTIONS = (0.2, 0.32, 0.44, 0.56, 0.68, 0.8)
BRANCHES = ("endpoint1", "endpoint2") + tuple(f"q{k}" for k in range(len(Q_FRACTIONS)))

RADIUS = {"full": {"harmonic-300": 300, "harmonic-450": 450},
          "smoke": {"harmonic-300": 30, "harmonic-450": 45}}
VERIFY_MODELS = {"full": MODELS, "smoke": ("quadrant",)}
VERIFY_FLAGS = {"full": [], "smoke": ["--samples", "2000", "--horizon", "2000"]}

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 9
OP_TIMEOUT_S = 90.0
#: No operation starts after this many seconds of a run, so a run ends
#: within the 180 s the harness promises even when a pass slows down.
RUN_BUDGET_S = 150.0

#: Rounding-level slack of the bracket comparisons, relative to the
#: magnitude of the terms a bracket is computed from.
REL_SLACK = 1e-9

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cli.startup_s", "s"), ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("solver.domain_s", "s"), ("solver.domain_states", "count"),
    ("solver.factor_s", "s"), ("solver.factor_count", "count"),
    ("solver.matrix_nnz", "count"), ("solver.lu_fill_nnz", "count"),
    ("solver.solve_s", "s"), ("solver.solve_count", "count"),
    ("solver.sweep_s", "s"), ("solver.sweep_count", "count"),
    ("solver.farbounds_s", "s"), ("solver.assemble_s", "s"),
    ("solver.residual_s", "s"),
    ("tiltgeom.point_with_normal_s", "s"), ("tiltgeom.point_with_normal_calls", "count"),
    ("tiltgeom.level_shift_s", "s"), ("tiltgeom.level_shift_calls", "count"),
    ("steplaw.mgf_evals", "count"),
    ("harmonic.spec_s", "s"), ("harmonic.build_h_self_s", "s"),
    ("harmonic.positivity_s", "s"), ("harmonic.cross_exit_s", "s"),
    ("harmonic.bracket_width_max", "scaled"), ("harmonic.inconclusive_states", "count"),
    ("montecarlo.absorption_s", "s"), ("montecarlo.overshoot_s", "s"),
    ("montecarlo.irreducibility_s", "s"),
    ("montecarlo.draw_calls", "count"), ("montecarlo.draws", "count"),
    ("montecarlo.draws_per_call", "ratio"),
    ("montecarlo.paths", "count"), ("montecarlo.censored_paths", "count"),
    ("montecarlo.censored_frac", "ratio"),
    ("cone.contains_s", "s"), ("cone.contains_calls", "count"),
    *((f"verify.c{k}_s", "s") for k in range(1, 11)),
    ("verify.suite_self_s", "s"),
    ("quadrant_reference.s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


class Refused(Exception):
    """The run cannot produce a trustworthy result; nothing is reported."""


# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    label: str
    model: str
    kind: str            # "harmonic" | "verify"
    args: tuple          # CLI arguments after --config/--out/--quiet
    ref_key: str = ""
    branch: str = ""     # expected "branch" of the harmonic report


def _cone_dirs(model: str) -> tuple[float, float, float, float]:
    for line in (ROOT / "configs" / f"{model}.cfg").read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "cone_dirs":
            return tuple(float(v) for v in parts[1:5])
    raise Refused(f"configs/{model}.cfg has no cone_dirs line")


def interior_q(model: str, k: int) -> str:
    """The normal at fraction ``Q_FRACTIONS[k]`` of the sector, 'qx,qy'."""
    x1, y1, x2, y2 = _cone_dirs(model)
    t1 = math.atan2(y1, x1)
    sweep = (math.atan2(y2, x2) - t1 + math.pi) % (2.0 * math.pi) - math.pi
    t = t1 + Q_FRACTIONS[k] * sweep
    return f"{math.cos(t):.6f},{math.sin(t):.6f}"


def harmonic_op(model: str, radius: int, branch: str) -> Op:
    args = ["harmonic", "--radius", str(radius)]
    if branch.startswith("endpoint"):
        args += ["--endpoint", branch[-1]]
        expected = f"endpoint_wall{branch[-1]}"
    else:
        args.append(f"--q={interior_q(model, int(branch[1:]))}")
        expected = "interior"
    key = f"{model}|{radius}|{branch}"
    return Op(label=f"harmonic {model} R={radius} {branch}", model=model,
              kind="harmonic", args=tuple(args), ref_key=key, branch=expected)


def workload_cycle(workload: str, seed: int, size: str) -> list[list[Op]]:
    """The passes of one cycle; the seed only picks CLI arguments.

    ``harmonic-450`` has one call per pass, so its cycle runs the two
    endpoints in a seeded order and then a seeded interior normal.  Some
    normals need a third more sweeps than the rest; as at most a third of
    the passes are interior, the median pass does not depend on which
    normal the seed draws, and as every run covers the cycle, the peak RSS
    is taken over the same three calls in every run.
    """
    rng = random.Random(seed)
    if workload == "harmonic-300":
        ops = []
        for model in MODELS:
            k = rng.randrange(len(Q_FRACTIONS))
            ops += [harmonic_op(model, RADIUS[size][workload], b)
                    for b in ("endpoint1", "endpoint2", f"q{k}")]
        return [ops]
    if workload == "harmonic-450":
        k = rng.randrange(len(Q_FRACTIONS))
        branches = rng.sample(["endpoint1", "endpoint2"], 2) + [f"q{k}"]
        return [[harmonic_op("asymmetric", RADIUS[size][workload], b)]
                for b in branches]
    if workload == "verify":
        cli_seed = seed % (1 << 32)
        return [[Op(label=f"verify {model} seed={cli_seed}", model=model, kind="verify",
                    args=("--seed", str(cli_seed), *VERIFY_FLAGS[size], "verify"))
                 for model in VERIFY_MODELS[size]]]
    raise ValueError(f"unknown workload {workload!r}")


def load_refs(size: str, ops: list[Op]) -> dict:
    table = json.loads((HERE / "reference" / f"{size}.json").read_text())
    missing = [op.ref_key for op in ops if op.ref_key and op.ref_key not in table]
    if missing:
        raise Refused(f"no reference brackets for {missing}")
    return {op.ref_key: table[op.ref_key] for op in ops if op.ref_key}


# -- environment --------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(tmp: Path) -> dict:
    """Environment of every CLI process: thread pinning, PYTHONPATH=src.

    An unset pinning variable is set to 1: on a small shared machine one
    BLAS thread is both faster and steadier for these calls than two.
    """
    env = dict(os.environ)
    limit = nproc()
    for var in PIN_VARS:
        value = env.setdefault(var, "1")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            raise Refused(f"{var}={value!r}: thread pinning must be an integer "
                          f"from 1 to nproc={limit}")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    for var in ("PERFBENCH_TRACE_OUT", "PERFBENCH_OP_ID", "PERFBENCH_LAUNCH_T"):
        env.pop(var, None)
    return env


WARM_UP = """
import json, platform, numpy, scipy, conewalk.cli
def blas(mod):
    try:
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except Exception:
        return None
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "openblas_numpy": blas(numpy),
                  "openblas_scipy": blas(scipy)}))
"""


def warm_up(env: dict) -> dict:
    """Import the package once in a child (fills the byte-code and page
    caches) and report the library versions it sees."""
    out = subprocess.run([sys.executable, "-c", WARM_UP], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise Refused(f"cannot import conewalk: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- one operation --------------------------------------------------------------


@dataclass
class OpResult:
    op: Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    error: str = ""
    bytes_written: int = 0
    bracket_width: float = 0.0
    inconclusive: int = 0
    layers: dict | None = None


def run_op(op: Op, op_dir: Path, env: dict, traced: bool,
           timeout: float) -> OpResult:
    """Run one CLI call; ``ok`` means it exited 0 within ``timeout``."""
    out_dir = op_dir / "out"
    out_dir.mkdir(parents=True)
    cfg = str(ROOT / "configs" / f"{op.model}.cfg")
    cli_args = ["--config", cfg, "--out", str(out_dir), "--quiet", *op.args]
    env = dict(env)
    if traced:
        trace_path = op_dir / "trace.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), *cli_args]
        env["PERFBENCH_TRACE_OUT"] = str(trace_path)
        env["PERFBENCH_OP_ID"] = op_dir.name
    else:
        cmd = [sys.executable, "-m", "conewalk.cli", *cli_args]
    killed = threading.Event()
    with open(op_dir / "stdio.log", "wb") as log:
        env["PERFBENCH_LAUNCH_T"] = repr(time.time())
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = OpResult(op=op, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, ok=False)
    res.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
    if killed.is_set():
        res.error = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = (op_dir / "stdio.log").read_text(errors="replace").strip()[-300:]
        res.error = f"exit code {proc.returncode}: {tail}"
    else:
        res.ok = True
    if traced and (op_dir / "trace.json").exists():
        res.layers = tracer.op_layer_metrics(
            json.loads((op_dir / "trace.json").read_text()))
    return res


def check_op(res: OpResult, out_dir: Path, refs: dict) -> None:
    """Check a finished call's outputs; a failed check fails the op."""
    if not res.ok:
        return
    try:
        if res.op.kind == "harmonic":
            res.bracket_width, res.inconclusive = check_harmonic(
                out_dir, res.op, refs[res.op.ref_key])
        else:
            check_verify(out_dir, res.op)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        res.ok = False
        res.error = f"check failed: {exc}"


# -- correctness checks ---------------------------------------------------------


class CheckFailed(Exception):
    pass


def data_lines(path: Path, header: str) -> list[str]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header is not {header!r}")
    return lines[1:]


def compare_probe(probe, lo: float, hi: float) -> str | None:
    """Why a bracket disagrees with its reference, or None.

    Certified brackets of two correct programs contain the same value, so
    they must intersect; a bracket may also be no wider than the one it
    replaces.  Both allow rounding-level slack relative to ``scale``.
    """
    x, y, ref_lo, ref_hi, scale = probe
    slack = REL_SLACK * scale
    if lo > ref_hi + slack or ref_lo > hi + slack:
        return f"({x},{y}) [{lo!r},{hi!r}] misses reference [{ref_lo!r},{ref_hi!r}]"
    if hi - lo > (ref_hi - ref_lo) + slack:
        return (f"({x},{y}) width {hi - lo!r} exceeds reference width "
                f"{ref_hi - ref_lo!r}")
    return None


def check_harmonic(out_dir: Path, op: Op, ref: dict) -> tuple[float, int]:
    """Report and field of one ``harmonic`` call against the reference."""
    report = json.loads((out_dir / f"{op.model}_harmonic.json").read_text())
    if report["branch"] != op.branch:
        raise CheckFailed(f"branch {report['branch']!r}, expected {op.branch!r}")
    if report["positivity"]["certified_negative"] != 0:
        raise CheckFailed(f"{report['positivity']['certified_negative']} "
                          "certified-negative states in the report")
    width = float(report["max_scaled_bracket_width"])
    ref_width = ref["max_scaled_bracket_width"]
    if not width <= ref_width + REL_SLACK * (1.0 + ref_width):
        raise CheckFailed(f"max scaled bracket width {width!r} exceeds "
                          f"reference {ref_width!r}")
    rows = data_lines(out_dir / f"{op.model}_harmonic.csv",
                      "x,y,lo,hi,kind,a1,a2")
    if len(rows) != ref["rows"]:
        raise CheckFailed(f"{len(rows)} states, expected {ref['rows']}")
    wanted = {f"{p[0]},{p[1]}": p for p in ref["probes"]}
    seen = 0
    for row in rows:
        parts = row.split(",")
        lo, hi = float(parts[2]), float(parts[3])
        if hi < 0.0:
            raise CheckFailed(f"certified-negative state ({parts[0]},{parts[1]})")
        probe = wanted.get(f"{parts[0]},{parts[1]}")
        if probe is not None:
            seen += 1
            why = compare_probe(probe, lo, hi)
            if why:
                raise CheckFailed(why)
    if seen != len(wanted):
        raise CheckFailed(f"only {seen} of {len(wanted)} probe states present")
    return width, int(report["positivity"]["inconclusive"])


def check_verify(out_dir: Path, op: Op) -> None:
    """All ten criteria pass in ``<model>_verify.csv``."""
    rows = data_lines(out_dir / f"{op.model}_verify.csv",
                      "criterion,name,status,detail")
    status = {}
    for row in rows:
        parts = row.split(",")
        # Names and details may hold commas; the status is the first
        # field after the name that reads pass or FAIL.
        status[parts[0]] = next((p for p in parts[2:] if p in ("pass", "FAIL")), "?")
    expected = {str(k) for k in range(1, 11)}
    if set(status) != expected:
        raise CheckFailed(f"criteria {sorted(status)} instead of 1..10")
    failed = sorted((k for k, v in status.items() if v != "pass"), key=int)
    if failed:
        raise CheckFailed(f"criteria {failed} did not pass")
    if not (out_dir / f"{op.model}_mc_estimates.csv").is_file():
        raise CheckFailed("no Monte Carlo estimates written")


# -- passes and runs -------------------------------------------------------------


def run_pass(ops, tmp: Path, env, refs, traced: bool, tag: str,
             deadline: float) -> list[OpResult]:
    results = []
    for i, op in enumerate(ops):
        remaining = deadline - time.perf_counter()
        if remaining <= 0.0:
            results.append(OpResult(op, 0.0, 0.0, 0.0, False,
                                    error="not started: run budget spent"))
            continue
        op_dir = tmp / f"{tag}-{i}"
        res = run_op(op, op_dir, env, traced, min(OP_TIMEOUT_S, remaining + 25.0))
        check_op(res, op_dir / "out", refs)
        shutil.rmtree(op_dir, ignore_errors=True)
        results.append(res)
    return results


def pass_summary(results: list[OpResult]) -> dict:
    return {"wall_s": sum(r.wall_s for r in results),
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.rss_mb for r in results),
            "bracket_width_max": max(r.bracket_width for r in results),
            "inconclusive_states": sum(r.inconclusive for r in results),
            "bytes_written": sum(r.bytes_written for r in results)}


def pass_layers(results: list[OpResult]) -> dict:
    total: dict[str, float] = {}
    for r in results:
        for k, v in (r.layers or {}).items():
            total[k] = total.get(k, 0) + v
    tracer.add_ratios(total)
    s = pass_summary(results)
    total["cli.bytes_written"] = s["bytes_written"]
    total["harmonic.bracket_width_max"] = s["bracket_width_max"]
    total["harmonic.inconclusive_states"] = s["inconclusive_states"]
    return total


def setup(workload: str, seed: int, size: str, tmp_root: Path):
    """Everything before the first timed operation; returns its duration."""
    t0 = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    try:
        cycle = workload_cycle(workload, seed, size)
        refs = load_refs(size, [op for ops in cycle for op in ops])
        env = child_env(tmp)
        versions = warm_up(env)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return time.perf_counter() - t0, tmp, cycle, refs, env, versions


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, tmp_root: Path) -> dict:
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            setups.append(setup(workload, seed, size, tmp_root))
        return measure(workload, seed, seconds, trace, size, setups)
    finally:
        for s in setups:
            shutil.rmtree(s[1], ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str, setups: list) -> dict:
    setup_s = statistics.median(s[0] for s in setups)
    _, tmp, cycle, refs, env, versions = setups[-1]
    env_record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "smoke": size == "smoke", "nproc": nproc(),
                  **versions, "pinning": {v: env[v] for v in PIN_VARS}}
    print("env " + json.dumps(env_record, sort_keys=True), flush=True)

    t_start = time.perf_counter()
    deadline = t_start + RUN_BUDGET_S
    plain, traced, all_results = [], [], []
    while True:
        n = len(plain)
        ops = cycle[n % len(cycle)]
        plain.append(run_pass(ops, tmp, env, refs, False, f"p{n}", deadline))
        if trace:
            traced.append(run_pass(ops, tmp, env, refs, True, f"t{n}", deadline))
        all_results += plain[-1] + (traced[-1] if trace else [])
        done = len(plain)
        if done < len(cycle) or (trace and done % len(cycle)):
            # Every run covers the whole cycle; a traced run stops only at
            # the end of a cycle, as per-layer counts are exact only there.
            continue
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(plain) > seconds or time.perf_counter() > deadline:
            break
    for r in all_results:
        mark = "ok  " if r.ok else "FAIL"
        print(f"  {mark} {r.op.label:<40} wall {r.wall_s:7.3f} s  cpu {r.cpu_s:7.3f} s"
              f"  rss {r.rss_mb:7.1f} MB {r.error}", flush=True)
    failed = sum(not r.ok for r in all_results)
    summaries = [pass_summary(p) for p in plain]
    med = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    e2e = {"wall_s": med["wall_s"], "cpu_s": med["cpu_s"], "setup_s": setup_s,
           "peak_rss_mb": max(s["peak_rss_mb"] for s in summaries)}
    print(f"workload {workload} seed {seed}: {len(plain)} pass(es) of a "
          f"{len(cycle)}-pass cycle, {failed} of {len(all_results)} ops failed")
    for name, unit in END_TO_END:
        print(f"  {name:<22} {e2e[name]:.6g} {unit}")
    print(f"  {'ops_failed_frac':<22} {failed / len(all_results):.6g} "
          f"({failed}/{len(all_results)})")
    if workload.startswith("harmonic"):
        print(f"  {'bracket_width_max':<22} "
              f"{max(s['bracket_width_max'] for s in summaries):.6g} scaled")
        print(f"  {'inconclusive_states':<22} {med['inconclusive_states']:.6g} count")

    if trace:
        # Per pass, averaged over a cycle; the median over the cycles run.
        per_cycle = []
        for i in range(0, len(traced), len(cycle)):
            passes = [pass_layers(p) for p in traced[i:i + len(cycle)]]
            per_cycle.append({name: statistics.fmean(p.get(name, 0) for p in passes)
                              for name, _ in PER_LAYER})
        layers = {name: statistics.median(c[name] for c in per_cycle)
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (
            statistics.median(pass_summary(p)["wall_s"] for p in traced) - med["wall_s"])
        print("per-layer (per pass, mean over a cycle, median over cycles; "
              "*_s inclusive unless named self):")
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(all_results), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the harness")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "conewalk" / "cli.py"] + [
        ROOT / "configs" / f"{m}.cfg" for m in MODELS]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: run from the repository root; missing {absent}",
              file=sys.stderr)
        return 2
    # Turn a termination request into SystemExit, so the running CLI call
    # is killed and waited for, and the temp dirs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    size = "smoke" if args.smoke else "full"
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                   size, tmp_root) for w in workloads}
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
