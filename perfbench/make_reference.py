"""Generate the reference brackets the benchmark checks outputs against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

For every (model, radius, branch) a harmonic workload can draw, at full
and at smoke size, this runs the CLI once and stores, in
``perfbench/reference/<size>.json``, the state count, the report's
``max_scaled_bracket_width`` and inconclusive count, and the brackets at
``N_PROBES`` probe states.  The probes are CSV rows drawn with a fixed
seed, so they fall across the whole domain (walls, interior and the
truncation edge) rather than on the rows' layout.  Each probe also
stores the magnitude of the terms its bracket is computed from
(``|lead| + max(|lo|, |hi|)``, where ``h = lead - exit expectation``), which
scales the rounding slack of the comparison.  Regenerate only when the
meaning of a field changes, never to make a check pass.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run

N_PROBES = 24
PROBE_SEED = 0


def _probes(rows: list[str], normal) -> list[list]:
    picks = sorted(random.Random(PROBE_SEED).sample(range(len(rows)), N_PROBES))
    probes = []
    for i in picks:
        x, y, lo, hi, _kind, a1, a2 = rows[i].split(",")
        x, y, lo, hi = int(x), int(y), float(lo), float(hi)
        lead = math.exp(float(a1) * x + float(a2) * y)
        if normal is not None:
            lead *= normal[0] * x + normal[1] * y
        probes.append([x, y, lo, hi, abs(lead) + max(abs(lo), abs(hi))])
    return probes


def reference_for(op: run.Op, env, tmp) -> dict:
    from conewalk.cli import parse_config
    res = run.run_op(op, tmp / op.ref_key.replace("|", "_"), env, False,
                     run.OP_TIMEOUT_S)
    out = tmp / op.ref_key.replace("|", "_") / "out"
    if res.error:
        raise SystemExit(f"{op.label}: {res.error}")
    report = json.loads((out / f"{op.model}_harmonic.json").read_text())
    if report["branch"] != op.branch or report["positivity"]["certified_negative"]:
        raise SystemExit(f"{op.label}: unexpected report {report}")
    rows = run.data_lines(out / f"{op.model}_harmonic.csv", "x,y,lo,hi,kind,a1,a2")
    cone = parse_config(run.ROOT / "configs" / f"{op.model}.cfg").cone
    wall = {"endpoint_wall1": 1, "endpoint_wall2": 2}.get(op.branch)
    normal = None if wall is None else tuple(float(v) for v in cone.normal(wall))
    print(f"  {op.label}: {len(rows)} states, {res.wall_s:.2f} s", flush=True)
    return {"rows": len(rows),
            "max_scaled_bracket_width": report["max_scaled_bracket_width"],
            "inconclusive": report["positivity"]["inconclusive"],
            "probes": _probes(rows, normal)}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    tmp_root = run.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=tmp_root))
    try:
        env = run.child_env(tmp)
        for size in ("smoke", "full"):
            table = {}
            for workload, models in (("harmonic-300", run.MODELS),
                                     ("harmonic-450", ("asymmetric",))):
                radius = run.RADIUS[size][workload]
                for model in models:
                    for branch in run.BRANCHES:
                        op = run.harmonic_op(model, radius, branch)
                        table[op.ref_key] = reference_for(op, env, tmp)
            path = run.HERE / "reference" / f"{size}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text("{\n" + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(table.items())) + "\n}\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
