"""Batch command-line front end.

Subcommands parse a small line-oriented config (``key value...`` rows),
dispatch into the library, and write CSV artifacts with a fixed schema.
Output is deterministic for a fixed config and seed: states are visited
in lexicographic order, floats are printed with ``%.17g``, and every CSV
carries header comments naming the tool version, the config hash, and
the tolerance ladder.

Exit codes: 0 success, 1 hard validation or check failure, 2 numerical
non-convergence, 3 I/O, config or input errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cone import (ConeGeometry, _angle_between, build_cone,
                   build_cone_from_angles)
from .errors import DomainSizeError, NonConvergenceError, RangeOverflowError
from .harmonic import build_h, check_positive, spec_for_direction, spec_for_endpoint
from .montecarlo import martin_ratio_table
from .solver import build_domain, harmonicity_residual
from .steplaw import StepLaw, _failed_hypothesis, validate_model
from .tiltgeom import (ANGLE_TOL, CLASSIFY_TOL, LEVEL_TOL, boundary_polyline,
                       normal_direction)

#: Rows per block of the harmonic CSV.  A block's format string, values and
#: text then fit in the heap the solve freed: at radius 450, blocks of
#: 2,048 rows still raised the call's peak by about 0.25 MB, and blocks of
#: 512 do not measurably, at the same speed.
_ROW_BLOCK = 512

TOLERANCE_LADDER = (f"level_residual={LEVEL_TOL:g} angular={ANGLE_TOL:g} "
                    f"boundary_classify={CLASSIFY_TOL:g}")


class ConfigError(ValueError):
    """Config parse failure; the message names the field and line."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for :func:`main` to report as bad input (exit 3);
    argparse would exit with 2, which here means non-convergence."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@dataclass
class ModelConfig:
    """Parsed model: step law, cone, solve radius, seed."""

    law: StepLaw
    cone: ConeGeometry
    radius: int
    seed: int
    source_text: str = ""
    name: str = "model"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()[:16]


def parse_config_text(text: str, name: str = "model") -> ModelConfig:
    atoms: list[list[float]] = []
    cone_dirs = cone_angles = None
    ints: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key == "atom":
                if len(args) != 3:
                    raise ValueError("expects 3 values: dx dy probability")
                atoms.append([int(args[0]), int(args[1]), float(args[2])])
            elif key == "cone_dirs":
                if len(args) != 4:
                    raise ValueError("expects 4 integers: x1 y1 x2 y2")
                cone_dirs = tuple(int(v) for v in args)
            elif key == "cone_angles":
                if len(args) != 2:
                    raise ValueError("expects 2 angles in degrees")
                cone_angles = (float(args[0]), float(args[1]))
            elif key in ("radius", "seed"):
                if len(args) != 1:
                    raise ValueError("expects 1 integer")
                ints[key] = int(args[0])
            else:
                raise ValueError("unknown key")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None
    if not atoms:
        raise ConfigError("missing field 'atom': at least one step is required")
    if (cone_dirs is None) == (cone_angles is None):
        raise ConfigError("exactly one of 'cone_dirs' or 'cone_angles' is required")
    radius, seed = ints.get("radius"), ints.get("seed", 0)
    if radius is None:
        raise ConfigError("missing field 'radius'")
    try:
        law = StepLaw.from_triples(atoms)
    except ValueError as exc:
        raise ConfigError(f"field 'atom': {exc}") from None
    try:
        cone = (build_cone(cone_dirs[:2], cone_dirs[2:]) if cone_dirs is not None
                else build_cone_from_angles(*cone_angles))
    except ValueError as exc:
        cone_key = "cone_dirs" if cone_dirs is not None else "cone_angles"
        raise ConfigError(f"field {cone_key!r}: {exc}") from None
    if radius < 2 * law.max_jump:
        raise ConfigError(f"field 'radius': {radius} is below twice the "
                          f"max jump {law.max_jump}")
    return ModelConfig(law=law, cone=cone, radius=radius, seed=seed,
                       source_text=text, name=name)


def parse_config(path: str | Path) -> ModelConfig:
    p = Path(path)
    return parse_config_text(p.read_text(), name=p.stem)


# -- output helpers ----------------------------------------------------------


@contextmanager
def _open_csv(path: Path, cfg: ModelConfig, comments: list[str],
              header: list[str]):
    """An open CSV file with its header comments and column names written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# conewalk {__version__}\n"
                 f"# config_sha256 {cfg.config_hash}\n"
                 f"# tolerances {TOLERANCE_LADDER}\n")
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(header) + "\n")
        yield fh


def _write_csv(path: Path, cfg: ModelConfig, comments: list[str],
               header: list[str], rows) -> None:
    """Floats (np.float64 too) print with %.17g, anything else with str; a
    field holding a comma, quote or newline is quoted as ``csv`` reads it."""
    with _open_csv(path, cfg, comments, header) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([("%.17g" % v) if isinstance(v, float) else str(v)
                          for v in row] for row in rows)


def _harmonic_rows(h, spec):
    """The ``x,y,lo,hi,kind,a1,a2`` lines of the spec's field ``h``, one ``%``
    format per block of ``_ROW_BLOCK`` states.  ``kind,a1,a2`` (the branch and
    the tilt) is the same on every row, so it is formatted once and only the
    block's numbers, as lists, go through the format."""
    tail = "harmonic_%s,%.17g,%.17g\n" % (
        "interior" if spec.wall is None else f"wall{spec.wall}", *spec.tilt.a)
    row = "%d,%d,%.17g,%.17g," + tail.replace("%", "%%")
    for start in range(0, h.domain.n_states, _ROW_BLOCK):
        part = slice(start, start + _ROW_BLOCK)
        xs, ys = h.domain.states[part].T.tolist()
        flat = [None] * (4 * len(xs))
        flat[0::4], flat[1::4] = xs, ys
        flat[2::4], flat[3::4] = h.lo[part].tolist(), h.hi[part].tolist()
        yield (row * len(xs)) % tuple(flat)


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else Path(".")


# -- subcommands -------------------------------------------------------------


def cmd_validate(cfg: ModelConfig, args) -> int:
    report = validate_model(cfg.law, cfg.cone, box_radius=args.box_radius)
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
        print("validation:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_boundary(cfg: ModelConfig, args) -> int:
    n = 64 if args.samples is None else args.samples
    rows = boundary_polyline(cfg.law, n)
    comments = []
    for wall in (1, 2):
        ep = spec_for_endpoint(cfg.law, cfg.cone, wall).tilt
        ang = _angle_between(normal_direction(ep), cfg.cone.ray(wall))
        comments.append(f"arc_endpoint_{wall} "
                        f"a=({ep.a[0]:.17g},{ep.a[1]:.17g}) "
                        f"level_residual={ep.value - 1.0:.3e} "
                        f"normal_residual={ang:.3e}")
    out = _out_dir(args) / f"{cfg.name}_boundary.csv"
    _write_csv(out, cfg, comments, ["a1", "a2", "q1", "q2"],
               (tuple(float(v) for v in row) for row in rows))
    if not args.quiet:
        print(f"wrote {out}")
    return 0


def _parse_direction(text: str) -> np.ndarray:
    try:
        qx, qy = map(float, text.split(","))
        return np.array([qx, qy])
    except ValueError:
        raise ValueError(f"--q {text!r} must be 'qx,qy' with real qx and qy") from None


def _parse_radii(text: str) -> list[float]:
    try:
        return [float(r) for r in text.split(",")]
    except ValueError:
        raise ValueError(f"--radii {text!r} must be comma-separated reals "
                         "'r1,r2,...'") from None


def cmd_harmonic(cfg: ModelConfig, args) -> int:
    radius = cfg.radius if args.radius is None else args.radius
    domain = build_domain(cfg.cone, cfg.law, radius)
    if args.endpoint:
        spec = spec_for_endpoint(cfg.law, cfg.cone, int(args.endpoint))
    elif args.q:
        spec = spec_for_direction(cfg.law, cfg.cone, _parse_direction(args.q))
    else:
        spec = spec_for_direction(cfg.law, cfg.cone, cfg.law.drift())
    h = build_h(spec, domain)
    residual = harmonicity_residual(h)
    positivity = check_positive(h)
    scale = np.exp(-(domain.states.astype(float) @ spec.tilt.a))
    max_scaled_width = float((h.width * scale).max())
    out = _out_dir(args) / f"{cfg.name}_harmonic.csv"
    comments = [f"branch {spec.branch}",
                f"tilt a=({spec.tilt.a[0]:.17g},{spec.tilt.a[1]:.17g})",
                f"radius {radius}"]
    with _open_csv(out, cfg, comments,
                   ["x", "y", "lo", "hi", "kind", "a1", "a2"]) as fh:
        fh.writelines(_harmonic_rows(h, spec))
    diagnostics = {
        "branch": spec.branch,
        "warning": spec.warning,
        "tilt": [float(spec.tilt.a[0]), float(spec.tilt.a[1])],
        "radius": radius,
        "residual": {
            "n_evaluated": residual.n_evaluated,
            "max_residual": residual.max_residual,
            "relative_excess": residual.relative_excess,
        },
        "positivity": {
            "certified_positive": positivity.n_certified_positive,
            "inconclusive": positivity.n_inconclusive,
            "certified_negative": positivity.n_certified_negative,
        },
        "max_scaled_bracket_width": max_scaled_width,
        "advice": ("increase the radius to tighten the truncation brackets"
                   if positivity.n_inconclusive > 0 else None),
    }
    report_path = _out_dir(args) / f"{cfg.name}_harmonic.json"
    report_path.write_text(json.dumps(diagnostics, indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        print(f"wrote {out} and {report_path}")
    return 0 if positivity.clean else 1


def cmd_martin(cfg: ModelConfig, args) -> int:
    radius = cfg.radius if args.radius is None else args.radius
    q = _parse_direction(args.q) if args.q else cfg.law.drift()
    radii = _parse_radii(args.radii) if args.radii else \
        [radius * f for f in (0.3, 0.5, 0.7)]
    if args.probes:
        probes = [_parse_probe(chunk) for chunk in args.probes.split(";")]
    else:
        probes = _default_probes(cfg, 3)
    rows = martin_ratio_table(build_domain(cfg.cone, cfg.law, radius), q,
                              radii, probes)
    out = _out_dir(args) / f"{cfg.name}_martin.csv"
    _write_csv(out, cfg, [f"reference state {probes[0]}"],
               ["r", "target_x", "target_y", "probe_x", "probe_y",
                "green_ratio", "h_ratio", "degenerate"],
               ((r.radius, r.target[0], r.target[1], r.probe[0], r.probe[1],
                 r.green_ratio, r.h_ratio, int(r.degenerate)) for r in rows))
    if not args.quiet:
        print(f"wrote {out}")
    return 0


def _parse_probe(chunk: str) -> tuple[int, int]:
    try:
        x, y = map(int, chunk.split(","))
    except ValueError:
        raise ValueError(f"probe {chunk!r} must be 'x,y' with integer "
                         "x and y") from None
    return x, y


def _default_probes(cfg: ModelConfig, count: int) -> list[tuple[int, int]]:
    """A few interior states near the vertex, lexicographically first."""
    domain = build_domain(cfg.cone, cfg.law, max(2 * cfg.law.max_jump, 8))
    pts = domain.states[:count]
    return [(int(x), int(y)) for x, y in pts]


def cmd_verify(cfg: ModelConfig, args) -> int:
    from . import verify
    specs = verify.boundary_specs(cfg.law, cfg.cone)
    results = verify.run_model_suite(
        specs, cfg.seed, verify.MC_SAMPLES if args.samples is None else args.samples,
        verify.MC_HORIZON if args.horizon is None else args.horizon)
    rows = []
    mc_rows = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        if not args.quiet:
            print(f"[{status}] {r.number}. {r.name} ({r.seconds:.1f}s) {r.detail}")
        # Timings stay off the artifact so reruns are byte-identical.
        rows.append((r.number, r.name, status, r.detail))
        mc_rows.extend(r.mc_rows)
    if args.out:
        out = _out_dir(args) / f"{cfg.name}_verify.csv"
        _write_csv(out, cfg, [], ["criterion", "name", "status", "detail"],
                   rows)
        est_out = _out_dir(args) / f"{cfg.name}_mc_estimates.csv"
        _write_csv(est_out, cfg, [],
                   ["operation", "params", "mean", "stderr", "n",
                    "truncated_fraction"],
                   mc_rows + verify.overshoot_rows(specs[:2], cfg.seed))
        if not args.quiet:
            print(f"wrote {out} and {est_out}")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _Parser(
        prog="conewalk",
        description="Killed random walks in planar convex lattice cones: "
                    "harmonic functions, certified brackets, experiments.")
    parser.add_argument("--config", required=True, help="model config file")

    def add_shared(target, suppress):
        # Shared flags are accepted both before and after the subcommand;
        # post-subcommand occurrences win via SUPPRESS defaults.
        d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
        target.add_argument("--out", default=d(None),
                            help="output directory for CSV artifacts")
        target.add_argument("--radius", type=int, default=d(None),
                            help="override the solve radius")
        target.add_argument("--seed", type=int, default=d(None),
                            help="override the config seed")
        target.add_argument("--samples", type=int, default=d(None),
                            help="sample count for MC checks")
        target.add_argument("--horizon", type=int, default=d(None),
                            help="simulation horizon")
        target.add_argument("--quiet", action="store_true", default=d(False))

    add_shared(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name)
               for name in ("validate", "boundary", "harmonic", "martin",
                            "verify")}
    for p in parsers.values():
        add_shared(p, suppress=True)
    parsers["validate"].add_argument("--box-radius", type=int, default=30)
    tilt_choice = parsers["harmonic"].add_mutually_exclusive_group()
    tilt_choice.add_argument("--endpoint", choices=["1", "2"])
    tilt_choice.add_argument("--q", help="normal direction 'qx,qy'")
    parsers["martin"].add_argument("--q",
                                   help="direction 'qx,qy' (default: drift)")
    parsers["martin"].add_argument("--radii",
                                   help="comma-separated target radii")
    parsers["martin"].add_argument("--probes",
                                   help="semicolon-separated probes 'x,y;x,y'")
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    if args.seed is not None:
        cfg.seed = args.seed

    handlers = {
        "validate": cmd_validate,
        "boundary": cmd_boundary,
        "harmonic": cmd_harmonic,
        "martin": cmd_martin,
        "verify": cmd_verify,
    }
    try:
        if args.command != "validate" and (failed := _failed_hypothesis(cfg.law)):
            raise ValueError(failed)  # validate reports on any model
        return handlers[args.command](cfg, args)
    except NonConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (DomainSizeError, RangeOverflowError, ValueError, KeyError) as exc:
        # Input only the library can reject: a domain over the state cap, a
        # radius whose payoff overflows, a direction outside the sector, a
        # malformed option, a probe off the domain.  KeyError's str()
        # quotes its message, so print args[0].
        print(f"invalid input: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
