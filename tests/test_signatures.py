"""A computation reads its model from the one record that carries it.

On a truncated domain the law and cone come from the domain, a
:class:`TiltPoint` carries the law it was made for, and for a solved
boundary tilt the law, cone and wall come from its :class:`HarmonicSpec`;
no public function may take them a second time beside any of these, nor
name a wall of a law and cone instead of taking the endpoint spec.  The
verification suite takes its model from the specs, not from the command
line's parsed config.
"""

import dataclasses
import inspect

import pytest

from conewalk import (build_cone, cli, cone, harmonic, montecarlo,
                      quadrant_reference, solver, steplaw, tilt_point,
                      tiltgeom, verify)
from conewalk.harmonic import (HarmonicSpec, spec_for_direction,
                               spec_for_endpoint)
from conewalk.solver import TruncatedDomain
from conewalk.tiltgeom import TiltPoint

MODULES = (cli, cone, harmonic, montecarlo, quadrant_reference, solver,
           steplaw, tiltgeom, verify)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for meth, fn in vars(obj).items():
                fn = getattr(fn, "__func__", fn)
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{meth}", fn


def _takes(param, cls) -> bool:
    ann = param.annotation
    return ann is cls or cls in getattr(ann, "__args__", ())


@pytest.mark.parametrize("mod", [solver, harmonic, montecarlo, verify],
                         ids=lambda m: m.__name__)
def test_no_model_beside_a_domain(mod):
    doubled = []
    for name, fn in _public_functions(mod):
        params = inspect.signature(fn, eval_str=True).parameters.values()
        if any(_takes(p, TruncatedDomain) for p in params):
            extra = {p.name for p in params} & {"law", "cone"}
            if extra:
                doubled.append(f"{name} takes {sorted(extra)}")
    assert not doubled


@pytest.mark.parametrize("mod", [harmonic, montecarlo, verify],
                         ids=lambda m: m.__name__)
def test_no_model_beside_a_spec(mod):
    doubled = []
    for name, fn in _public_functions(mod):
        params = inspect.signature(fn, eval_str=True).parameters.values()
        names = {p.name for p in params}
        if any(_takes(p, HarmonicSpec) for p in params):
            extra = names & {"law", "cone", "wall"}
            if extra:
                doubled.append(f"{name} takes {sorted(extra)}")
        elif {"law", "cone", "wall"} <= names and fn is not spec_for_endpoint:
            doubled.append(f"{name} solves an endpoint tilt a spec carries")
    assert not doubled


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_no_law_beside_a_tilt_point(mod):
    doubled = []
    for name, fn in _public_functions(mod):
        params = inspect.signature(fn, eval_str=True).parameters
        if "law" in params and any(_takes(p, TiltPoint) for p in params.values()):
            doubled.append(name)
    assert not doubled


@pytest.mark.parametrize("fn", [
    solver.exit_expectation, solver.survival_probability,
    solver.TruncatedDomain.solve, montecarlo.absorption_crosscheck,
    harmonic.classify_spec, tiltgeom.normal_direction,
    tiltgeom.epsilon_for_delta, tiltgeom.wall_decay_exponent,
    solver.FarBounds.build], ids=lambda fn: fn.__qualname__)
def test_a_tilt_enters_as_a_point(fn):
    params = inspect.signature(fn, eval_str=True).parameters.values()
    assert any(_takes(p, TiltPoint) for p in params)


def test_verify_takes_no_config():
    takes = [name for name, fn in _public_functions(verify)
             if "cfg" in inspect.signature(fn).parameters]
    assert not takes


def test_spec_reads_its_law_from_its_tilt(law5, quadrant_cone):
    for spec in (spec_for_endpoint(law5, quadrant_cone, 1),
                 spec_for_direction(law5, quadrant_cone, (1.0, 1.0))):
        assert spec.law is spec.tilt.law
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.law = law5
    assert "law" not in {f.name for f in dataclasses.fields(HarmonicSpec)}


def test_records_compare_and_hash_by_identity(law5, quadrant_cone):
    # Their array fields make a field-wise == ambiguous, so each record
    # is equal only to itself, and hashes.
    spec = spec_for_endpoint(law5, quadrant_cone, 1)
    twins = [(spec.tilt, tilt_point(law5, spec.tilt.a)),
             (spec, dataclasses.replace(spec)),
             (quadrant_cone, build_cone((0, 1), (1, 0)))]
    for record, twin in twins:
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert len({record, twin, record}) == 2


def test_public_parameter_count():
    # Every public function and method of the nine modules, self included:
    # a change to the public API edits this number in the same diff.
    assert sum(len(inspect.signature(fn).parameters)
               for mod in MODULES for _, fn in _public_functions(mod)) == 163
