"""A computation on a truncated domain reads its law and cone from the
domain; no public function may take them a second time beside it."""

import inspect

import pytest

from conewalk import harmonic, montecarlo, solver, verify
from conewalk.solver import TruncatedDomain


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


def _takes_domain(param) -> bool:
    ann = param.annotation
    return ann is TruncatedDomain or TruncatedDomain in getattr(ann, "__args__", ())


@pytest.mark.parametrize("mod", [solver, harmonic, montecarlo, verify],
                         ids=lambda m: m.__name__)
def test_no_model_beside_a_domain(mod):
    doubled = []
    for name, fn in _public_functions(mod):
        params = inspect.signature(fn, eval_str=True).parameters.values()
        if any(_takes_domain(p) for p in params):
            extra = {p.name for p in params} & {"law", "cone"}
            if extra:
                doubled.append(f"{name} takes {sorted(extra)}")
    assert not doubled
