"""The benchmark's contract with the library.

``perfbench/tracing.py`` patches library functions by module attribute
and reads their arguments by name, and ``perfbench/workloads.py`` calls
the library with fixed arguments.  A change that deletes or renames a
traced name, or a parameter that a layer counts, breaks the benchmark
without failing any other test.  Here every traced target must resolve
and take the arguments its layer reads, and one traced repetition of
each workload, seed 3, must pass every gate of its ``check``.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _names_read(fn) -> set[str]:
    """The argument names a layer's counting function reads: the strings
    among its constants, in nested code too, and in its closure."""
    names, codes = set(), [fn.__code__]
    while codes:
        code = codes.pop()
        names |= {c for c in code.co_consts if isinstance(c, str)}
        codes += [c for c in code.co_consts if inspect.iscode(c)]
    names |= {c.cell_contents for c in fn.__closure__ or () if isinstance(c.cell_contents, str)}
    return names - {fn.__doc__}


@pytest.mark.parametrize("layer", tracing.LAYERS, ids=lambda layer: layer.name)
def test_every_traced_target_resolves_and_takes_what_its_layer_reads(layer):
    reads = set()
    for fn in (layer.items, layer.terms):
        if fn is not None:
            reads |= _names_read(fn)
    for module, attr in layer.targets:
        target = getattr(module, attr, None)
        assert callable(target), f"{module.__name__}.{attr} is gone"
        missing = reads - set(inspect.signature(target).parameters)
        assert not missing, f"{module.__name__}.{attr} takes no {sorted(missing)}"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_traced_repetition_passes_every_gate(name):
    wl = workloads.WORKLOADS[name](3)
    tracer = tracing.Tracer()
    raw, _ = tracer.run(wl.run)
    failed = [(op, detail) for op, ok, detail in wl.check(raw).ops if not ok]
    assert not failed
    stats = tracer.layer_stats()
    assert sum(stats[layer.name]["calls"] for layer in tracing.LAYERS) > 0
