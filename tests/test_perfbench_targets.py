"""The benchmark's traced pass wraps quadrep functions by name
(``perfbench/spans.py``, ``TARGETS``), and its sweep workload counts the
cells of each convergence table with its own copy of the method table
(``perfbench/workloads.py``).  A refactor that drops or renames a wrapped
function, or changes which K a method reaches, must fail here, not only in a
benchmark run."""
import importlib
import importlib.util
import sys
from pathlib import Path

from quadrep import selection

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered while it runs: its dataclasses look their module up there
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def benchmark_targets():
    return [(module, attr) for module, attr, *_ in _load("spans").TARGETS]


def test_every_benchmark_target_resolves():
    missing = []
    for module, attr in benchmark_targets():
        # resolved as the benchmark does: the path by attribute, the wrapped
        # function in its owner's own namespace
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(leaf) if owner is not None else None):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench wraps names quadrep no longer defines: {missing}"


def test_sweep_cell_counts_match_the_method_table():
    workloads = _load("workloads")
    assert workloads.METHODS == selection.METHODS
    cells = 0
    for fn, methods, kmax in workloads.SWEEP_TABLES:
        for method in methods:
            ks = selection.achievable_k(method, workloads.SWEEP_KMIN, kmax)
            assert workloads.achievable_k(method, workloads.SWEEP_KMIN, kmax) == ks, \
                f"{fn} {method} kmax={kmax}"
            cells += len(ks)
    assert cells == 417
