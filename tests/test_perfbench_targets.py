"""The benchmark's traced pass wraps quadrep functions by name
(``perfbench/spans.py``, ``TARGETS``).  A refactor that drops or renames one
of them must fail here, not only in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def benchmark_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS]


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
