import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(path, rows):
    path.parent.mkdir(parents=True)
    path.write_text("# error = relative L2\nmethod,K,error\n"
                    + "".join(f"{m},{k},{e}\n" for m, k, e in rows))


def test_diff_outputs_summarizes_the_moved_cells_of_each_method(tmp_path, capsys):
    diff_outputs = _script("diff_outputs")
    fixed = [("deg0", 2, 0.5), ("deg0", 3, 0.25)]
    before = [("deg2-greedy", 2, 1e-3), ("deg2-greedy", 3, 2e-3),
              ("deg2-greedy", 4, "inf"), ("deg2-greedy", 5, 1e-2), ("deg2-greedy", 6, "nan")]
    after = [("deg2-greedy", 2, 1e-3), ("deg2-greedy", 3, 3e-3),
             ("deg2-greedy", 4, 5e-3), ("deg2-greedy", 5, "nan"), ("deg2-greedy", 6, "nan")]
    a, b = tmp_path / "a", tmp_path / "b"
    _table(a / "t" / "convergence.csv", fixed + before)
    _table(b / "t" / "convergence.csv", fixed + after)
    summary = ("deg2-greedy: 3 cell(s) moved, largest relative move 5.00e-01 at K=3;"
               " finite <-> non-finite: K=4 inf -> 0.005, K=5 0.01 -> nan")
    assert diff_outputs.moved_cells(a / "t" / "convergence.csv",
                                    b / "t" / "convergence.csv") == [summary]
    assert diff_outputs.moved_cells(a / "t" / "convergence.csv",
                                    a / "t" / "convergence.csv") == []
    assert diff_outputs.report([(a, b)], {a: "A", b: "B"}) == 1
    assert capsys.readouterr().out.splitlines() == [
        "A vs B: 1 differing path(s)",
        "Files A/t/convergence.csv and B/t/convergence.csv differ",
        "    " + summary,
    ]
