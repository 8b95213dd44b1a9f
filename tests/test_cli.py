import argparse
import copy
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadrep
from quadrep import cli, denoise, dictionary, orthopoly, representation, selection
from quadrep.cli import main
from quadrep.functions import get_builtin
from quadrep.files import load_rep, write_csv
from quadrep.selection import SelectionConfig, greedy_select, rrqr_select


def run(args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows


def test_fit_relu_manifold(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["fit", "--fn", "relu", "--method", "deg2-uniform",
                "--n0", "0", "--n1", "1", "--n2", "0", "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("K=3 residual=")
    assert float(line.split("residual=")[1]) < 1e-12
    rep = load_rep(out / "rep.json")
    for x in (-0.6, 0.4):
        assert abs(rep.b.evaluate(x) / rep.a.evaluate(x) - x) < 1e-12


def test_fit_greedy_two_term_roots(tmp_path):
    out = tmp_path / "g"
    assert run(["fit", "--fn", "sin10pi", "--method", "deg2-greedy",
                "--max-terms", "2", "--seed", "1", "--trace", "--out", str(out)]) == 0
    rep = load_rep(out / "rep.json")
    from quadrep.representation import roots_at

    for x in np.linspace(-1, 1, 11):
        r = roots_at(rep, x)
        assert abs(r.hi - 1 / math.sqrt(2)) < 1e-6
        assert abs(r.lo + 1 / math.sqrt(2)) < 1e-6
    assert (out / "trace.json").exists()
    trace = json.loads((out / "trace.json").read_text())
    assert trace["rng_seed"] == 1


def test_fit_rrqr_prints_comparison(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["fit", "--fn", "sigmoid60", "--method", "deg2-rrqr",
                "--cap", "40", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("K=")
    assert "deg0 residual at K=" in printed
    k = int(printed.split("=")[1].split()[0].split("\n")[0])
    fitted = float(printed.splitlines()[0].split("residual=")[1])
    baseline = float(printed.splitlines()[1].split(": ")[1])
    assert fitted < baseline  # full-tolerance truncation beats plain projection


@pytest.mark.parametrize("argv, tags", [
    (["--fn", "sigmoid60", "--method", "deg2-greedy", "--max-terms", "12"],
     lambda grid: greedy_select(grid, SelectionConfig(max_terms=12)).tags_at(12)),
    (["--fn", "sigmoid60", "--method", "deg2-greedy", "--target-residual", "1e-6"],
     lambda grid: greedy_select(grid, SelectionConfig(target_residual=1e-6)).tags_at(None)),
    (["--fn", "sigmoid60", "--method", "deg2-rrqr", "--cap", "40"],
     lambda grid: rrqr_select(grid, stream_cap=40).tags_at()),
    # the numerical rank, 85, stops the truncation below the budget
    (["--fn", "relu", "--method", "deg2-rrqr", "--max-terms", "120"],
     lambda grid: rrqr_select(grid, max_terms=120).tags_at(120)),
], ids=["greedy-max-terms", "greedy-target", "rrqr-full", "rrqr-past-rank"])
def test_fit_prints_the_k_of_its_run(tmp_path, capsys, argv, tags):
    assert run(["fit", *argv, "--out", str(tmp_path / "f")]) == 0
    fn = get_builtin(argv[1])
    k = len(tags(dictionary.build_grid(fn.fn, fn.domain, 1000)))
    assert capsys.readouterr().out.startswith(f"K={k} residual=")
    if argv[1] == "relu":
        assert k == 85


def test_fit_two_jump_runs(tmp_path, capsys):
    out = tmp_path / "tj"
    assert run(["fit", "--fn", "two-jump", "--method", "deg2-uniform",
                "--n0", "4", "--n1", "4", "--n2", "0", "--out", str(out)]) == 0
    rep = load_rep(out / "rep.json")
    assert math.isfinite(rep.fit_residual)


def test_denoise_constant_data_numerical_failure(tmp_path):
    path = tmp_path / "flat.csv"
    lines = ["x,f"] + [f"{i}.0,7.0" for i in range(40)]
    path.write_text("\n".join(lines) + "\n")
    assert run(["denoise", "--input", str(path), "--mode", "ls",
                "--out", str(tmp_path / "o")]) == 3


def test_fit_bad_function_name_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--fn", "nope", "--method", "deg0", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_eval_step_manifold(tmp_path):
    # hand-written degree-2 document: the 25/255 manifold with a jump at 140.5
    doc = {
        "type": "degree2",
        "domain": [0.0, 400.0],
        "basis": "monomial",
        "a": [1.0],
        "b": [280.0],
        "c": [-6375.0],
        "index": {"breakpoints": [140.5], "first_sign": -1},
        "fit_residual": 0.0,
        "provenance": {},
    }
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(doc))
    pts = tmp_path / "pts.csv"
    pts.write_text("x\n100.0\n300.0\n")
    out = tmp_path / "ev"
    assert run(["eval", "--rep", str(rep_path), "--points", str(pts),
                "--branches", "--out", str(out)]) == 0
    rows = read_csv(out / "eval.csv")
    assert rows[0] == ["x", "value"]
    assert float(rows[1][1]) == pytest.approx(25.0, abs=1e-12)
    assert float(rows[2][1]) == pytest.approx(255.0, abs=1e-12)
    brows = read_csv(out / "branches.csv")
    assert brows[0] == ["x", "root_lo", "root_hi"]
    assert float(brows[1][1]) == pytest.approx(25.0, abs=1e-12)
    assert float(brows[1][2]) == pytest.approx(255.0, abs=1e-12)


def test_eval_relu_grid(tmp_path):
    out = tmp_path / "f"
    assert run(["fit", "--fn", "relu", "--method", "deg2-uniform",
                "--n0", "0", "--n1", "1", "--n2", "0", "--out", str(out)]) == 0
    ev = tmp_path / "e"
    assert run(["eval", "--rep", str(out / "rep.json"), "--grid", "11",
                "--out", str(ev)]) == 0
    rows = read_csv(ev / "eval.csv")[1:]
    for x_str, v_str in rows:
        x, v = float(x_str), float(v_str)
        assert abs(v - max(0.0, x)) < 1e-12


def test_eval_clamped_node_gives_the_double_root(tmp_path):
    # at x = 0 the fit's discriminant is -1.6e-16, within the clamp
    # tolerance: both roots are the double root b/2a = -4e-15 there, where
    # the cancellation-free -2c/b gave -0.0193
    out = tmp_path / "f"
    assert run(["fit", "--fn", "relu", "--method", "deg2-uniform",
                "--n0", "6", "--n1", "6", "--n2", "6", "--out", str(out)]) == 0
    ev = tmp_path / "e"
    assert run(["eval", "--rep", str(out / "rep.json"), "--grid", "301",
                "--branches", "--out", str(ev)]) == 0
    values = read_csv(ev / "eval.csv")[1:]
    assert float(values[150][0]) == 0.0
    for x_str, v_str in values:
        if float(x_str) <= 0.0:
            assert abs(float(v_str)) < 1e-12
    _, lo, hi = read_csv(ev / "branches.csv")[1:][150]
    assert abs(float(lo)) < 1e-12 and abs(float(hi)) < 1e-12


def test_eval_branches_on_degree0_writes_nothing(tmp_path):
    out = tmp_path / "f"
    assert run(["fit", "--fn", "relu", "--method", "deg0", "--n", "5",
                "--out", str(out)]) == 0
    ev = tmp_path / "e"
    assert run(["eval", "--rep", str(out / "rep.json"), "--grid", "11",
                "--branches", "--out", str(ev)]) == 2
    assert not ev.exists()


def _write_rep(path, doc):
    path.write_text(json.dumps({"domain": [-1.0, 1.0], "basis": "monomial", "a": None,
                                "index": None, "fit_residual": 0.0, "provenance": {},
                                **doc}))
    return str(path)


@pytest.mark.parametrize("outside", [-1000.0, 5000.0])
def test_eval_monomial_rep_checks_its_domain(tmp_path, capsys, outside):
    # the 25/255 step manifold in the monomial basis over [0, 400]: evaluated
    # at its endpoints, refused outside them, as a Legendre rep is
    rep = _write_rep(tmp_path / "rep.json", {
        "type": "degree2", "domain": [0.0, 400.0], "a": [1.0], "b": [280.0],
        "c": [-6375.0], "index": {"breakpoints": [140.5], "first_sign": -1}})
    pts = tmp_path / "pts.csv"
    pts.write_text("x\n0.0\n400.0\n")
    assert run(["eval", "--rep", rep, "--points", str(pts), "--out", str(tmp_path / "in")]) == 0
    assert [float(v) for _, v in read_csv(tmp_path / "in" / "eval.csv")[1:]] == [25.0, 255.0]
    pts.write_text(f"x\n{outside}\n")
    ev = tmp_path / "out"
    assert run(["eval", "--rep", rep, "--points", str(pts), "--out", str(ev)]) == 2
    assert "evaluation outside domain (0.0, 400.0)" in capsys.readouterr().err
    assert not (ev / "eval.csv").exists()


def test_eval_complex_node_blanks_only_its_rows(tmp_path, capsys):
    # f^2 = x^2 - 0.01: the roots are complex only at x = 0 of the 11-point grid
    rep = _write_rep(tmp_path / "rep.json", {
        "type": "degree2", "a": [1.0], "b": [0.0], "c": [-0.01, 0.0, 1.0],
        "index": {"breakpoints": [], "first_sign": 1}})
    ev = tmp_path / "ev"
    assert run(["eval", "--rep", rep, "--grid", "11", "--branches", "--out", str(ev)]) == 0
    assert "warning: 1 points had no real value" in capsys.readouterr().err
    values = read_csv(ev / "eval.csv")[1:]
    roots = read_csv(ev / "branches.csv")[1:]
    for (x, v), (_, lo, hi) in zip(values, roots):
        if float(x) == 0.0:
            assert v == lo == hi == ""
        else:
            root = math.sqrt(float(x) ** 2 - 0.01)
            assert float(v) == pytest.approx(root, rel=1e-14)
            assert (float(lo), float(hi)) == pytest.approx((-root, root), rel=1e-14)


def test_eval_degree1_pole_blanks_only_its_row(tmp_path, capsys):
    # f = 1 / (1 - 2x): the pole x = 0.5 is a node of the 9-point grid
    rep = _write_rep(tmp_path / "rep.json", {
        "type": "degree1", "b": [1.0, -2.0], "c": [1.0]})
    ev = tmp_path / "ev"
    assert run(["eval", "--rep", rep, "--grid", "9", "--out", str(ev)]) == 0
    assert "warning: 1 points had no real value" in capsys.readouterr().err
    for x, v in read_csv(ev / "eval.csv")[1:]:
        if float(x) == 0.5:
            assert v == ""
        else:
            assert float(v) == pytest.approx(1.0 / (1.0 - 2.0 * float(x)), rel=1e-14)


def test_eval_rejects_non_finite_points(tmp_path, capsys):
    # a blank cell means "no real value"; a NaN x must not produce one
    rep = _write_rep(tmp_path / "rep.json", {"type": "degree0", "c": [1.0]})
    pts = tmp_path / "pts.csv"
    pts.write_text("x\n0.5\nnan\n")
    assert run(["eval", "--rep", rep, "--points", str(pts), "--out", str(tmp_path / "ev")]) == 2
    assert "every x must be finite" in capsys.readouterr().err


def test_eval_schema_mismatch_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "degree9", "domain": [0, 1]}))
    assert run(["eval", "--rep", str(bad), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("doc", [[1, 2], {"type": "degree2", "domain": 5},
                                 {"type": "degree0", "domain": [0.0, math.inf],
                                  "basis": "monomial", "c": [1.0]}],
                         ids=["list", "scalar-domain", "infinite-domain"])
def test_eval_rep_of_the_wrong_shape_is_a_bad_document(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["eval", "--rep", str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in eval: bad representation document: ")
    assert err.count("\n") == 1
    assert not out.exists()


# the 25/255 step manifold, (f - 25)(f - 255) = 0, as a rep.json document that
# eval reads, and mutations of it that eval rejects: (index or None, field, value)
STEP_REP = {"type": "degree2", "domain": [0.0, 400.0], "basis": "monomial", "a": [1.0],
            "b": [280.0], "c": [-6375.0], "fit_residual": 0.0, "provenance": {},
            "index": {"breakpoints": [140.5], "first_sign": -1, "undefined": [3.0]}}
BAD_REPS = {
    "first-sign-1.7": ("index", "first_sign", 1.7),
    "first-sign-string": ("index", "first_sign", "1"),
    "first-sign-true": ("index", "first_sign", True),
    "first-sign-0": ("index", "first_sign", 0),
    "nan-breakpoint": ("index", "breakpoints", [100.0, math.nan]),
    "decreasing-breakpoints": ("index", "breakpoints", [200.0, 100.0]),
    "nan-undefined": ("index", "undefined", [3.0, math.nan]),
    "three-entry-domain": (None, "domain", [0.0, 200.0, 400.0]),
    "one-entry-domain": (None, "domain", [0.0]),
    "string-domain": (None, "domain", ["0", "400"]),
    "reversed-domain": (None, "domain", [400.0, 0.0]),
    "list-provenance": (None, "provenance", ["fit"]),
    "null-provenance": (None, "provenance", None),
    "unknown-type": (None, "type", "degree3"),
    "unknown-basis": (None, "basis", "chebyshev"),
    "nan-coefficient": (None, "b", [280.0, math.nan]),
    "a-not-pinned": (None, "a", [2.0]),
    "string-residual": (None, "fit_residual", "small"),
}


@pytest.mark.parametrize("mutation", BAD_REPS)
def test_eval_rejects_each_mutated_rep_document(tmp_path, capsys, mutation):
    assert run(["eval", "--rep", _write_rep(tmp_path / "rep.json", STEP_REP),
                "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    doc = copy.deepcopy(STEP_REP)
    section, field, value = BAD_REPS[mutation]
    (doc[section] if section else doc)[field] = value
    out = tmp_path / "o"
    assert run(["eval", "--rep", _write_rep(tmp_path / "bad.json", doc),
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in eval: bad representation document: ")
    assert err.count("\n") == 1 and err.count("bad representation document") == 1
    assert not out.exists()
    if field == "domain":
        assert "domain" in err


def test_eval_rep_that_is_not_json_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    out = tmp_path / "o"
    assert run(["eval", "--rep", str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure in eval: bad representation document: {bad}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_eval_points_with_a_non_numeric_x_is_rejected(tmp_path, capsys):
    rep = _write_rep(tmp_path / "rep.json", {"type": "degree0", "c": [1.0]})
    pts = tmp_path / "pts.csv"
    pts.write_text("x\nabc\n")
    out = tmp_path / "ev"
    assert run(["eval", "--rep", rep, "--points", str(pts), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {pts}: row 'abc' is not a number\n"
    assert not out.exists()


def test_eval_points_row_with_two_fields_is_rejected(tmp_path, capsys):
    rep = _write_rep(tmp_path / "rep.json", {"type": "degree0", "c": [1.0]})
    pts = tmp_path / "pts.csv"
    pts.write_text("x\n0.25\n0.5,1\n")
    out = tmp_path / "ev"
    assert run(["eval", "--rep", rep, "--points", str(pts), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pts}: row '0.5,1'") and err.count("\n") == 1, err
    assert not out.exists()


def test_generate_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--preset", "case1", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_generate_case1(tmp_path):
    out = tmp_path / "g"
    assert run(["generate", "--preset", "case1", "--seed", "7", "--out", str(out)]) == 0
    rows = read_csv(out / "data.csv")
    assert rows[0] == ["x", "f"]
    assert len(rows) == 402
    values = np.array([float(r[1]) for r in rows[1:]])
    dist = np.minimum(np.abs(values - 25.0), np.abs(values - 255.0))
    assert np.all(dist < 5 * 30.0)
    meta = json.loads((out / "data.meta.json").read_text())
    assert meta == {"noise_model": "function", "sigma": 30.0, "seed": 7}


def test_generate_case2_manifold_metadata(tmp_path):
    out = tmp_path / "g2"
    assert run(["generate", "--preset", "case2", "--seed", "7", "--out", str(out)]) == 0
    meta = json.loads((out / "data.meta.json").read_text())
    assert meta["noise_model"] == "manifold"
    assert meta["sigma"] == 5000.0


def test_generate_sigma_zero_exact_step(tmp_path):
    out = tmp_path / "g0"
    assert run(["generate", "--target", "function", "--sigma", "0",
                "--seed", "1", "--out", str(out)]) == 0
    values = np.array([float(r[1]) for r in read_csv(out / "data.csv")[1:]])
    assert set(values.tolist()) == {25.0, 255.0}


def test_denoise_clean_data_any_mode_is_exact(tmp_path):
    gen = tmp_path / "gen"
    assert run(["generate", "--target", "function", "--sigma", "0",
                "--seed", "3", "--out", str(gen)]) == 0
    for mode, extra in (("ls", []), ("ls+vote", []),
                        ("debias+vote", ["--sigma2", "1e-6"]),
                        ("iterative", [])):
        out = tmp_path / f"d-{mode.replace('+', '_')}"
        assert run(["denoise", "--input", str(gen / "data.csv"), "--mode", mode,
                    "--truth", "step", "--out", str(out), *extra]) == 0
        rows = read_csv(out / "reconstruction.csv")
        assert rows[0] == ["x", "f_obs", "f_hat", "eps_hat"]
        obs = np.array([float(r[1]) for r in rows[1:]])
        hat = np.array([float(r[2]) for r in rows[1:]])
        assert np.max(np.abs(hat - obs)) < 1e-6
        report = json.loads((out / "report.json").read_text())
        assert report["mislabel_count"] == 0
        iteration_fields = [report[f] for f in
                            ("converged", "iterations", "max_constraint_residual")]
        if mode == "iterative":
            assert report["vote_rounds"] is None
            assert None not in iteration_fields
        else:
            assert iteration_fields == [None, None, None]
            if mode == "ls":
                assert report["vote_rounds"] is None
            else:
                assert isinstance(report["vote_rounds"], int)


@pytest.mark.parametrize("text", ["", "x,f\n0.0,25.0\n1.0\n"], ids=["empty", "one-field-row"])
def test_malformed_data_csv_is_a_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    gen = tmp_path / "gen"
    assert run(["generate", "--preset", "case1", "--seed", "0", "--out", str(gen)]) == 0
    for argv in (["fit", "--input", str(bad), "--method", "deg0", "--n", "2"],
                 ["denoise", "--input", str(bad), "--mode", "ls"],
                 ["denoise", "--input", str(gen / "data.csv"), "--mode", "ls",
                  "--truth", str(bad)]):
        capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / "o")]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:") and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_data_csv_whose_powers_overflow_is_a_usage_error(tmp_path, capsys):
    # at |f| = 1e200, f^2 and f^3 overflow: the reader names the file instead
    gen = tmp_path / "gen"
    assert run(["generate", "--preset", "case1", "--seed", "0", "--out", str(gen)]) == 0
    rows = read_csv(gen / "data.csv")[1:]
    big = tmp_path / "big.csv"
    big.write_text("x,f\n" + "".join(f"{x},{float(f) * 1e198!r}\n" for x, f in rows))
    out = tmp_path / "o"
    for argv in (["fit", "--input", str(big), "--method", "deg2-uniform",
                  "--n0", "1", "--n1", "1", "--n2", "1"],
                 ["denoise", "--input", str(big), "--mode", "ls"],
                 ["denoise", "--input", str(gen / "data.csv"), "--mode", "ls",
                  "--truth", str(big)]):
        capsys.readouterr()
        assert run([*argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {big}: |f| must be at most 1e+100\n", err
        assert not out.exists()


@pytest.mark.parametrize("count, shift", [(100, 0.0), (401, 0.5)], ids=["100-rows", "shifted"])
def test_denoise_truth_at_other_positions_writes_nothing(tmp_path, capsys, count, shift):
    gen = tmp_path / "gen"
    assert run(["generate", "--preset", "case1", "--seed", "0", "--out", str(gen)]) == 0
    rows = read_csv(gen / "data.csv")[1:count + 1]
    truth = tmp_path / "truth.csv"
    truth.write_text("x,f\n" + "".join(f"{float(x) + shift!r},{f}\n" for x, f in rows))
    out = tmp_path / "den"
    assert run(["denoise", "--input", str(gen / "data.csv"), "--mode", "ls",
                "--truth", str(truth), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {truth}:")
    assert not out.exists()


def test_denoise_debias_requires_sigma2(tmp_path):
    gen = tmp_path / "gen"
    run(["generate", "--preset", "case3", "--seed", "0", "--out", str(gen)])
    assert run(["denoise", "--input", str(gen / "data.csv"),
                "--mode", "debias+vote", "--out", str(tmp_path / "x")]) == 2


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A case3 data.csv, copies of it with a NaN x in a middle row and an
    infinite last x, a degree-0 rep.json, points files holding only the
    header and nothing at all, a directory, and a file that is not UTF-8,
    for the rejected commands."""
    root = tmp_path_factory.mktemp("inputs")
    assert run(["generate", "--preset", "case3", "--seed", "0", "--out", str(root / "gen")]) == 0
    assert run(["fit", "--fn", "relu", "--method", "deg0", "--n", "5",
                "--out", str(root / "deg0")]) == 0
    lines = (root / "gen" / "data.csv").read_text().splitlines(keepends=True)
    for name, row, x in (("nan_x", 200, "nan"), ("inf_x", -1, "inf")):
        bad = list(lines)
        bad[row] = x + bad[row][bad[row].index(","):]
        (root / f"{name}.csv").write_text("".join(bad))
    for name, text in (("header_only", "x\n"), ("empty", "")):
        (root / f"{name}.csv").write_text(text)
    (root / "a_dir").mkdir()
    (root / "latin1.csv").write_bytes(b"x,f\n\xff,1\n")
    return {"data": str(root / "gen" / "data.csv"), "deg0": str(root / "deg0" / "rep.json"),
            "missing": str(root / "missing"), "nan_x": str(root / "nan_x.csv"),
            "inf_x": str(root / "inf_x.csv"), "header_only": str(root / "header_only.csv"),
            "empty": str(root / "empty.csv"), "dir": str(root / "a_dir"),
            "latin1": str(root / "latin1.csv")}


_FIT = ["fit", "--fn", "relu", "--order", "100", "--method"]
_GREEDY = [*_FIT, "deg2-greedy", "--max-terms", "3"]
_ITERATIVE = ["denoise", "--input", "{data}", "--mode", "iterative"]
_CONVERGENCE = ["convergence", "--fn", "relu", "--kmax", "3"]
# each input path flag given a directory, and each CSV one a file that is not UTF-8
UNREADABLE = {
    "fit-input-dir": ["fit", "--input", "{dir}", "--method", "deg0", "--n", "2"],
    "fit-input-latin1": ["fit", "--input", "{latin1}", "--method", "deg0", "--n", "2"],
    "denoise-input-dir": ["denoise", "--input", "{dir}", "--mode", "ls"],
    "denoise-input-latin1": ["denoise", "--input", "{latin1}", "--mode", "ls"],
    "denoise-truth-dir": ["denoise", "--input", "{data}", "--mode", "ls", "--truth", "{dir}"],
    "denoise-truth-latin1": ["denoise", "--input", "{data}", "--mode", "ls", "--truth",
                             "{latin1}"],
    "eval-points-dir": ["eval", "--rep", "{deg0}", "--points", "{dir}"],
    "eval-points-latin1": ["eval", "--rep", "{deg0}", "--points", "{latin1}"],
    "eval-rep-dir": ["eval", "--rep", "{dir}"],
    "replay-manifest-dir": ["replay", "--manifest", "{dir}"],
}
# numeric flags at values out of their range: (argv, the parameter its error names)
BAD_NUMBERS = {
    f"{case}-{value}": ([*base, flag, value], name)
    for case, base, flag, values, name in (
        ("greedy-target-residual", _GREEDY, "--target-residual", ("0", "-1", "nan"),
         "target_residual"),
        ("greedy-seed", _GREEDY, "--seed", ("-1",), "rng_seed"),
        ("greedy-cap", _GREEDY, "--cap", ("0", "-1"), "stream_cap"),
        ("rrqr-tol", [*_FIT, "deg2-rrqr"], "--tol", ("-1", "nan", "inf", "2"), "truncate_tol"),
        ("iterative-tol", _ITERATIVE, "--tol", ("0", "-1", "nan"), "tol"),
        ("iterative-max-iter", _ITERATIVE, "--max-iter", ("0", "-1"), "max_iter"),
        ("debias-sigma2", ["denoise", "--input", "{data}", "--mode", "debias+vote"], "--sigma2",
         ("0", "-1", "nan", "inf"), "sigma2"),
        ("case3-sigma2", [*_ITERATIVE, "--init", "case3"], "--sigma2", ("nan", "inf"), "sigma2"),
        ("generate-sigma", ["generate", "--target", "function", "--seed", "0"], "--sigma",
         ("-1", "nan", "inf"), "sigma"),
        ("generate-seed", ["generate", "--target", "function", "--sigma", "1"], "--seed",
         ("-1",), "seed"),
        ("deg0-n", [*_FIT, "deg0"], "--n", ("-1",), "n"),
        ("deg1-n0", [*_FIT, "deg1", "--n1", "2"], "--n0", ("-1",), "n0"),
        ("deg1-n1", [*_FIT, "deg1", "--n0", "2"], "--n1", ("-1",), "n1"),
        ("uniform-n0", [*_FIT, "deg2-uniform", "--n1", "2", "--n2", "1"], "--n0", ("-1",), "n0"),
        ("uniform-n1", [*_FIT, "deg2-uniform", "--n0", "2", "--n2", "1"], "--n1", ("-1",), "n1"),
        ("uniform-n2", [*_FIT, "deg2-uniform", "--n0", "2", "--n1", "2"], "--n2", ("-1",), "n2"),
        # 401 is the sample count of generated data
        ("vote-k", ["denoise", "--input", "{data}", "--mode", "ls+vote"], "--k", ("0", "401"),
         "k"),
        ("convergence-cap", _CONVERGENCE, "--cap", ("0", "-1"), "stream_cap"),
        ("convergence-seed", _CONVERGENCE, "--seed", ("-1",), "rng_seed"),
    )
    for value in values
}


@pytest.mark.parametrize("argv", [
    ["denoise", "--input", "{data}", "--mode", "debias+vote"],
    ["denoise", "--input", "{data}", "--mode", "iterative", "--init", "case3"],
    ["generate", "--seed", "0"],
    ["eval", "--rep", "{deg0}", "--branches"],
    ["eval", "--rep", "{missing}.json"],
    ["eval", "--rep", "{deg0}", "--grid", "0"],
    ["eval", "--rep", "{deg0}", "--grid", "-3"],
    ["fit", "--input", "{missing}.csv", "--method", "deg0", "--n", "2"],
    ["denoise", "--input", "{missing}.csv", "--mode", "ls"],
    ["denoise", "--input", "{nan_x}", "--mode", "debias+vote", "--sigma2", "22500"],
    ["denoise", "--input", "{nan_x}", "--mode", "ls"],
    ["fit", "--input", "{nan_x}", "--method", "deg0", "--n", "2"],
    ["denoise", "--input", "{inf_x}", "--mode", "ls"],
    ["eval", "--rep", "{deg0}", "--points", "{header_only}"],
    ["eval", "--rep", "{deg0}", "--points", "{empty}"],
    ["convergence", "--fn", "relu", "--kmax", "0"],
    ["convergence", "--fn", "relu", "--kmin", "10", "--kmax", "5"],
    ["convergence", "--fn", "relu", "--methods", "deg0,deg0", "--kmax", "3"],
    ["convergence", "--fn", "relu", "--methods", "deg2-uniform", "--kmin", "3", "--kmax", "4"],
    ["generate", "--preset", "case1", "--sigma", "-5", "--seed", "0"],
    ["generate", "--preset", "case1", "--target", "function", "--seed", "0"],
    *(argv for argv, _ in BAD_NUMBERS.values()),
    *UNREADABLE.values(),
], ids=["debias-no-sigma2", "case3-no-sigma2", "generate-no-noise", "eval-branches-deg0",
        "eval-missing-rep", "eval-grid-0", "eval-grid-negative", "fit-missing-input", "denoise-missing-input",
        "debias-nan-x", "ls-nan-x", "fit-nan-x", "ls-inf-x", "eval-points-header-only",
        "eval-points-empty", "convergence-kmax-0", "convergence-kmin-above-kmax",
        "convergence-method-twice", "convergence-method-without-k", "generate-preset-sigma",
        "generate-preset-target", *BAD_NUMBERS, *UNREADABLE])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rejected_command_writes_nothing(tmp_path, capsys, inputs, argv):
    out = tmp_path / "out"
    assert run([a.format(**inputs) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()
    for bad in ("nan_x", "inf_x"):
        if f"{{{bad}}}" in argv:
            assert err.startswith(f"error: {inputs[bad]}: non-finite sample positions"), err
    if "--grid" in argv:
        assert err == "error: --grid must be >= 1\n"
    if "--points" in argv and argv not in UNREADABLE.values():
        points = argv[argv.index("--points") + 1].format(**inputs)
        assert err == f"error: {points}: no x values\n"
    for bad in ("dir", "latin1"):
        if f"{{{bad}}}" in argv:
            assert inputs[bad] in err, err
    if "--preset" in argv:
        assert err == f"error: {argv[3]} is not read with --preset\n"
    for bad, name in BAD_NUMBERS.values():
        if argv == bad:
            assert re.search(rf"\b{name}\b", err), err


@pytest.mark.parametrize("below", [(), ("sub",), ("sub", "deeper")],
                         ids=["file", "through-file", "two-below-file"])
def test_out_that_is_a_file_is_a_usage_error(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken.joinpath(*below)
    assert run(["generate", "--preset", "case1", "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert taken.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_failed_write_is_a_usage_error_and_writes_no_manifest(tmp_path, capsys):
    # the data file's name is taken by a directory: writing it fails
    out = tmp_path / "o"
    (out / "data.csv").mkdir(parents=True)
    assert run(["generate", "--preset", "case1", "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(out / "data.csv") in err
    assert not (out / "manifest.json").exists()


def _raise_arithmetic(*args, **kwargs):
    raise ArithmeticError("patched to fail")


@pytest.mark.parametrize("target, argv", [
    ("quadrep.selection.GreedyRun.trace_doc",
     ["fit", "--fn", "relu", "--order", "100", "--method", "deg2-greedy", "--max-terms", "3",
      "--trace"]),
    ("quadrep.cli.rep_to_dict", ["denoise", "--input", "{data}", "--mode", "ls"]),
], ids=["fit-trace", "denoise-fit-document"])
def test_failure_while_assembling_documents_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           inputs, target, argv):
    # the documents fail after the results are computed, before any is written
    monkeypatch.setattr(target, _raise_arithmetic)
    out = tmp_path / "out"
    assert run([a.format(**inputs) for a in argv] + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.endswith(": patched to fail\n")
    assert not out.exists()


def _dir_files(path):
    """The bytes of every file in ``path`` but its manifest, which records paths."""
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.name != "manifest.json"}


def test_sidecar_is_never_read(tmp_path):
    gen = tmp_path / "gen"
    assert run(["generate", "--preset", "case1", "--seed", "0", "--out", str(gen)]) == 0
    csv_text = (gen / "data.csv").read_text()
    outputs = []
    for name, sidecar in (("plain", None), ("broken", "{not json")):
        data = tmp_path / name / "data.csv"
        data.parent.mkdir()
        data.write_text(csv_text)
        if sidecar is not None:
            (tmp_path / name / "data.meta.json").write_text(sidecar)
        for argv in (["denoise", "--input", str(data), "--mode", "ls+vote", "--truth", "step"],
                     ["fit", "--input", str(data), "--method", "deg0", "--n", "4"]):
            out = tmp_path / name / argv[0]
            assert run([*argv, "--out", str(out)]) == 0, (name, argv)
            outputs.append(_dir_files(out))
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize("flags, message", [
    (["--mode", "debias+vote"], "--mode debias+vote requires --sigma2"),
    (["--mode", "iterative", "--init", "case3"], "--init case3 requires --sigma2"),
    (["--mode", "ls", "--sigma2", "5"], "--sigma2 is not read by --mode ls"),
    (["--mode", "ls+vote", "--sigma2", "5"], "--sigma2 is not read by --mode ls+vote"),
    (["--mode", "iterative", "--sigma2", "5"],
     "--sigma2 is not read by --mode iterative without --init case3"),
    (["--mode", "iterative", "--init", "case2", "--sigma2", "5"],
     "--sigma2 is not read by --mode iterative without --init case3"),
    (["--mode", "ls", "--k", "7"], "--k is not read by --mode ls"),
    (["--mode", "ls", "--constraints", "1,x"], "--constraints is not read by --mode ls"),
    (["--mode", "ls+vote", "--init", "case2"], "--init is not read by --mode ls+vote"),
    (["--mode", "ls", "--max-iter", "3"], "--max-iter is not read by --mode ls"),
    (["--mode", "debias+vote", "--sigma2", "5", "--tol", "5"],
     "--tol is not read by --mode debias+vote"),
    (["--mode", "ls", "--max-iter", "3", "--constraints", "1,x", "--init", "case2",
      "--tol", "5"], "--constraints is not read by --mode ls"),
], ids=["debias-no-sigma2", "case3-no-sigma2", "ls-sigma2", "ls+vote-sigma2",
        "iterative-sigma2", "iterative-case2-sigma2", "ls-k", "ls-constraints",
        "ls+vote-init", "ls-max-iter", "debias+vote-tol", "ls-all-four"])
def test_denoise_flag_its_mode_does_not_take_is_a_usage_error(tmp_path, capsys, inputs,
                                                              flags, message):
    out = tmp_path / "out"
    assert run(["denoise", "--input", inputs["data"], *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_RRQR = ["--fn", "sigmoid60", "--method", "deg2-rrqr"]


@pytest.mark.parametrize("flags, message", [
    ([*_RRQR, "--batch", "3", "--target-residual", "1e-3", "--seed", "5", "--trace",
      "--n0", "4"], "--n0 is not read by --method deg2-rrqr"),
    ([*_RRQR, "--trace"], "--trace is not read by --method deg2-rrqr"),
    ([*_RRQR, "--batch", "3"], "--batch is not read by --method deg2-rrqr"),
    (["--fn", "sigmoid60", "--method", "deg2-greedy", "--tol", "0.5"],
     "--tol is not read by --method deg2-greedy"),
    (["--input", "{data}", "--method", "deg0", "--n", "2", "--order", "7"],
     "--order is not read with --input"),
    (["--fn", "relu", "--method", "deg0", "--n", "3", "--n0", "5"],
     "--n0 is not read by --method deg0"),
    (["--fn", "relu", "--method", "deg1", "--n0", "2", "--n2", "1"],
     "--n2 is not read by --method deg1"),
    (["--fn", "relu", "--method", "deg2-uniform", "--seed", "1"],
     "--seed is not read by --method deg2-uniform"),
], ids=["rrqr-greedy-flags", "rrqr-trace", "rrqr-batch", "greedy-tol", "input-order",
        "deg0-n0", "deg1-n2", "uniform-seed"])
def test_fit_flag_its_method_does_not_read_is_a_usage_error(tmp_path, capsys, inputs,
                                                            flags, message):
    out = tmp_path / "out"
    flags = [f.format(**inputs) for f in flags]
    assert run(["fit", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("max_terms", ["0", "-5"])
@pytest.mark.parametrize("method", ["deg2-greedy", "deg2-rrqr"])
def test_fit_max_terms_below_one_is_a_usage_error(tmp_path, capsys, method, max_terms):
    out = tmp_path / "out"
    assert run(["fit", "--fn", "sigmoid60", "--method", method, "--max-terms", max_terms,
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: max_terms must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["deg2-greedy", "deg2-rrqr"])
def test_fit_adaptive_methods_take_one_argument_list(tmp_path, method):
    # the flags that the benchmark's sweep checks pass to refit either method
    assert run(["fit", "--fn", "sigmoid60", "--method", method, "--max-terms", "4",
                "--cap", "10", "--seed", "0", "--order", "200",
                "--out", str(tmp_path)]) == 0


def test_denoise_iterative_report_fields(tmp_path):
    gen = tmp_path / "gen"
    run(["generate", "--target", "function", "--sigma", "30", "--seed", "2",
         "--out", str(gen)])
    out = tmp_path / "den"
    assert run(["denoise", "--input", str(gen / "data.csv"), "--mode", "iterative",
                "--constraints", "all8", "--truth", "step", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] >= 1
    assert report["max_constraint_residual"] < 1e-9
    fit = json.loads((out / "fit.json").read_text())
    assert set(fit) >= {"b0", "b1", "c0", "c1", "method", "rep"}


def test_convergence_table(tmp_path):
    out = tmp_path / "conv"
    assert run(["convergence", "--fn", "sigmoid60", "--methods", "deg0,deg1",
                "--kmin", "2", "--kmax", "9", "--order", "200",
                "--out", str(out)]) == 0
    text = (out / "convergence.csv").read_text()
    assert text.startswith("#")
    rows = read_csv(out / "convergence.csv")
    assert rows[0] == ["method", "K", "error"]
    ks = [(r[0], int(r[1])) for r in rows[1:]]
    assert ("deg0", 5) in ks
    assert ("deg1", 5) in ks
    assert all(k % 2 == 1 for m, k in ks if m == "deg1")
    errors = {(r[0], int(r[1])): float(r[2]) for r in rows[1:]}
    assert errors[("deg1", 9)] < errors[("deg0", 9)]


def test_convergence_unknown_method_usage_error(tmp_path, capsys):
    out = tmp_path / "c"
    assert run(["convergence", "--fn", "relu", "--methods", "deg0,deg3",
                "--kmax", "4", "--order", "64", "--out", str(out)]) == 2
    assert "unknown method 'deg3'" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()


def test_eval_branch_table_traces_both_pieces(tmp_path):
    # near the jump the two root columns follow the smooth branches +-cos(x);
    # oracle-measured deviation on [-0.1, 0.1] is 1.59x the fit residual
    out = tmp_path / "f"
    assert run(["fit", "--fn", "cos-one-jump", "--method", "deg2-uniform",
                "--n0", "4", "--n1", "4", "--n2", "0", "--out", str(out)]) == 0
    rep = load_rep(out / "rep.json")
    pts = tmp_path / "pts.csv"
    xs = np.linspace(-0.1, 0.1, 9)
    pts.write_text("x\n" + "\n".join(repr(float(x)) for x in xs) + "\n")
    ev = tmp_path / "ev"
    assert run(["eval", "--rep", str(out / "rep.json"), "--points", str(pts),
                "--branches", "--out", str(ev)]) == 0
    rows = read_csv(ev / "branches.csv")[1:]
    for x_str, lo_str, hi_str in rows:
        x = float(x_str)
        assert abs(float(lo_str) + math.cos(x)) < 2 * rep.fit_residual
        assert abs(float(hi_str) - math.cos(x)) < 2 * rep.fit_residual


def test_convergence_heaviside_sine_reaches_1e10(tmp_path):
    out = tmp_path / "hs"
    assert run(["convergence", "--fn", "heaviside-sine", "--methods",
                "deg2-uniform", "--kmin", "20", "--kmax", "20",
                "--out", str(out)]) == 0
    rows = read_csv(out / "convergence.csv")[1:]
    errors = {int(r[1]): float(r[2]) for r in rows}
    assert errors[20] < 1e-10


def test_convergence_failures_stay_in_their_cells(tmp_path, capsys, monkeypatch):
    # relu greedy K >= 8 keeps only f^2 columns, so assign_index fails at
    # those K alone; a failed shared selection run fails each of its method's cells
    out = tmp_path / "relu"
    assert run(["convergence", "--fn", "relu", "--methods", "deg2-greedy",
                "--kmin", "6", "--kmax", "9", "--out", str(out)]) == 0
    rows = read_csv(out / "convergence.csv")[1:]
    assert [(r[1], math.isnan(float(r[2]))) for r in rows] == [
        ("6", False), ("7", False), ("8", True), ("9", True)]

    def no_run(*args, **kwargs):
        raise np.linalg.LinAlgError("no run")
    for name in ("greedy_select", "rrqr_select"):
        monkeypatch.setattr(selection, name, no_run)
    failed = tmp_path / "failed"
    assert run(["convergence", "--fn", "relu", "--methods", "deg0,deg2-greedy,deg2-rrqr",
                "--kmin", "2", "--kmax", "3", "--out", str(failed)]) == 0
    rows = read_csv(failed / "convergence.csv")[1:]
    assert [math.isnan(float(r[2])) for r in rows] == [False, False, True, True, True, True]
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("cell ")]
    # in table order: method by method, K rising
    assert lines == (
        [f"cell (deg2-greedy, K={k}) failed: both a(x) and b(x) vanish: no root" for k in (8, 9)]
        + [f"cell ({m}, K={k}) failed: no run"
           for m in ("deg2-greedy", "deg2-rrqr") for k in (2, 3)])


def test_convergence_skips_a_k_past_the_kept_columns(tmp_path, capsys):
    # 8 nodes give an adaptive run at most 8 columns: at K = 9-12 it keeps 8,
    # and the cell is skipped as deg0's are rather than written with the 8-column error
    out = tmp_path / "short"
    assert run(["convergence", "--fn", "sigmoid60", "--methods", "deg2-rrqr,deg2-greedy,deg0",
                "--kmin", "6", "--kmax", "12", "--order", "8", "--out", str(out)]) == 0
    rows = read_csv(out / "convergence.csv")[1:]
    assert [(r[0], r[1]) for r in rows if math.isnan(float(r[2]))] == [
        (m, str(k)) for m in ("deg2-rrqr", "deg2-greedy", "deg0") for k in (9, 10, 11, 12)]
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("cell ")]
    assert lines[:8] == [f"cell ({m}, K={k}) skipped: {m} keeps 8 coefficients, fewer than K={k}"
                         for m in ("deg2-rrqr", "deg2-greedy") for k in (9, 10, 11, 12)]
    assert lines[8:] == [f"cell (deg0, K={k}) skipped: more coefficients than samples"
                         for k in (9, 10, 11, 12)]


def test_convergence_starts_no_thread_pool(tmp_path, monkeypatch):
    argv = ["convergence", "--fn", "sin10pi", "--methods", "deg0,deg1,deg2-greedy,deg2-rrqr",
            "--kmin", "2", "--kmax", "6", "--order", "150"]
    assert run([*argv, "--out", str(tmp_path / "a")]) == 0

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("convergence started a thread pool")

    monkeypatch.setattr("quadrep.cli.ThreadPoolExecutor", NoPool)
    assert run([*argv, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "convergence.csv").read_bytes()
            == (tmp_path / "b" / "convergence.csv").read_bytes())


def test_convergence_builds_one_legendre_table_per_degree_rise(tmp_path, monkeypatch):
    # the recurrence runs at the grid nodes once, and again only when a
    # degree above every earlier request at those nodes is asked for
    requests, builds = [], []

    def recorded(module):
        real = module.legendre_row

        def legendre_row(max_degree, x):
            requests.append((max_degree, np.asarray(x, dtype=float).tobytes()))
            return real(max_degree, x)
        monkeypatch.setattr(module, "legendre_row", legendre_row)

    for module in (dictionary, representation):
        recorded(module)
    real_build = orthopoly._legendre_table

    def counted_build(max_degree, arr):
        builds.append((max_degree, arr.tobytes()))
        return real_build(max_degree, arr)

    monkeypatch.setattr(orthopoly, "_legendre_table", counted_build)
    with orthopoly._tables_lock:
        orthopoly._tables.clear()
    assert run(["convergence", "--fn", "sin10pi", "--methods", "deg0,deg2-uniform,deg2-rrqr",
                "--kmin", "2", "--kmax", "12", "--order", "150",
                "--out", str(tmp_path / "c")]) == 0
    fn = get_builtin("sin10pi")
    nodes = np.clip(dictionary.build_grid(fn.fn, fn.domain, 150).unit_nodes, -1.0, 1.0).tobytes()
    at_nodes = [d for d, key in requests if key == nodes]
    rises = [d for i, d in enumerate(at_nodes) if d > max(at_nodes[:i], default=-1)]
    assert len(at_nodes) > 50
    assert [d for d, key in builds if key == nodes] == rises


def test_convergence_blas_thread_count_invariance(tmp_path):
    # the BLAS thread count is read when the library loads, so each count
    # needs its own process; heaviside-sine deg2-rrqr factors a 1000 x 182
    # candidate matrix, and K = 33, 34 move if that factorization's bits
    # depend on the thread count; the deg2-uniform fit solves a 1000 x 142
    # design by weighted least squares, and its rep moves the same way
    src = str(Path(quadrep.__file__).resolve().parents[1])
    commands = {
        "convergence.csv": ["convergence", "--fn", "heaviside-sine", "--methods",
                            "deg2-rrqr", "--kmax", "34"],
        "rep.json": ["fit", "--fn", "heaviside-sine", "--method", "deg2-uniform",
                     "--n0", "50", "--n1", "50", "--n2", "40"],
    }
    outs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for name, argv in commands.items():
            out = tmp_path / threads / name
            subprocess.run(
                [sys.executable, "-c", "import sys; from quadrep.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300)
            outs.setdefault(name, []).append((out / name).read_bytes())
    for name, (one, two) in outs.items():
        assert one == two, name


def test_eval_and_generate_do_not_load_scipy(tmp_path):
    # quadrep.linalg loads scipy's LAPACK extension from its file on its first
    # QR or triangular solve, without importing scipy or scipy.linalg; eval and
    # generate make neither, so a process that runs one loads nothing of scipy
    src = str(Path(quadrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert run(["fit", "--fn", "sigmoid60", "--method", "deg2-greedy", "--max-terms", "10",
                "--out", str(tmp_path / "fit")]) == 0
    assert run(["generate", "--preset", "case4", "--seed", "0",
                "--out", str(tmp_path / "data")]) == 0
    lapack_only = ["scipy.linalg._flapack"]
    commands = {
        "eval": (["eval", "--rep", str(tmp_path / "fit" / "rep.json"), "--grid", "101",
                  "--branches"], []),
        "generate": (["generate", "--preset", "case1", "--seed", "0"], []),
        "fit": (["fit", "--fn", "sigmoid60", "--method", "deg2-rrqr", "--max-terms", "12"],
                lapack_only),
        "convergence": (["convergence", "--fn", "sigmoid60", "--kmax", "8"], lapack_only),
        "denoise": (["denoise", "--input", str(tmp_path / "data" / "data.csv"),
                     "--mode", "iterative", "--max-iter", "5"], lapack_only),
    }
    for name, (argv, loaded) in commands.items():
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from quadrep.cli import main; "
             "code = main(sys.argv[1:]); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
             "sys.exit(code)", *argv, "--out", str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str(loaded), name


def _csv_writer_bytes(header, rows, comment=None) -> bytes:
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def test_every_cli_table_is_the_bytes_of_csv_writer(tmp_path, monkeypatch):
    tables = []

    def recording(path, header, rows, comment=None):
        rows = [list(row) for row in rows]
        tables.append((path, header, rows, comment))
        write_csv(path, header, rows, comment)

    monkeypatch.setattr(cli, "write_csv", recording)
    assert run(["fit", "--fn", "sigmoid60", "--method", "deg2-greedy", "--max-terms", "10",
                "--out", str(tmp_path / "fit")]) == 0
    assert run(["eval", "--rep", str(tmp_path / "fit" / "rep.json"), "--grid", "101",
                "--branches", "--out", str(tmp_path / "eval")]) == 0
    assert run(["convergence", "--fn", "sigmoid60", "--methods", "deg0,deg1,deg2-greedy",
                "--kmax", "8", "--out", str(tmp_path / "conv")]) == 0
    assert run(["generate", "--preset", "case4", "--seed", "0",
                "--out", str(tmp_path / "gen")]) == 0
    assert run(["denoise", "--input", str(tmp_path / "gen" / "data.csv"), "--mode", "ls",
                "--out", str(tmp_path / "den")]) == 0
    assert sorted(Path(t[0]).name for t in tables) == [
        "branches.csv", "convergence.csv", "data.csv", "eval.csv", "reconstruction.csv"]
    for path, header, rows, comment in tables:
        assert Path(path).read_bytes() == _csv_writer_bytes(header, rows, comment), path


def test_write_csv_blank_fields_are_csv_writer_bytes(tmp_path):
    rows = [["1.0", "", ""], ["", "", ""], ["nan", "-inf", "2"]]
    write_csv(tmp_path / "t.csv", ["x", "lo", "hi"], rows, "a, \"note\"")
    assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(
        ["x", "lo", "hi"], rows, "a, \"note\"")


@pytest.mark.parametrize("header, row", [
    (["x", "f"], ["1,5", "2"]),
    (["x", "f"], ['"1"', "2"]),
    (["x", "f"], ["1\r", "2"]),
    (["x", "f"], ["1\n2", "3"]),
    (["x", "f"], ["1", "2", "3"]),
    (["x", "f"], ["1"]),
    (["x"], [""]),
], ids=["comma", "quote", "cr", "lf", "wide", "narrow", "empty-line"])
def test_write_csv_rejects_a_table_that_needs_quoting(tmp_path, header, row):
    with pytest.raises(ValueError, match="CSV quoting"):
        write_csv(tmp_path / "t.csv", header, [["0", "0"][:len(header)], row])
    assert not (tmp_path / "t.csv").exists()


def test_manifest_replay_byte_identical(tmp_path):
    first = tmp_path / "one"
    assert run(["generate", "--preset", "case4", "--seed", "9",
                "--out", str(first)]) == 0
    second = tmp_path / "two"
    assert run(["replay", "--manifest", str(first / "manifest.json"),
                "--out", str(second)]) == 0
    assert (first / "data.csv").read_bytes() == (second / "data.csv").read_bytes()
    assert (first / "data.meta.json").read_bytes() == (second / "data.meta.json").read_bytes()


@pytest.mark.parametrize("doc", [[], {}], ids=["list", "no-argv"])
def test_replay_manifest_without_argv_is_a_usage_error(tmp_path, capsys, doc):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: no 'argv' list of strings\n"
    assert not out.exists()


def test_replay_of_a_stored_replay_is_a_usage_error(tmp_path, capsys):
    # no command writes this manifest; replaying it would re-enter replay
    # on itself without end
    manifest = tmp_path / "manifest.json"
    inner = tmp_path / "x"
    manifest.write_text(json.dumps({"argv": ["replay", "--manifest", str(manifest),
                                             "--out", str(inner)]}))
    out = tmp_path / "out"
    assert run(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: a stored replay is not replayed\n"
    assert not out.exists() and not inner.exists()


def test_replay_manifest_that_is_not_json_names_the_file(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{")
    out = tmp_path / "out"
    assert run(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_replay_manifest_ending_in_out_writes_to_the_new_out(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"argv": ["generate", "--preset", "case1", "--seed", "0",
                                             "--out"]}))
    out = tmp_path / "out"
    assert run(["replay", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert (out / "data.csv").exists()


def test_manifest_contents(tmp_path):
    out = tmp_path / "m"
    run(["generate", "--preset", "case1", "--seed", "5", "--out", str(out)])
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "generate"
    assert doc["seed"] == 5
    assert "--seed" in doc["argv"]
    assert "version" in doc and "timestamp" in doc


def _options(command):
    """The parser's actions of ``command``, by destination."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[command]._actions}


def _help_default(action) -> str:
    """The default that ``action``'s help names: "(default X)" or "X (default)"."""
    found = re.search(r"\(default (\S+)\)|(\S+) \(default\)", action.help)
    return found[1] or found[2]


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_choice_sets_are_the_tuples_the_library_checks():
    assert _options("fit")["batch"].choices is selection.BATCH_SIZES
    assert _options("generate")["target"].choices is denoise.NOISE_MODELS
    assert _options("denoise")["init"].choices is denoise.INIT_MODES
    data = dictionary.tabulated_grid(np.arange(6.0), np.arange(6.0) ** 2)
    with pytest.raises(ValueError, match="^unknown noise model 'uniform'$"):
        denoise.generate_noisy(data.nodes, data.values, "uniform", 1.0, 0)
    with pytest.raises(ValueError, match="^unknown init mode 'case4'$"):
        denoise.denoise_iterative(data, init="case4")


def test_restated_defaults_are_the_library_defaults():
    # the parser leaves these flags to the library; its help and its two
    # convergence defaults restate the library's values, which must agree
    fit, conv, den = (_options(c) for c in ("fit", "convergence", "denoise"))
    assert int(_help_default(fit["order"])) == _default(dictionary.build_grid, "order")
    assert int(_help_default(den["k"])) == _default(denoise.reconstruct, "k") \
        == _default(denoise.denoise_case3, "k") == _default(denoise.denoise_iterative, "k")
    assert _help_default(den["init"]) == _default(denoise.denoise_iterative, "init")
    assert int(_help_default(den["max_iter"])) == _default(denoise.denoise_iterative, "max_iter")
    assert float(_help_default(den["tol"])) == _default(denoise.denoise_iterative, "tol")
    assert _help_default(den["constraints"]) == f"all{len(denoise.ALL_CONSTRAINTS)}"
    assert _default(denoise.denoise_iterative, "constraint_names") == denoise.ALL_CONSTRAINTS
    config = {field.name: field.default for field in dataclasses.fields(SelectionConfig)}
    assert conv["cap"].default == config["stream_cap"] == _default(rrqr_select, "stream_cap")
    assert conv["seed"].default == config["rng_seed"]
