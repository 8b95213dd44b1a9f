"""Every file quadrep reads or writes: two writers, ``write_json`` (indented
by 2, with a trailing newline) and ``write_csv`` (unquoted comma-separated
rows, each ending in a newline), the table of a data CSV (``dataset_table``),
and four readers, of a data CSV, rep.json, an ``eval --points`` CSV and
manifest.json, each raising a ``DataError`` that names the file it rejects.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .dictionary import DataError, SampleGrid, tabulated_grid
from .representation import Rep, rep_from_dict

__all__ = ["write_json", "write_csv", "dataset_table", "read_dataset", "load_rep",
           "read_points", "read_manifest"]


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """``header`` and then ``rows``, each a line of its string fields joined
    by commas, after a ``# comment`` line if given, in one write: the bytes of
    ``csv.writer`` for a table that needs no quoting.

    ValueError, before anything is written, when a field holds a comma, a
    double quote, a carriage return or a line feed, when a line would be
    empty, or when a row's width is not the header's.
    """
    lines = [",".join(header), *map(",".join, rows)]
    table = "\n".join(lines) + "\n"
    if ('"' in table or "\r" in table or "" in lines or table.count("\n") != len(lines)
            or table.count(",") != len(lines) * (len(header) - 1)):
        raise ValueError(f"{path}: a field would need CSV quoting, a line is empty,"
                         f" or a row is not {len(header)} fields wide")
    with open(path, "w", newline="") as fh:
        fh.write(table if comment is None else f"# {comment}\n{table}")


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _read_csv(path) -> list[list[str]]:
    """The rows of the CSV at ``path``; DataError naming the file if it is
    not UTF-8."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from exc


def dataset_table(data: SampleGrid):
    """The data CSV of ``data``, ``(header, rows)`` for ``write_csv``: a row
    ``x,f`` per sample, under the header ``x,f``; DataError for an f beyond
    ``MAX_ABS_F``, which ``read_dataset`` refuses."""
    if np.abs(data.values).max() > MAX_ABS_F:
        raise DataError(f"|f| must be at most {MAX_ABS_F:g} to be written to a data CSV")
    return ["x", "f"], (map(repr, row) for row in zip(data.nodes.tolist(), data.values.tolist()))


# The largest |f| a data CSV may hold.  f^3 is the highest power any fit or
# denoising mode forms (``denoise.compute_noisy_moments``); at |f| <= 1e100
# it and its sums over a data set stay finite.
MAX_ABS_F = 1e100


def read_dataset(path) -> SampleGrid:
    """The tabulated grid of a data CSV (``dataset_table``); DataError,
    naming the file, when it is not UTF-8, has no ``x,f`` header (an empty
    file included), a row without both values, samples ``tabulated_grid``
    rejects, or an f beyond ``MAX_ABS_F`` in magnitude."""
    header, *rows = _read_csv(path) or [[]]
    if [h.strip() for h in header[:2]] != ["x", "f"]:
        raise DataError(f"{path}: expected 'x,f' header, got {header}")
    rows = [r for r in rows if r]
    if any(len(r) < 2 for r in rows):
        raise DataError(f"{path}: every row needs an x and an f value")
    try:
        grid = tabulated_grid([float(r[0]) for r in rows], [float(r[1]) for r in rows])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if np.abs(grid.values).max() > MAX_ABS_F:
        raise DataError(f"{path}: |f| must be at most {MAX_ABS_F:g}")
    return grid


def load_rep(path) -> Rep:
    """The rep stored at ``path``; DataError naming the file if it is not
    JSON, and the error of ``rep_from_dict`` if it is no rep document."""
    return rep_from_dict(_read_json(path))


def read_points(path) -> np.ndarray:
    """The x values of a one-column CSV, after an optional ``x`` header;
    DataError naming the file if it is not UTF-8, for a row that is not one
    number, for no rows, or for a non-finite x."""
    rows = [r for r in _read_csv(path) if r]
    if rows and rows[0][0].strip().lower() == "x":
        rows = rows[1:]
    xs = []
    for row in rows:
        if len(row) != 1:
            raise DataError(f"{path}: row {','.join(row)!r} has {len(row)}"
                            " fields; expected one x value")
        try:
            xs.append(float(row[0]))
        except ValueError as exc:
            raise DataError(f"{path}: row {row[0]!r} is not a number") from exc
    if not xs:
        raise DataError(f"{path}: no x values")
    xs = np.array(xs)
    if not np.all(np.isfinite(xs)):
        raise DataError(f"{path}: every x must be finite")
    return xs


def read_manifest(path) -> list[str]:
    """The ``argv`` list of strings that a manifest.json records; DataError
    naming the file if it is not JSON or has no such list."""
    doc = _read_json(path)
    stored = doc.get("argv") if isinstance(doc, dict) else None
    if not (isinstance(stored, list) and all(isinstance(a, str) for a in stored)):
        raise DataError(f"{path}: no 'argv' list of strings")
    return stored
