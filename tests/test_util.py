"""The artifact writers: ``write_csv`` keeps the bytes of the per-cell
formatter it replaced, and ``write_json`` encodes numpy values as Python ones.
The singular-value estimate ``power_sigma`` reports converged only within its
tolerance."""

import csv
import json

import numpy as np
import pytest
import scipy.sparse as sp

from helmray.util import power_sigma, write_csv, write_json


def _fmt_float(x):
    """The per-cell formatter ``write_csv`` replaced (shortest round-trip decimal)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{_fmt_float(x.real)}{'+' if x.imag >= 0 else '-'}{_fmt_float(abs(x.imag))}j"
    return repr(float(x))


def _reference_csv(path, header, rows):
    """The row-wise writer ``write_csv`` replaced, with the CLI's cell rules:
    bools as ``str``, a missing value as an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if c is None else str(c) if isinstance(c, (bool, np.bool_))
                        else c if isinstance(c, str) else _fmt_float(c) for c in row])


FLOATS = [-0.0, 5e-324, 1e16, 1e-5, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0]


def test_write_csv_matches_the_per_cell_formatter(tmp_path):
    n = len(FLOATS)
    bits = np.random.default_rng(0).integers(0, 2**64 - 1, size=n, dtype=np.uint64,
                                             endpoint=True)
    columns = [
        np.arange(n),                                   # numpy ints
        list(range(-4, n - 4)),                         # Python ints
        np.array(FLOATS),                               # numpy floats, as an array
        [np.float64(v) for v in FLOATS],                # numpy float scalars in a list
        list(FLOATS),                                   # Python floats
        bits.view(np.float64),                          # arbitrary doubles
        np.arange(n) % 2 == 0,                          # a numpy bool array
        [True, False, np.True_, np.False_, True, None, False, np.True_, None],
        [None, 1.5, None, 2, "a,b", 'say "x"', "plain", None, 0.0],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "columns.csv", header, columns)
    rows = [[col[i] for col in columns] for i in range(n)]
    _reference_csv(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(3), [1.0, 2.0]])


def test_write_json_encodes_numpy_as_python(tmp_path):
    write_json(tmp_path / "np.json", {"f": np.float64(0.1), "i": np.int64(3),
                                      "b": np.True_, "a": np.array([[1.0, 2.5]])})
    write_json(tmp_path / "py.json", {"f": 0.1, "i": 3, "b": True, "a": [[1.0, 2.5]]})
    assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})
    assert json.loads((tmp_path / "np.json").read_text())["i"] == 3


@pytest.mark.parametrize("seed", range(4))
def test_power_sigma_converged_means_within_rtol(seed):
    # a cluster 1, 0.999, 0.998 at the top of the spectrum: a test on the change
    # of sigma between iterations stops short by 5.5e-4 to 1.2e-3 and still
    # reports converged; the Ritz residual bounds the actual error
    n, rtol = 400, 1e-4
    eig = np.concatenate([[1.0, 0.999, 0.998], np.linspace(0.0, 0.9, n - 3)])
    mass = np.linspace(0.5, 2.0, n)
    g = np.random.default_rng(seed)
    v0 = g.standard_normal(n) + 1j * g.standard_normal(n)
    # a diagonal operator is self-adjoint in the diagonal mass inner product
    sigma, _, conv, residual = power_sigma(lambda v: eig * v, sp.diags(mass), v0, rtol=rtol)
    assert conv and residual <= rtol
    assert abs(sigma - 1.0) <= rtol
