"""Matrix Market array-format import/export.

Matrices are written in the dense text format
(``%%MatrixMarket matrix array real general``); vectors travel as
single-column matrices.  Output is deterministic byte-for-byte for
identical inputs.
"""

import numpy as np
import scipy.io
import scipy.sparse

from .linalg import as_matrix, as_vector


def write_matrix(path, A):
    """Write a dense matrix to ``path`` in Matrix Market array format."""
    A = as_matrix(A)
    scipy.io.mmwrite(str(path), A, field="real", symmetry="general")


def read_matrix(path):
    """Read a Matrix Market file, array or coordinate format, as a dense
    matrix."""
    A = scipy.io.mmread(str(path))
    if scipy.sparse.issparse(A):
        A = A.toarray()
    return as_matrix(A)


def write_vector(path, v):
    """Write a vector as an n-by-1 Matrix Market array."""
    v = as_vector(v)
    write_matrix(path, v.reshape(-1, 1))


def read_vector(path):
    """Read an n-by-1 Matrix Market array back into a 1-d vector."""
    A = read_matrix(path)
    if A.shape[1] != 1:
        raise ValueError(f"expected a single-column matrix in {path}, got {A.shape}")
    return A[:, 0]


def save_problem(problem, dirpath):
    """Export a problem instance as a directory.

    Layout: ``A.mtx`` (matrix), ``x_true.mtx`` and ``b.mtx`` (single-column
    vectors) plus ``meta.json``.  The exact data is not stored separately:
    ``b_exact = A @ x_true`` holds by construction and is recomputed on
    load.  Identical problems serialize byte-identically.
    """
    import json
    import pathlib

    d = pathlib.Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    write_matrix(d / "A.mtx", problem.A)
    write_vector(d / "x_true.mtx", problem.x_true)
    write_vector(d / "b.mtx", problem.b)
    meta = {
        "name": problem.name,
        "n": problem.A.shape[0],
        "m": problem.A.shape[1],
        "delta_rel": problem.delta_rel,
        "seed": problem.seed,
        "noise_norm": problem.noise_norm,
        "w_norm": problem.w_norm,
        "norms": {
            "x_true": float(np.linalg.norm(problem.x_true)),
            "b_exact": float(np.linalg.norm(problem.b_exact)),
            "b": float(np.linalg.norm(problem.b)),
        },
    }
    (d / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sorted(p.name for p in d.iterdir())


def load_problem(dirpath):
    """Load a problem directory written by :func:`save_problem`."""
    import json
    import pathlib

    from .problems import InverseProblem

    d = pathlib.Path(dirpath)
    meta = json.loads((d / "meta.json").read_text())
    A = read_matrix(d / "A.mtx")
    x_true = read_vector(d / "x_true.mtx")
    b = read_vector(d / "b.mtx")
    return InverseProblem(
        name=meta["name"],
        A=A,
        x_true=x_true,
        b_exact=A @ x_true,
        b=b,
        delta_rel=meta["delta_rel"],
        seed=meta["seed"],
        noise_norm=meta["noise_norm"],
        w_norm=meta.get("w_norm"),
    )
