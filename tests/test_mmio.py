import numpy as np
import pytest

from rsvdreg import mmio, problems


def test_matrix_roundtrip(tmp_path, rng):
    A = rng.standard_normal((5, 3))
    path = tmp_path / "A.mtx"
    mmio.write_matrix(path, A)
    header = path.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix array real general")
    assert np.allclose(mmio.read_matrix(path), A)


def test_vector_roundtrip(tmp_path, rng):
    v = rng.standard_normal(7)
    path = tmp_path / "v.mtx"
    mmio.write_vector(path, v)
    assert np.allclose(mmio.read_vector(path), v)
    assert mmio.read_matrix(path).shape == (7, 1)


@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
def test_coordinate_file_reads_dense(tmp_path, rng, symmetry):
    import scipy.io
    import scipy.sparse

    A = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.4)
    if symmetry == "symmetric":
        A = A + A.T
    path = tmp_path / "A.mtx"
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(A), symmetry=symmetry)
    header = path.read_text().splitlines()[0]
    assert header == f"%%MatrixMarket matrix coordinate real {symmetry}"
    back = mmio.read_matrix(path)
    assert type(back) is np.ndarray and np.array_equal(back, A)


def test_vector_rejects_matrix(tmp_path, rng):
    path = tmp_path / "M.mtx"
    mmio.write_matrix(path, rng.standard_normal((3, 2)))
    with pytest.raises(ValueError, match="single-column"):
        mmio.read_vector(path)


def test_problem_directory_roundtrip(tmp_path):
    prob = problems.make_problem("shaw", 16, problems.NoiseSpec(0.01, 7))
    files = mmio.save_problem(prob, tmp_path / "p")
    assert files == ["A.mtx", "b.mtx", "meta.json", "x_true.mtx"]
    back = mmio.load_problem(tmp_path / "p")
    assert back.name == "shaw"
    assert np.allclose(back.A, prob.A)
    assert np.allclose(back.b, prob.b)
    assert np.allclose(back.b_exact, prob.b_exact)
    assert back.delta_rel == prob.delta_rel
    assert back.noise_norm == prob.noise_norm


def test_problem_export_deterministic(tmp_path):
    prob = problems.make_problem("shaw", 16, problems.NoiseSpec(0.01, 7))
    mmio.save_problem(prob, tmp_path / "a")
    mmio.save_problem(prob, tmp_path / "b")
    for name in ("A.mtx", "b.mtx", "x_true.mtx", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
