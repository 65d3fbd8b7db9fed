import numpy as np
import pytest

from minertia import kernels


def random_hermitian_f(rng, q):
    a = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    return (a + a.conj().T) / 2


@pytest.fixture
def nprng():
    return np.random.default_rng(20240917)


class TestBatchStats:
    def test_matches_single_path(self, nprng):
        d, q, n = 4, 5, 64
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
        coeffs = nprng.standard_normal((n, d))
        npl, nmi, nun, f = kernels.batch_stats(basis, coeffs, 1e-9)
        for i in range(n):
            x = np.tensordot(coeffs[i], basis, axes=(0, 0))
            ev = np.linalg.eigvalsh(x)
            scale = np.abs(ev).max()
            want_f = max(ev[1], -ev[q - 2]) / scale
            assert abs(f[i] - want_f) < 1e-9
            thr = 1e-9 * scale
            assert npl[i] == np.count_nonzero(ev > thr)
            assert nmi[i] == np.count_nonzero(ev < -thr)
            assert npl[i] + nmi[i] + nun[i] == q

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("zero_basis", [False, True])
    def test_objective_matches_the_descent_objective_bit_for_bit(
        self, monkeypatch, nprng, q, zero_basis
    ):
        # batch_stats spells out _objective_from_eigs vectorised; both must
        # give the same float on the same eigenvalue row, so the rows are
        # the ones batch_stats computes, not a second product
        d, n = 3, 40
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
        if zero_basis:
            basis[:] = 0
        coeffs = nprng.standard_normal((n, d))
        coeffs[0] = 0.0
        real, rows = np.linalg.eigvalsh, []

        def recorded(x):
            rows.append(real(x))
            return rows[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        f = kernels.batch_stats(basis, coeffs, 1e-9)[3]
        (ev,) = rows
        want = np.array([kernels._objective_from_eigs(row) for row in ev])
        assert want.tobytes() == f.tobytes()
        assert np.isneginf(f[0]) and np.isneginf(f).all() == zero_basis

    def test_shape_validation(self, nprng):
        basis = np.stack([random_hermitian_f(nprng, 3) for _ in range(2)])
        with pytest.raises(ValueError):
            kernels.batch_stats(basis, nprng.standard_normal((5, 3)), 1e-9)


class TestCoordinateDescent:
    def test_never_decreases_objective(self, nprng):
        d, q = 5, 5
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
        c0 = nprng.standard_normal(d)
        x0 = np.tensordot(c0 / np.linalg.norm(c0), basis, axes=(0, 0))
        ev0 = np.linalg.eigvalsh(x0)
        f0 = max(ev0[1], -ev0[q - 2]) / np.abs(ev0).max()
        c, f, evals, hit = kernels.coordinate_descent(basis, c0, 40, 1e-4)
        assert f >= f0 - 1e-12
        assert evals >= 1
        assert abs(np.linalg.norm(c) - 1.0) < 1e-9

    def test_margin_stop(self, nprng):
        # a basis that contains a definite matrix: objective can reach >= 0
        q = 4
        basis = np.stack(
            [np.eye(q, dtype=np.complex128), random_hermitian_f(nprng, q)]
        )
        c, f, evals, hit = kernels.coordinate_descent(
            basis, np.array([1.0, 0.05]), 200, 1e-4
        )
        assert hit
        assert f >= 1e-4

    def test_deterministic(self, nprng):
        d, q = 4, 4
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
        c0 = nprng.standard_normal(d)
        r1 = kernels.coordinate_descent(basis, c0, 30, 1e-4)
        r2 = kernels.coordinate_descent(basis, c0, 30, 1e-4)
        assert np.array_equal(r1[0], r2[0])
        assert r1[1:] == r2[1:]
