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


# The float kernels as they were before evaluations skipped np.linalg.norm
# and np.max(np.abs(...)); the kernels must give the same floats bit for bit.
def _reference_objective(ev):
    q = ev.shape[0]
    scale = float(np.max(np.abs(ev)))
    if scale == 0.0:
        return -np.inf
    if q == 1:
        return 1.0
    return float(max(ev[1], -ev[q - 2]) / scale)


def _reference_descent(basis, c0, sweeps, margin):
    d, q, _ = basis.shape
    flat = basis.reshape(d, q * q)

    def f_of(c):
        return _reference_objective(np.linalg.eigvalsh((c @ flat).reshape(q, q)))

    c = np.asarray(c0, dtype=np.float64).copy()
    norm = np.linalg.norm(c)
    if norm == 0.0:
        return c, -np.inf, 0, False
    c /= norm
    f = f_of(c)
    evals = 1
    step = 0.5
    for _ in range(sweeps):
        if f >= margin:
            return c, f, evals, True
        improved = False
        for i in range(d):
            for sgn in (1.0, -1.0):
                cand = c.copy()
                cand[i] += sgn * step
                cand /= np.linalg.norm(cand)
                fc = f_of(cand)
                evals += 1
                if fc > f:
                    c, f = cand, fc
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return c, f, evals, f >= margin


def _reference_batch_stats(basis, coeffs, tol):
    d, q, _ = basis.shape
    n = coeffs.shape[0]
    ev = np.linalg.eigvalsh((coeffs @ basis.reshape(d, q * q)).reshape(n, q, q))
    scale = np.abs(ev).max(axis=1)
    thr = tol * scale
    n_plus = (ev > thr[:, None]).sum(axis=1).astype(np.int64)
    n_minus = (ev < -thr[:, None]).sum(axis=1).astype(np.int64)
    f = np.array([_reference_objective(row) for row in ev])
    return n_plus, n_minus, q - n_plus - n_minus, f


class TestAgainstTheReferenceKernels:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("zero_basis", [False, True])
    def test_coordinate_descent_bit_for_bit(self, nprng, q, zero_basis):
        for d, sweeps, margin in ((1, 5, 1e-4), (3, 20, 1e-4), (6, 40, 0.3), (4, 80, 2.0)):
            basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
            if zero_basis:
                basis[:] = 0
            for c0 in (nprng.standard_normal(d), np.zeros(d), np.eye(d)[0] * 1e-3):
                got = kernels.coordinate_descent(basis, c0, sweeps, margin)
                want = _reference_descent(basis, c0, sweeps, margin)
                assert got[0].tobytes() == want[0].tobytes()
                assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
                assert got[2:] == want[2:]

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("zero_basis", [False, True])
    def test_batch_stats_bit_for_bit(self, nprng, q, zero_basis):
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(3)])
        if zero_basis:
            basis[:] = 0
        coeffs = nprng.standard_normal((50, 3))
        coeffs[0] = 0.0
        got = kernels.batch_stats(basis, coeffs, 1e-9)
        want = _reference_batch_stats(basis, coeffs, 1e-9)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
