import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import as_matrices, gamma_matrices
from minertia import kernels, search
from minertia.cli import main
from minertia.hermitian_core import HermitianMatrix
from minertia.search import CERTIFY_MARGIN, SubspaceBasis


def random_hermitian_f(rng, q):
    a = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    return (a + a.conj().T) / 2


@pytest.fixture
def nprng():
    return np.random.default_rng(20240917)


def _image(basis):
    """The (q^2, d) float image of a (d, q, q) complex Hermitian stack, as
    ``SubspaceBasis.float_image`` makes it: each matrix's coordinates in
    the order of ``search._layout``, weighted by sqrt 2 off the diagonal."""
    d, q, _ = basis.shape
    _, gather, _, weight, _, _ = search._layout(q)
    grids = np.concatenate((basis.real, basis.imag), axis=1).reshape(d, 2 * q * q)
    return (grids[:, gather] * weight).T


def _span(image):
    """(Q, R, keep) of the QR of ``image``, with Q turned into matrices as
    the search turns it."""
    span, r, keep = kernels.orthonormal_span(image)
    return as_matrices(span), r, keep


def _samples(image, n, rng):
    """The orthonormal span (Q, R, keep) of ``image``, Q turned into
    matrices, and n random coordinate rows z on Q, as the search draws
    them (not normalized)."""
    span, r, keep = _span(image)
    return span, r, keep, rng.standard_normal((n, len(keep)))


class TestBatchStats:
    def test_matches_single_path(self, nprng):
        d, q, n = 4, 5, 64
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
        span, r, keep, z = _samples(_image(basis), n, nprng)
        npl, nmi, nun, f = kernels.batch_stats(span, z, 1e-9)
        for i in range(n):
            # the sample's element, summed from its basis coefficients
            x = np.tensordot(kernels.span_coefficients(r, keep, z[i], d), basis, axes=(0, 0))
            ev = np.linalg.eigvalsh(x)
            scale = np.abs(ev).max()
            want_f = max(ev[1], -ev[q - 2]) / scale
            assert abs(f[i] - want_f) < 1e-9
            thr = 1e-9 * scale
            assert npl[i] == np.count_nonzero(ev > thr)
            assert nmi[i] == np.count_nonzero(ev < -thr)
            assert npl[i] + nmi[i] + nun[i] == q

    def test_shape_validation(self, nprng):
        basis = np.stack([random_hermitian_f(nprng, 3) for _ in range(2)])
        span = _span(_image(basis))[0]
        with pytest.raises(ValueError):
            kernels.batch_stats(span, nprng.standard_normal((5, 3)), 1e-9)


# batch_stats as it was before it skipped np.linalg.norm and
# np.max(np.abs(...)), with the objective one row at a time, fed the Q
# that the search turns into matrices; it must give the same floats bit
# for bit.
def _reference_objective(ev):
    q = ev.shape[0]
    scale = float(np.max(np.abs(ev)))
    if scale == 0.0:
        return -np.inf
    if q == 1:
        return 1.0
    return float(max(ev[1], -ev[q - 2]) / scale)


def _reference_batch_stats(span, z, tol):
    q, n = math.isqrt(len(span) // 2), len(z)
    ev = np.linalg.eigvalsh((z @ span.T).view(np.complex128).reshape(n, q, q))
    scale = np.abs(ev).max(axis=1)
    thr = tol * scale
    n_plus = (ev > thr[:, None]).sum(axis=1).astype(np.int64)
    n_minus = (ev < -thr[:, None]).sum(axis=1).astype(np.int64)
    f = np.array([_reference_objective(row) for row in ev])
    return n_plus, n_minus, q - n_plus - n_minus, f


class TestAgainstTheReferenceKernels:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("zero_basis", [False, True])
    def test_batch_stats_bit_for_bit(self, nprng, q, zero_basis):
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(3)])
        if zero_basis:
            basis[:] = 0
        span, r, keep, z = _samples(_image(basis), 50, nprng)
        z[0] = 0.0
        got = kernels.batch_stats(span, z, 1e-9)
        want = _reference_batch_stats(span, z, 1e-9)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # each row's element is the one its basis coefficients sum to
        flat = basis.reshape(3, -1)
        for zi in z:
            x = (span @ zi).view(np.complex128)
            c = kernels.span_coefficients(r, keep, zi, 3)
            assert np.allclose(c @ flat, x, rtol=0, atol=1e-12 * max(1.0, np.abs(x).max()))


def _real_image(basis):
    """The (2q^2, d) real image, Re and Im of each entry side by side."""
    return np.stack((basis.real, basis.imag), axis=-1).reshape(len(basis), -1).T


def _project(basis, c0, margin=CERTIFY_MARGIN):
    """The projection from the element with basis coefficients c0, its
    coordinates z0 on Q, with the hit's or last coordinates carried back:
    (c, f, iterations, hit, z0, z)."""
    span, r, keep = _span(_image(basis))
    z0 = span.T @ (_real_image(basis) @ c0)
    z, f, iterations, hit = kernels.alternating_projection(span, z0, margin)
    return kernels.span_coefficients(r, keep, z, len(basis)), f, iterations, hit, z0, z


def _zero_pivot_basis():
    # diag(1, 0, 0, 0) and diag(1, 2^-1100, 0, 0) are independent, but both
    # float images are diag(1, 0, 0, 0): their QR has an exactly zero pivot
    e = HermitianMatrix.diagonal([1, 0, 0, 0])
    twin = e.add(HermitianMatrix.diagonal([0, 1, 0, 0]).scale(Fraction(1, 2**1100)))
    return SubspaceBasis(4, [e, twin] + gamma_matrices(4))


# the least-squares map and the projection in basis coefficients as they
# were before the projection moved to the QR's coordinates
def _reference_least_squares_map(basis):
    d, q, _ = basis.shape
    image, keep = np.concatenate((basis.real, basis.imag), axis=1).reshape(d, -1).T, np.arange(d)
    qm, r = np.linalg.qr(image)
    while not r.diagonal().all():
        keep = np.delete(keep, np.flatnonzero(r.diagonal() == 0)[0])
        qm, r = np.linalg.qr(image[:, keep])
    rows, p = qm.T.copy(), np.zeros((d, 2 * q * q))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(keep) - 1, -1, -1):
            rows[k] = (rows[k] - r[k, k + 1 :] @ rows[k + 1 :]) / r[k, k]
    p[keep] = rows
    return p[:, : q * q] - 1j * p[:, q * q :]


def _reference_projection(basis, c0, margin):
    d, q, _ = basis.shape
    lsq, flat, k = _reference_least_squares_map(basis), basis.reshape(d, q * q), min(1, q - 1)
    c, iterations, best, stalled = np.array(c0, dtype=np.float64), 0, -np.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < kernels.MAX_ITERATIONS and stalled < kernels.STALL_ITERATIONS:
            x = (c @ flat).reshape(q, q)
            if not (np.isfinite(x).all() and x.any()):
                break
            w, v = np.linalg.eigh(x)
            iterations += 1
            scale = max(-w[0], w[-1])
            if iterations == 1 and -w[-1 - k] > w[k]:
                c, w, v = -c, -w[::-1], v[:, ::-1]
            f = float(w[k] / scale)
            if f >= margin:
                return c, f, iterations, True
            best, stalled = (f, 0) if f >= best + kernels.MIN_IMPROVEMENT else (best, stalled + 1)
            w = w / scale
            w[1:] = np.maximum(w[1:], kernels.MARGIN_DELTA)
            c = (lsq @ ((v * w) @ v.conj().T).ravel()).real
    return c, best, iterations, False


class TestAgainstTheReferenceProjection:
    def _agree(self, basis, starts, dropped=False):
        # the reference reads the complex matrices, the kernels their float image
        d, q, _ = basis.shape
        flat = basis.reshape(d, q * q)
        later = 0
        for c0 in starts:
            c, f, iterations, hit, _, _ = _project(basis, c0)
            want = _reference_projection(basis, c0, CERTIFY_MARGIN)
            assert (iterations, hit) == want[2:]
            assert f == pytest.approx(want[1], rel=1e-9, abs=1e-12)
            # the same float element; at iteration 1 the reference's c is
            # the start itself, which may weigh a dropped matrix
            scale = np.linalg.norm(want[0] @ flat)
            assert np.linalg.norm(c @ flat - want[0] @ flat) <= 1e-9 * scale
            if iterations > 1 or not dropped:
                later += 1
                assert np.linalg.norm(c - want[0]) <= 1e-9 * np.linalg.norm(want[0])
        return later

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_same_iterations_hits_and_coefficients_on_random_bases(self, nprng, q):
        for d in sorted({1, (q * q + 1) // 2, q * q}):
            basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
            self._agree(basis, nprng.standard_normal((6, d)))

    def test_same_iterations_hits_and_coefficients_past_a_dropped_pivot(self, nprng):
        L = _zero_pivot_basis()
        basis = np.array([[[complex(e) for e in row] for row in b.entries] for b in L.basis])
        assert np.array_equal(_image(basis), L.float_image())
        assert kernels.orthonormal_span(L.float_image())[2].tolist() == [0, 2, 3, 4, 5, 6]
        assert self._agree(basis, nprng.standard_normal((24, len(basis))), dropped=True) > 0


class TestOrthonormalSpan:
    @pytest.mark.parametrize("q,d", [(1, 1), (2, 3), (4, 9), (5, 9), (6, 30)])
    def test_matches_lstsq_on_the_real_image(self, nprng, q, d):
        # the least-squares fit of y in the Frobenius norm, on the real view
        basis = np.stack([random_hermitian_f(nprng, q) for _ in range(d)])
        y = random_hermitian_f(nprng, q)
        want = np.linalg.lstsq(_real_image(basis), _real_image(y[None])[:, 0], rcond=None)[0]
        image = _image(basis)
        span, r, keep = kernels.orthonormal_span(image)
        assert image.shape == span.shape == (q * q, d)
        assert keep.tolist() == list(range(d)) and r.shape == (d, d)
        assert np.allclose(span.T @ span, np.eye(d), atol=1e-12)
        assert np.allclose(span @ r, image, rtol=1e-12, atol=1e-12)
        got = kernels.span_coefficients(r, keep, y.view(np.float64).ravel() @ as_matrices(span), d)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_an_exactly_zero_pivot_drops_its_column(self):
        # diag(1, 0) and diag(1, 2^-1100) are independent, but both float
        # images are diag(1, 0): their QR has an exactly zero pivot, on
        # which a solve of R raises LinAlgError
        image = SubspaceBasis(2, [
            HermitianMatrix.diagonal([1, 0]),
            HermitianMatrix.from_scaled(2 ** 1100, [[2 ** 1100, 0], [0, 1]], [[0, 0], [0, 0]]),
            HermitianMatrix([[0, 1], [1, 0]]),
        ]).float_image()
        assert image.shape == (4, 3) and np.array_equal(image[:, 0], image[:, 1])
        r = np.linalg.qr(image)[1]
        assert 0 in r.diagonal()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(r, np.eye(3))
        span, r, keep = kernels.orthonormal_span(image)
        assert keep.tolist() == [0, 2] and np.isfinite(r).all()
        # Q and R are the QR of the kept columns alone: R is square
        assert r.shape == (2, 2) and np.array_equal(r, np.triu(r))
        assert np.allclose(span.T @ span, np.eye(2), atol=1e-12)
        assert np.allclose(span @ r, image[:, keep], rtol=1e-12, atol=1e-12)
        y = np.array([[2.0, 3.0], [3.0, 0.0]], dtype=np.complex128)
        c = kernels.span_coefficients(r, keep, y.view(np.float64).ravel() @ as_matrices(span), 3)
        assert c[1] == 0 and np.allclose(c, [2.0, 0.0, 3.0])

    def test_the_zero_pivot_basis_keeps_a_square_r_of_its_other_columns(self):
        image = _zero_pivot_basis().float_image()
        span, r, keep = kernels.orthonormal_span(image)
        assert keep.tolist() == [0, 2, 3, 4, 5, 6] and r.shape == (6, 6)
        assert np.allclose(span @ r, image[:, keep], rtol=1e-12, atol=1e-12)
        # each kept matrix's coordinates lift to itself, and the twin to diag(1, 0, 0, 0)
        d = image.shape[1]
        for j in range(d):
            c = kernels.span_coefficients(r, keep, span.T @ image[:, j], d)
            want = np.eye(d)[0 if j == 1 else j]
            assert c[1] == 0 and np.allclose(c, want, rtol=0, atol=1e-12)


class TestAlternatingProjection:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_start_with_margin_hits_at_iteration_1(self, nprng, q, sign):
        # +-(I + R / 20) is definite, and +-diag(-1, 1, ..., 1) has m = 1 with margin
        flip = np.diag([-1.0] + [1.0] * (q - 1))
        basis = np.stack([np.eye(q), random_hermitian_f(nprng, q) / 20, flip]).astype(complex)
        for c0 in (np.array([sign, 1.0, 0.0]), np.array([0.0, 0.0, sign])):
            c, f, iterations, hit, z0, z = _project(basis, c0)
            assert (iterations, hit) == (1, True)
            # the start's element, or its negative when that side is closer
            assert np.array_equal(z, z0) or np.array_equal(z, -z0)
            # z0 is a product with Q, so a zero coefficient lifts to rounding;
            # at q = 1 the three matrices are parallel, and c weighs the first alone
            flat = basis.reshape(3, -1)
            got, want = (c, c0) if q > 1 else (c @ flat, c0 @ flat)
            assert any(np.allclose(got, s * want, rtol=1e-12, atol=1e-12) for s in (1, -1))
            ev = np.linalg.eigvalsh(np.tensordot(c, basis, axes=(0, 0)))
            assert f == pytest.approx(ev[min(1, q - 1)] / np.abs(ev).max(), rel=1e-12)
            assert f >= CERTIFY_MARGIN

    @pytest.mark.parametrize("q,dim", [(4, 2), (4, 5), (8, 5)])
    def test_every_start_on_a_witness_free_subspace_stops_by_stagnation(self, nprng, q, dim):
        # every nonzero element has eigenvalues +-|a|, q/2 times each: the
        # objective stays -1, and no start reaches the iteration cap
        image = SubspaceBasis(q, gamma_matrices(q)[:dim]).float_image()
        span, _, _, starts = _samples(image, 12, nprng)
        for z0 in starts:
            z, f, iterations, hit = kernels.alternating_projection(span, z0, CERTIFY_MARGIN)
            assert not hit and abs(f + 1) < 1e-9
            assert iterations == kernels.STALL_ITERATIONS + 1 < kernels.MAX_ITERATIONS

    @pytest.mark.parametrize("q,d", [(3, 2), (4, 3), (5, 6), (6, 10)])
    def test_reruns_are_bit_identical(self, nprng, q, d):
        image = _image(np.stack([random_hermitian_f(nprng, q) for _ in range(d)]))
        span, r, keep, starts = _samples(image, 6, nprng)
        again = _span(image)
        assert [a.tobytes() for a in (span, r, keep)] == [a.tobytes() for a in again]
        for z0 in starts:
            first = kernels.alternating_projection(span, z0, CERTIFY_MARGIN)
            again = kernels.alternating_projection(span, z0, CERTIFY_MARGIN)
            assert first[0].tobytes() == again[0].tobytes() and first[1:] == again[1:]
            c = kernels.span_coefficients(r, keep, first[0], d)
            assert c.tobytes() == kernels.span_coefficients(r, keep, again[0], d).tobytes()

    def test_perfbench_traces_the_phase_by_its_old_name(self):
        assert kernels.coordinate_descent is kernels.alternating_projection


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "5", "--dim", "9", "--seed", "3"],  # seed 2 certifies a sample
        ["--q", "5", "--dim", "6", "--seed", "4"],
        ["--q", "9", "--dim", "49", "--seed", "2"],
        # more samples than one chunk: two workers sample in a thread pool
        ["--q", "6", "--dim", "6", "--seed", "1", "--samples", str(2 * search._CHUNK + 1)],
    ],
)
def test_search_prints_the_same_report_with_one_and_two_workers(argv):
    docs = []
    for workers in ("1", "2"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["search", *argv, "--workers", workers]) == 0
        doc = json.loads(out.getvalue())
        assert doc.pop("workers") == int(workers)
        docs.append(doc)
    assert docs[0] == docs[1]
    default = search.SearchConfig(seed=0).samples
    samples = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else default
    assert docs[0]["samples_used"] > samples  # the projection phase ran
