import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    action_residuals_per_vector,
    basis_vectors_per_block,
    block,
    block_ids,
    canonical_form_from_layout,
    lstsq_projection_sq,
    project,
    shift_matrix,
)

from wirtinger import (
    BlockOutOfRange,
    DimensionMismatch,
    InvalidSize,
    NonFinite,
    basis_norm,
    build_basis,
    canonical_form,
    canonical_residuals,
    coordinates,
    cyclic_correlation,
    extremal_span_residual,
    shift,
    verify_action,
)
from wirtinger.spectral import (
    Fixed,
    Rotation,
    action_residuals,
    aligned_harmonics,
    block_energies,
    block_layout,
)

GRAM_TOL = 1e-12
TWO_PI = 2.0 * math.pi
ACTION_TOL = 1e-12
EQUIV_REL_TOL = 1e-11
# sizes on which the whole-array kernels must give the per-vector and
# per-block references' bits
BIT_SIZES = (*range(4, 161), 257, 512, 1024)


def gram_residual(basis) -> float:
    v = basis.vectors
    return float(np.abs(v @ v.T - np.eye(basis.n)).max())


def test_printed_basis_n4():
    b = build_basis(4)
    r = math.sqrt(0.5)
    assert np.allclose(b.vectors[0], [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert np.allclose(b.vectors[1], [0.5, -0.5, 0.5, -0.5], atol=1e-15)
    assert np.allclose(b.vectors[2], [r, 0, -r, 0], atol=1e-15)
    assert np.allclose(b.vectors[3], [0, r, 0, -r], atol=1e-15)


def test_printed_basis_n5_first_vector():
    b = build_basis(5)
    assert np.allclose(b.vectors[0], np.full(5, 1 / math.sqrt(5)), atol=1e-15)


def test_build_basis_rejects_small_n():
    with pytest.raises(InvalidSize):
        build_basis(3)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 31, 32, 128, 512])
def test_gram_identity(n):
    assert gram_residual(build_basis(n)) <= GRAM_TOL


def test_block_layout_even():
    blocks = block_layout(6)
    assert blocks[0] == Fixed(index=0, eigenvalue=1.0, k=0)
    assert blocks[1].eigenvalue == -1.0 and blocks[1].k == 3
    rot = [b for b in blocks if isinstance(b, Rotation)]
    assert [b.k for b in rot] == [1, 2]
    covered = {blocks[0].index, blocks[1].index}
    for b in rot:
        covered.update(b.indices)
    assert covered == set(range(6))


def test_block_layout_odd():
    blocks = block_layout(7)
    assert isinstance(blocks[0], Fixed) and blocks[0].eigenvalue == 1.0
    rot = [b for b in blocks if isinstance(b, Rotation)]
    assert [b.k for b in rot] == [1, 2, 3]
    covered = {blocks[0].index}
    for b in rot:
        covered.update(b.indices)
    assert covered == set(range(7))
    assert rot[1].angle == pytest.approx(2 * math.pi * 2 / 7)


@pytest.mark.parametrize("n", [4, 5, 128])
def test_action_residual(n):
    assert verify_action(build_basis(n)) <= ACTION_TOL


def test_verify_action_keeps_a_nan_in_any_block(monkeypatch):
    """A NaN block residual is the maximum wherever it sits; Python's max() over
    the blocks kept it only when it came first."""
    from wirtinger import spectral

    blocks = {0: 1e-16, 1: math.nan, 2: 2e-16}
    monkeypatch.setattr(spectral, "action_residuals", lambda basis: blocks)
    assert math.isnan(verify_action(build_basis(4)))


@pytest.mark.parametrize("n", [4, 5, 12, 128])
def test_action_rotates_by_plus_angle(n):
    """Every block, rotation planes included, matches the shift's image with
    the plane rotated by +2*pi*k/n; the opposite sense would miss by 2 sin."""
    residuals = action_residuals(build_basis(n))
    assert sorted(residuals) == list(range(n // 2 + 1))
    assert all(r <= ACTION_TOL for r in residuals.values())


def test_build_basis_matches_per_block_bits():
    """Filling every rotation row at once gives the bits of one block at a time."""
    for n in BIT_SIZES:
        assert build_basis(n).vectors.tobytes() == basis_vectors_per_block(n).tobytes(), n


def test_action_residuals_match_per_vector_rolls_bits():
    """One roll of the whole basis, with all rotation blocks taken at once,
    gives every block's residual the same bits as rolling each basis vector
    on its own."""
    for n in BIT_SIZES:
        basis = build_basis(n)
        assert action_residuals(basis) == action_residuals_per_vector(basis), n


def test_rotation_cos_sin_are_math_cos_and_sin_once_per_basis():
    """The basis' rotation values are math.cos and math.sin of 2*pi*k/n, bit for
    bit, read-only, and built once: a second read returns the same array."""
    for n in range(4, 65):
        basis = build_basis(n)
        table = basis.rotation_cos_sin
        ks = range(1, (n - 1) // 2 + 1)
        want = [[math.cos(TWO_PI * k / n) for k in ks], [math.sin(TWO_PI * k / n) for k in ks]]
        assert table.tobytes() == np.array(want).tobytes() and not table.flags.writeable, n
        assert basis.rotation_cos_sin is table


def test_canonical_form_matches_rebuilt_layout_bits():
    """Reading basis.blocks gives the bits of rebuilding the layout from n."""
    rng = np.random.default_rng(17)
    for n in BIT_SIZES:
        basis = build_basis(n)
        for _ in range(3):
            y = rng.standard_normal(n)
            assert canonical_form(y, basis) == canonical_form_from_layout(y, n), n


def test_canonical_form_has_square_bits():
    """Coordinates whose Python y ** 2 (the C library's pow) rounds differently
    from the correctly rounded np.square give the form of np.square, on every
    block kind."""
    ys = np.random.default_rng(3).standard_normal(20_000)
    ys = ys[np.square(ys) != np.array([t ** 2 for t in ys.tolist()])]
    assert ys.size > 5
    for n in (8, 9, 64):
        y = np.resize(ys, n)
        assert canonical_form(y, build_basis(n)) == canonical_form_from_layout(y, n), n


def _functions_called(fn, *args) -> set:
    """The (module, name) of each Python function that fn(*args) enters."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return called


@pytest.mark.parametrize("n", [16, 512])
def test_canonical_form_never_takes_fsum_rows(n):
    """The form side of verify's canonical check sums by math.fsum, so it
    shares no exact-sum kernel with the correlation side at any n."""
    basis = build_basis(n)
    y = np.random.default_rng(n).standard_normal(n)
    called = _functions_called(canonical_form, y, basis)
    assert ("wirtinger.spectral", "_canonical_forms") in called
    assert ("wirtinger.core", "fsum_rows") not in called


def test_canonical_residuals_match_per_vector_bits():
    """Each row's residual has the bits of coordinates, canonical_form and
    cyclic_correlation taken one vector at a time.  Two rows have |corr|
    below the 1e-3 floor: a single spike (corr = 0) and a row scaled by 1e-3."""
    rng = np.random.default_rng(29)
    for n in BIT_SIZES:
        basis = build_basis(n)
        xs = rng.standard_normal((5, n))
        xs[0] = np.where(np.arange(n) == n // 3, 0.7, 0.0)
        xs[1] *= 1e-3
        want = []
        for x in xs:
            corr = cyclic_correlation(x)
            form = canonical_form(coordinates(x, basis), basis)
            want.append(abs(form - corr) / max(abs(corr), 1e-3))
        assert canonical_residuals(xs, basis).tobytes() == np.array(want).tobytes(), n


def test_canonical_residuals_rejects_bad_rows():
    basis = build_basis(6)
    with pytest.raises(DimensionMismatch):
        canonical_residuals(np.ones((2, 5)), basis)
    with pytest.raises(DimensionMismatch):
        canonical_residuals(np.ones(6), basis)
    with pytest.raises(NonFinite):
        canonical_residuals(np.array([[1.0, 0, 0, 0, 0, math.inf]]), basis)
    assert canonical_residuals(np.empty((0, 6)), basis).shape == (0,)


def test_canonical_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        canonical_form(np.ones(5), build_basis(4))


def test_coordinates_of_basis_vector():
    b = build_basis(6)
    y = coordinates(b.vectors[0], b)
    expected = np.zeros(6)
    expected[0] = 1.0
    assert np.allclose(y, expected, atol=1e-15)


def test_coordinates_zero_mean_kills_first():
    s = 1 / math.sqrt(2)
    y = coordinates(np.array([0, -s, 0, s]), build_basis(4))
    assert abs(y[0]) <= 1e-15


def test_coordinates_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        coordinates(np.ones(5), build_basis(4))


def test_parseval_random():
    rng = np.random.default_rng(3)
    for n in (4, 9, 32):
        b = build_basis(n)
        x = rng.standard_normal(n)
        y = coordinates(x, b)
        norm_sq = float(x @ x)
        assert math.fsum(v * v for v in y) == pytest.approx(norm_sq, rel=1e-12)
        # reconstruction
        assert np.abs(y @ b.vectors - x).max() <= 1e-12 * math.sqrt(norm_sq)


def test_canonical_form_unit_coordinates():
    b = build_basis(6)
    y = np.zeros(6)
    y[0] = 1.0
    assert canonical_form(y, b) == pytest.approx(1.0, abs=1e-15)
    y = np.zeros(6)
    y[1] = 1.0
    assert canonical_form(y, b) == pytest.approx(-1.0, abs=1e-15)


def test_canonical_form_extremal_vector_n4():
    s = 1 / math.sqrt(2)
    b = build_basis(4)
    y = coordinates(np.array([0, -s, 0, s]), b)
    assert canonical_form(y, b) == pytest.approx(math.cos(2 * math.pi / 4), abs=1e-15)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 31, 32, 128])
def test_canonical_equals_correlation(n):
    rng = np.random.default_rng(100 + n)
    b = build_basis(n)
    for _ in range(10):
        x = rng.standard_normal(n)
        corr = cyclic_correlation(x)
        form = canonical_form(coordinates(x, b), b)
        assert form == pytest.approx(corr, rel=EQUIV_REL_TOL, abs=1e-11)


def test_project_basis_vector():
    b = build_basis(8)
    assert project(b.vectors[0], b, 0) == pytest.approx(1.0, abs=1e-14)
    for k in block_ids(b):
        if k != 0:
            assert project(b.vectors[0], b, k) <= 1e-28


def test_project_cosine_samples_n5():
    """Samples of cos t at n=5 carry squared norm 5/2, all in block 1."""
    n = 5
    i = np.arange(1, n + 1)
    x = np.cos(2 * math.pi * i / n)
    b = build_basis(n)
    assert project(x, b, 1) == pytest.approx(n / 2, rel=1e-14)
    assert project(x, b, 2) <= 1e-28
    # brute-force least-squares oracle on the same block rows
    rot = block(b, 1)
    oracle = lstsq_projection_sq(x, b.vectors[list(rot.indices)])
    assert project(x, b, 1) == pytest.approx(oracle, rel=1e-13)


def test_project_completeness():
    rng = np.random.default_rng(5)
    for n in (4, 7, 32):
        b = build_basis(n)
        x = rng.standard_normal(n)
        total = math.fsum(project(x, b, k) for k in block_ids(b))
        assert total == pytest.approx(float(x @ x), rel=1e-12)


def test_project_block_out_of_range():
    b = build_basis(6)
    with pytest.raises(BlockOutOfRange):
        project(np.ones(6), b, 4)


def test_block_energies_match_project():
    """The FFT energies against the dense basis, both parities and sizes up to 1024."""
    rng = np.random.default_rng(8)
    for n in [*range(4, 70), 128, 257, 1024]:
        b = build_basis(n)
        x = rng.standard_normal(n)
        energies = block_energies(x)
        assert len(energies) == n // 2 + 1
        for k, e in enumerate(energies.tolist()):
            assert e == pytest.approx(project(x, b, k), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("n", [4, 5, 12])
def test_antisymmetry_of_shift_in_basis(n):
    b = build_basis(n)
    shifted = np.stack([shift(v) for v in b.vectors])
    m = b.vectors @ shifted.T  # m[i, j] = <e_i, T(e_j)>
    off = m + m.T
    np.fill_diagonal(off, 0.0)
    assert np.abs(off).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 5, 6, 17, 64])
def test_eigenvalue_multiset_against_dense_solver(n):
    """The symmetrized shift matrix has eigenvalues {1, (-1 if even), cos(2*pi*k/n) x2}."""
    s = shift_matrix(n)
    sym = (s + s.T) / 2
    got = np.sort(np.linalg.eigvalsh(sym))
    expected = [1.0]
    if n % 2 == 0:
        expected.append(-1.0)
    for k in range(1, (n - 1) // 2 + 1):
        expected.extend([math.cos(2 * math.pi * k / n)] * 2)
    assert np.abs(got - np.sort(expected)).max() <= 1e-10


def test_aligned_harmonics_live_in_their_block():
    n = 16
    b = build_basis(n)
    for k in (1, 3, 7):
        c, s = aligned_harmonics(n, k)
        for v in (c, s):
            norm_sq = float(v @ v)
            assert project(v, b, k) == pytest.approx(norm_sq, rel=1e-13)
    with pytest.raises(BlockOutOfRange):
        aligned_harmonics(16, 8)


def test_rotation_blocks_follow_the_size_rule():
    """n = 3 has a block k = 1, but every function that takes a rotation block
    raises InvalidSize below n = 4, as basis_norm and block_energies did."""
    for call in (lambda: aligned_harmonics(3, 1), lambda: basis_norm(3, 1),
                 lambda: extremal_span_residual([1.0, 0.0, -1.0]),
                 lambda: block_energies([1.0, 0.0, -1.0])):
        with pytest.raises(InvalidSize):
            call()


def test_import_does_not_load_numpy_fft():
    """numpy.fft is reached at call time, so importing the package does not pay for it."""
    code = "import sys, wirtinger, wirtinger.cli; print('numpy.fft' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
