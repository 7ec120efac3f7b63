import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    harmonic_span_residual,
    oracle_max_dense,
    oracle_max_eigh,
    random_unit_zero_mean_per_vector,
    random_unit_zero_mean_rows_per_row,
)

from wirtinger import (
    ConstraintViolation,
    ConvergenceFailure,
    InvalidSize,
    NonFinite,
    bound_comparison,
    center_normalize,
    check_inequality,
    check_inequality_rows,
    cyclic_correlation,
    discrete_bound,
    extremal_span_residual,
    extremal_vector,
    max_violation,
    oracle_max,
    piecewise_bound,
    random_unit_zero_mean_rows,
)
from wirtinger import cli, inequality
from wirtinger.core import FSUM_ROWS_MIN_ENTRIES

SLACK_TOL = 1e-12
TWO_PI = 2.0 * math.pi

# closed forms evaluated at 50 decimal digits, rounded to double
PW_BOUND_4 = 0.12579985131695962
PW_BOUND_10 = 0.8147939796674301
MARGIN_100 = 6.486253847612179e-07
MARGIN_2048 = 3.6913667516130365e-12


def test_discrete_bound_values():
    assert abs(discrete_bound(4)) <= 1e-15
    assert discrete_bound(6) == pytest.approx(0.5, abs=1e-15)
    assert discrete_bound(5) == pytest.approx(0.30901699437494745, abs=0, rel=1e-15)


def test_discrete_bound_rejects_small_n():
    with pytest.raises(InvalidSize):
        discrete_bound(3)


def test_piecewise_bound_values():
    assert piecewise_bound(4) == pytest.approx(PW_BOUND_4, rel=1e-15)
    assert piecewise_bound(10) == pytest.approx(PW_BOUND_10, rel=1e-15)


def test_piecewise_bound_monotone_to_one():
    values = [piecewise_bound(n) for n in range(4, 4097)]
    assert all(b < 1.0 for b in values)
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))
    assert values[-1] > 0.999995


def test_extremal_vector_n4():
    s = 1 / math.sqrt(2)
    x = extremal_vector(4, s, 0.0)
    assert np.allclose(x, [0, -s, 0, s], atol=1e-15)


def test_extremal_vector_n6():
    x = extremal_vector(6, 0.0, 1 / math.sqrt(3))
    assert np.allclose(x, [0.5, 0.5, 0, -0.5, -0.5, 0], atol=1e-15)


def test_extremal_vector_constraint_gate():
    with pytest.raises(ConstraintViolation):
        extremal_vector(8, 0.5, 0.5)  # 0.5 != 2/8


def test_extremal_vector_is_conforming():
    for n in (4, 5, 12, 129):
        r = math.sqrt(2.0 / n)
        x = extremal_vector(n, r * math.cos(0.3), r * math.sin(0.3))
        assert abs(float(np.sum(x))) <= 1e-12
        assert float(x @ x) == pytest.approx(1.0, abs=1e-12)


def test_extremal_vector_attains_bound():
    for n in (4, 5, 6, 7, 12, 31, 32):
        r = math.sqrt(2.0 / n)
        x = extremal_vector(n, r * math.cos(1.1), r * math.sin(1.1))
        assert cyclic_correlation(x) == pytest.approx(discrete_bound(n), abs=SLACK_TOL)


def test_rotation_family_slack():
    for n in (5, 16):
        r = math.sqrt(2.0 / n)
        for theta in np.arange(0.0, 6.3, 0.7):
            report = check_inequality(extremal_vector(n, r * math.cos(theta), r * math.sin(theta)))
            assert abs(report.slack) <= SLACK_TOL
            assert report.satisfied


def test_check_inequality_alternating():
    report = check_inequality(np.array([1, -1, 1, -1]) / 2)
    assert report.correlation == pytest.approx(-1.0, abs=1e-15)
    assert report.slack == pytest.approx(1.0, abs=1e-15)
    assert report.satisfied


def test_check_inequality_rejects_unnormalized():
    with pytest.raises(ConstraintViolation):
        check_inequality(np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ConstraintViolation):
        check_inequality(np.array([1, -1, 1, -1]))  # zero mean but norm 2


def test_random_conforming_slacks():
    rng = np.random.default_rng(42)
    for n in (4, 5, 17, 64):
        for x in random_unit_zero_mean_rows(n, 200, rng):
            assert check_inequality(x).slack >= -SLACK_TOL


def test_random_unit_zero_mean_constraints():
    rng = np.random.default_rng(1)
    for n in (4, 100, 512):
        x = random_unit_zero_mean_rows(n, 1, rng)[0]
        assert abs(float(np.sum(x))) <= 1e-12
        assert float(x @ x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 5, 200])
@pytest.mark.parametrize("n", [4, 5, 17, 160, 512])
def test_rows_match_sequential_draws(n, m):
    """One (m, n) draw gives the per-vector vectors bit for bit and leaves the
    stream where m per-vector draws leave it."""
    rng_rows, rng_seq = np.random.default_rng(n * m), np.random.default_rng(n * m)
    rows = random_unit_zero_mean_rows(n, m, rng_rows)
    seq = np.array([random_unit_zero_mean_per_vector(n, rng_seq) for _ in range(m)])
    assert rows.shape == (m, n)
    assert rows.tobytes() == seq.tobytes()
    assert rng_rows.standard_normal(3).tobytes() == rng_seq.standard_normal(3).tobytes()
    assert random_unit_zero_mean_rows(n, 1, rng_rows)[0].tobytes() == (
        random_unit_zero_mean_per_vector(n, rng_seq).tobytes())


@pytest.mark.parametrize("m", [1, 5, 200])
def test_rows_match_per_row_fsum_bits(m):
    """The whole-array row sums give the rows, and the stream position, of one
    math.fsum per row."""
    for n in (*range(4, 161), 257, 512, 1024):
        for seed in (0, 1):
            rng_rows = np.random.default_rng([seed, n, m])
            rng_ref = np.random.default_rng([seed, n, m])
            rows = random_unit_zero_mean_rows(n, m, rng_rows)
            ref = random_unit_zero_mean_rows_per_row(n, m, rng_ref)
            assert rows.tobytes() == ref.tobytes(), (n, seed)
            assert rng_rows.standard_normal(2).tobytes() == rng_ref.standard_normal(2).tobytes()


@pytest.mark.parametrize("n", [4, 10, 19, 20, 21, 160, 512])
def test_one_draw_of_205_rows_equals_5_then_200(n):
    """verify draws its 5 canonical and 200 slack rows in one call.  That gives
    the rows of a draw of 5 and then one of 200, bit for bit, and leaves the
    generator in the same state.  fsum_rows takes its whole-array route from
    2048 entries on: 205 rows from n = 10 on, 200 rows from n = 11 on and
    5 rows from n = 410 on."""
    rng_one, rng_two = np.random.default_rng([n, 205]), np.random.default_rng([n, 205])
    one = random_unit_zero_mean_rows(n, 205, rng_one)
    two = np.concatenate([random_unit_zero_mean_rows(n, 5, rng_two),
                          random_unit_zero_mean_rows(n, 200, rng_two)])
    assert one.tobytes() == two.tobytes()
    assert rng_one.bit_generator.state == rng_two.bit_generator.state


class RowQueue:
    """Stands in for a Generator: standard_normal serves queued rows in order."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.served = 0

    def standard_normal(self, size):
        count = size[0] if isinstance(size, tuple) else None
        take = self.rows[self.served:self.served + (count or 1)]
        self.served += len(take)
        return np.array(take) if count is not None else np.array(take[0])


def test_rows_redraw_degenerate_row():
    """A constant row centers to zero norm: it is dropped and the shortfall drawn
    again, giving the vectors and stream position of the per-vector retry."""
    n = 6
    queued = np.random.default_rng(3).standard_normal((8, n))
    queued[2] = 3.0
    rows_rng, seq_rng = RowQueue(queued), RowQueue(queued)
    rows = random_unit_zero_mean_rows(n, 5, rows_rng)
    seq = np.array([random_unit_zero_mean_per_vector(n, seq_rng) for _ in range(5)])
    assert rows.tobytes() == seq.tobytes()
    assert rows_rng.served == seq_rng.served == 6


@pytest.mark.parametrize("n, m, degenerate", [
    (10, 205, None), (160, 205, None), (512, 5, None), (2048, 3, 1)])
def test_rows_hand_fsum_rows_a_scratch_past_the_entry_threshold(n, m, degenerate, monkeypatch):
    """Every fsum_rows call of the draw at m*n >= FSUM_ROWS_MIN_ENTRIES gets a
    scratch, the redraw's too (n = 2048, one constant row), and the rows are
    those of the per-row reference."""
    queued = np.random.default_rng([n, m]).standard_normal((m + 1, n))
    if degenerate is not None:
        queued[degenerate] = 3.0
    calls = []
    fsum_rows = inequality.fsum_rows
    monkeypatch.setattr(inequality, "fsum_rows", lambda x, scratch=None: calls.append(
        (x.size, scratch is not None)) or fsum_rows(x, scratch))
    rows = random_unit_zero_mean_rows(n, m, RowQueue(queued))
    assert rows.tobytes() == random_unit_zero_mean_rows_per_row(n, m, RowQueue(queued)).tobytes()
    assert len(calls) == 2 * (1 + (degenerate is not None))
    assert all(with_scratch for size, with_scratch in calls if size >= FSUM_ROWS_MIN_ENTRIES)


def _slack_outcome(f, xs):
    """The bytes of the slacks f gives, or the type and message of what it raises."""
    try:
        return np.asarray(f(xs), dtype=float).tobytes()
    except (ValueError, OverflowError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _slacks_per_row(xs):
    return [check_inequality(x).slack for x in xs]


def test_check_inequality_rows_matches_per_row_bits():
    """Random rows on both fsum_rows routes, and extremal rows, whose slacks
    have both signs at the rounding level."""
    rng = np.random.default_rng(23)
    for n in (4, 5, 17, 64, 160, 512):
        for m in (1, 5, 200):
            xs = random_unit_zero_mean_rows(n, m, rng)
            assert check_inequality_rows(xs).tobytes() == np.array(_slacks_per_row(xs)).tobytes()
    for n in range(4, 65):
        r = math.sqrt(2.0 / n)
        xs = np.array([extremal_vector(n, r * math.cos(t), r * math.sin(t))
                       for t in np.linspace(0.0, TWO_PI, 25)])
        assert check_inequality_rows(xs).tobytes() == np.array(_slacks_per_row(xs)).tobytes()


def test_check_inequality_rows_raises_as_the_first_failing_row():
    """Whatever check_inequality raises on the first row it rejects, with the
    same message, whichever rows follow."""
    xs = random_unit_zero_mean_rows(8, 6, np.random.default_rng(5))
    scaled, shifted, nan, huge, overflow = (xs.copy() for _ in range(5))
    scaled[2] *= 1.0 + 1e-9
    shifted[1] += 1e-9
    nan[3, 5] = np.nan
    huge[4] *= 3.0
    overflow[1, :3] = [1e308, 1e308, -1e308]  # math.fsum overflows on this row
    cases = [scaled, shifted, nan, huge, overflow]
    cases.append(np.concatenate([shifted[:2], scaled[2:]]))  # two violations, two messages
    cases.append(np.concatenate([scaled[:3], nan[3:]]))  # a violation, then a NaN
    cases.append(np.concatenate([nan[3:], scaled[:3]]))  # a NaN, then a violation
    cases.append(np.concatenate([huge[4:], overflow]))  # wild rows that fail differently
    cases.append(xs[:, :3])  # n < 4
    cases.append(np.where(np.arange(3)[None, :] == 0, np.inf, xs[:, :3]))  # n < 4, not finite
    for rows in cases:
        want = _slack_outcome(_slacks_per_row, rows)
        assert isinstance(want, tuple)
        assert _slack_outcome(check_inequality_rows, rows) == want
    with pytest.raises(ValueError):
        check_inequality_rows(xs[0])
    with pytest.raises(ValueError):
        check_inequality_rows(xs[:0])


def test_check_inequality_rows_redoes_the_rows_its_margins_cannot_decide(monkeypatch):
    """Rows whose float norm or mean lies within the 2*n*eps margin of
    CONSTRAINT_TOL go to check_inequality one at a time.  Those it accepts
    keep their per-row slack bits.  A row whose exact norm is just past the
    tolerance, though its numpy norm is not, raises its per-row message:
    with no margin, or with no check of the undecided rows, it would pass."""
    n = 256
    tol = inequality.CONSTRAINT_TOL
    u = random_unit_zero_mean_rows(n, 40, np.random.default_rng(29))
    # norms within a few ulps of 1 + tol, and means just inside tol
    steps = 1.0 + np.arange(-8, 9)[:, None, None] * 2.0**-53
    scaled = (u * math.sqrt(1.0 + tol) * steps).reshape(-1, n)
    outcomes = [_slack_outcome(_slacks_per_row, [x]) for x in scaled]
    accepted = np.array([not isinstance(o, tuple) for o in outcomes])
    inside = np.concatenate([scaled[accepted], u[:5] + (tol - 1e-15)])
    past = scaled[~accepted & (np.abs(np.einsum("ij,ij->i", scaled, scaled) - 1.0) <= tol)]
    assert len(past) > 0
    redone = []
    check = inequality.check_inequality
    monkeypatch.setattr(inequality, "check_inequality", lambda x: redone.append(1) or check(x))
    slacks = check_inequality_rows(inside)
    assert len(redone) == len(inside)
    monkeypatch.undo()
    assert slacks.tobytes() == np.array(_slacks_per_row(inside)).tobytes()
    assert _same_float(max_violation(inside), _max_violation_per_row(inside))
    rows = np.concatenate([inside, past[:1], u])
    want = _slack_outcome(_slacks_per_row, rows)
    assert want[0] is ConstraintViolation
    assert _slack_outcome(check_inequality_rows, rows) == want
    assert _slack_outcome(max_violation, rows) == want


def _max_violation_per_row(xs) -> float:
    worst = 0.0
    for x in xs:
        worst = max(worst, -min(check_inequality(x).slack, 0.0))
    return worst


def _same_float(a: float, b: float) -> bool:
    return a.hex() == b.hex()  # also tells 0.0 from -0.0


def test_max_violation_matches_per_row_on_random_rows():
    rng = np.random.default_rng(11)
    for n in (4, 5, 17, 64, 160, 512):
        xs = random_unit_zero_mean_rows(n, 200, rng)
        got = max_violation(xs)
        assert _same_float(got, _max_violation_per_row(xs))
        assert got == 0.0


def test_max_violation_matches_per_row_on_extremal_rows():
    """Extremal rows sit on the bound, where no row is decided from the numpy
    sums: every slack comes from the compensated fallback, with both signs.
    Each row is also checked alone: without the rounding bound, 14 of these
    1525 rows are decided from a numpy sum of the wrong sign, and a block's
    maximum can hide that."""
    slacks = []
    for n in range(4, 65):
        r = math.sqrt(2.0 / n)
        xs = np.array([extremal_vector(n, r * math.cos(t), r * math.sin(t))
                       for t in np.linspace(0.0, TWO_PI, 25)])
        slacks.extend(check_inequality(x).slack for x in xs)
        assert _same_float(max_violation(xs), _max_violation_per_row(xs)), n
        for x in xs:
            assert _same_float(max_violation(x[None, :]), _max_violation_per_row([x])), n
    assert min(slacks) < 0.0 < max(slacks)


def test_max_violation_keeps_a_nan_slack(monkeypatch):
    """Extremal rows at n = 16 are all decided by the exact slacks; a NaN among
    them is returned, where max(0.0, -nan) gave 0.0."""
    r = math.sqrt(2.0 / 16)
    xs = np.array([extremal_vector(16, r * math.cos(t), r * math.sin(t))
                   for t in np.linspace(0.0, TWO_PI, 25)])
    monkeypatch.setattr(inequality, "check_inequality_rows",
                        lambda rows: np.full(len(rows), np.nan))
    assert math.isnan(max_violation(xs))


@st.composite
def near_extremal_rows(draw):
    """(m, n) rows: center_normalize of cos(t + phase) + eps*noise, or of pure noise."""
    n = draw(st.integers(4, 96))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = TWO_PI * np.arange(1, n + 1) / n
    rows = []
    for _ in range(m):
        eps = draw(st.sampled_from([0.0, 1e-17, 1e-15, 1e-12, 1e-8, 1.0]))
        noise = rng.standard_normal(n)
        rows.append(center_normalize(np.cos(t + rng.uniform(0, TWO_PI)) + eps * noise)
                    if eps < 1.0 else center_normalize(noise))
    return np.array(rows)


@given(near_extremal_rows())
@settings(max_examples=200, deadline=None)
def test_max_violation_matches_per_row_property(xs):
    assert _same_float(max_violation(xs), _max_violation_per_row(xs))
    for x in xs:
        assert _same_float(max_violation(x[None, :]), _max_violation_per_row([x]))


def test_max_violation_raises_as_check_inequality():
    rng = np.random.default_rng(5)
    xs = random_unit_zero_mean_rows(8, 4, rng)
    scaled = xs.copy()
    scaled[2] *= 1.0 + 1e-9
    with pytest.raises(ConstraintViolation) as batched:
        max_violation(scaled)
    with pytest.raises(ConstraintViolation) as single:
        check_inequality(scaled[2])
    assert str(batched.value) == str(single.value)
    shifted = xs.copy()
    shifted[1] += 1e-9
    with pytest.raises(ConstraintViolation, match="mean="):
        max_violation(shifted)
    for bad in (np.nan, np.inf):
        broken = xs.copy()
        broken[3, 5] = bad
        with pytest.raises(NonFinite):
            max_violation(broken)
    with pytest.raises(InvalidSize):
        max_violation(random_unit_zero_mean_rows(4, 2, rng)[:, :3])
    with pytest.raises(ValueError):
        max_violation(xs[0])


def test_oracle_max_values():
    value, _ = oracle_max(5)
    assert value == pytest.approx(0.30901699437494745, abs=1e-12)
    value, _ = oracle_max(4)
    assert abs(value) <= 1e-12
    value, _ = oracle_max(64)
    assert value == pytest.approx(discrete_bound(64), abs=1e-10)


def test_oracle_max_argmax_is_extremal():
    for n in (4, 5, 9, 64, 145, 512):
        _, argmax = oracle_max(n)
        assert float(argmax @ argmax) == pytest.approx(1.0, abs=1e-12)
        assert extremal_span_residual(argmax) <= 1e-8
        # independent least-squares check of the same membership claim
        assert harmonic_span_residual(argmax) <= 1e-8
        # the argmax is built on the odd vectors, so it is odd to the bit
        assert argmax[0] == 0.0
        assert np.array_equal(argmax[:0:-1], -argmax[1:])


def test_oracle_max_matches_dense_eigensolver():
    """The odd-vector oracle agrees with the deflated n x n eigensolver within
    the 16 eps budget of the mpmath test, and both argmaxes are first harmonics."""
    for n in range(4, 129):
        fast, dense = oracle_max(n), oracle_max_dense(n)
        assert abs(fast.value - dense.value) <= 16 * 2.0**-52, n
        assert harmonic_span_residual(fast.argmax) <= 1e-8, n
        assert harmonic_span_residual(dense.argmax) <= 1e-8, n


def test_oracle_max_matches_eigh_on_the_tridiagonal():
    """The Sturm-sequence Newton oracle agrees with LAPACK eigh on the same
    dense tridiagonal: the value within 16 eps, the argmax within 1e-12 up to
    the eigenvector's sign."""
    for n in range(4, 129):
        fast, dense = oracle_max(n), oracle_max_eigh(n)
        assert abs(fast.value - dense.value) <= 16 * 2.0**-52, n
        sign = math.copysign(1.0, float(fast.argmax @ dense.argmax))
        assert np.abs(fast.argmax - sign * dense.argmax).max() <= 1e-12, n


def test_oracle_max_matches_mpmath_cos():
    """The eigensolver maximum is within 16 eps of a 40-digit cos(2*pi/n) over
    the oracle's whole range."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in range(4, 513):
            exact = mpmath.cos(2 * mpmath.pi / n)
            error = abs(oracle_max(n).value - exact)
            assert error <= 16 * 2.0**-52, (n, float(error / 2.0**-52))


def test_oracle_max_calls_no_lapack_and_builds_no_matrix(monkeypatch):
    """The oracle runs with numpy's linear algebra and its matrix builders
    made to raise: its only array is the argmax."""
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for name in ("eigh", "eigvalsh", "eig", "solve", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("eye", "diag", "zeros", "empty"):
        monkeypatch.setattr(np, name, refuse)
    for n in (4, 5, 160, 511, 512):
        assert oracle_max(n).argmax.shape == (n,)


def test_oracle_max_newton_step_cap(monkeypatch):
    """Every n up to the cap converges within 8 Newton steps, and the cap
    raises ConvergenceFailure when it is too small."""
    monkeypatch.setattr(inequality, "NEWTON_MAX_STEPS", 8)
    for n in range(4, 513):
        oracle_max(n)
    monkeypatch.setattr(inequality, "NEWTON_MAX_STEPS", 5)
    with pytest.raises(ConvergenceFailure, match="5 Newton steps"):
        oracle_max(64)


def test_oracle_max_residual_gate(monkeypatch, capsys):
    """A pivot guard far above LAPACK's stops Newton short of the eigenvalue, and
    the residual gate then fails the library call and both commands that call it."""
    monkeypatch.setattr(inequality, "PIVMIN", 1e-4)
    for n in (8, 16, 64, 257, 512):
        with pytest.raises(ConvergenceFailure, match=r"eigensolver residual .* exceeds 1e-12"):
            oracle_max(n)
    monkeypatch.setattr(inequality, "PIVMIN", 1e-3)
    for command in ("maximize", "verify"):
        assert cli.main([command, "--n", "16"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: eigensolver residual 3.022e-04 exceeds 1e-12\n"


def test_oracle_max_size_limits():
    with pytest.raises(InvalidSize):
        oracle_max(3)
    with pytest.raises(InvalidSize):
        oracle_max(513)


def test_bound_comparison_small_n():
    cmp4 = bound_comparison(4)
    assert cmp4.lhs == pytest.approx(0.0, abs=1e-15)
    assert cmp4.rhs == pytest.approx(PW_BOUND_4, rel=1e-15)
    assert cmp4.margin == pytest.approx(0.1258, abs=5e-5)


def test_bound_comparison_frozen_values():
    """Margins against 50-digit evaluation; the n=2048 case loses ~5 digits
    if computed by naive subtraction, so this pins the stable rearrangement."""
    assert bound_comparison(100).margin == pytest.approx(MARGIN_100, rel=1e-10)
    assert bound_comparison(2048).margin == pytest.approx(MARGIN_2048, rel=1e-10)


def test_bound_margin_small_n_matches_mpmath():
    """At n = 4..7, where the margin falls below (2*pi/n)^4/30, both the naive
    difference and the rearranged margin match a 60-digit evaluation of
    (6 - 2a^2)/(6 + a^2) - cos(a) to within a few ulps of 1.0."""
    mpmath = pytest.importorskip("mpmath")
    tol = 4 * 2.0 ** -52
    with mpmath.workdps(60):
        for n in range(4, 8):
            a = 2 * mpmath.pi / n
            exact = (6 - 2 * a ** 2) / (6 + a ** 2) - mpmath.cos(a)
            naive = piecewise_bound(n) - discrete_bound(n)
            assert abs(naive - exact) <= tol
            assert abs(bound_comparison(n).margin - exact) <= tol


def test_bound_margin_matches_mpmath_at_large_n():
    """The margin keeps its digits as n grows: within 8 ulps relative of
    (6 - 2a^2)/(6 + a^2) - cos(a), evaluated with 4*log10(n) + 30 digits so
    that the reference's own cancellation stays below them."""
    mpmath = pytest.importorskip("mpmath")
    for n in [*range(4, 400), 2048, 65536, 10**6, 10**8, 10**12]:
        with mpmath.workdps(int(4 * math.log10(n)) + 30):
            a = 2 * mpmath.pi / n
            exact = (6 - 2 * a**2) / (6 + a**2) - mpmath.cos(a)
            error = abs(bound_comparison(n).margin - exact) / exact
        assert error <= 8 * 2.0**-52, (n, float(error))


def test_bound_comparison_positive_margin():
    for n in range(4, 2049):
        assert bound_comparison(n).margin > 0.0


def test_bound_comparison_consistent_with_parts():
    for n in (4, 7, 33, 500):
        cmp_ = bound_comparison(n)
        assert cmp_.lhs == pytest.approx(discrete_bound(n), abs=1e-15)
        assert cmp_.rhs == pytest.approx(piecewise_bound(n), abs=1e-15)
        assert cmp_.margin == pytest.approx(cmp_.rhs - cmp_.lhs, abs=1e-13)
