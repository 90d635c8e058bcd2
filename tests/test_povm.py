"""Measurement construction, positivity algebra and the optimal weights."""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrot import cli, povm
from entrot.entanglement import average_cost, resource_entropy
from entrot.montecarlo import monte_carlo
from entrot.povm import (CaseLabel, HALF_PI, PovmWeights, ProtocolParams,
                         bell_conversion_prob, build_povm, det_e3,
                         discriminant, optimum, pmax_oracle, povm_vectors,
                         tr_e3)
from entrot.protocol import prepare_resource, run_once
from entrot.qmath import StateVector

angles = st.floats(0.05 * math.pi, 0.5 * math.pi)


# ------------------------------------------------------- validation

@pytest.mark.parametrize("theta,alpha", [
    (0.0, 0.3), (-0.1, 0.3), (HALF_PI + 1e-9, 0.3),
    (0.3, 0.0), (0.3, -0.1), (0.3, HALF_PI + 1e-9),
    (math.nan, 0.3), (0.3, math.inf),
    (0.3, 5e-324), (0.3, 1e-310),  # subnormal resource angles
])
def test_params_reject_out_of_range(theta, alpha):
    with pytest.raises(ValueError):
        ProtocolParams(theta, alpha)


@pytest.mark.parametrize("alpha", [0.0, -0.1, 2.0, 5e-324, 1e-310, math.nan])
def test_every_alpha_taker_applies_the_one_rule(alpha):
    """``ProtocolParams``, ``prepare_resource``, ``resource_entropy`` and
    ``bell_conversion_prob`` reject a bad resource angle with one message.
    A NaN fails the constructor's joint finiteness check first."""
    takers = [lambda a: ProtocolParams(0.3, a), prepare_resource,
              resource_entropy, bell_conversion_prob]
    if math.isnan(alpha):
        takers = takers[1:]
    messages = set()
    for take in takers:
        with pytest.raises(ValueError) as info:
            take(alpha)
        messages.add(str(info.value))
    assert len(messages) == 1
    if math.isnan(alpha):
        assert messages == {"alpha must lie in (0, pi/2], got nan"}


def test_params_allow_wide_theta_only_at_bell_resource():
    ProtocolParams(-2.0, HALF_PI)          # fine with a Bell pair
    ProtocolParams(math.pi, HALF_PI)
    with pytest.raises(ValueError):
        ProtocolParams(-2.0, 0.4 * math.pi)
    with pytest.raises(ValueError):
        ProtocolParams(math.pi + 1e-9, HALF_PI)


#: Angles at and one ulp either side of every edge of the domain, with
#: both signs, and the non-finite values.
_EDGES = [sign * v for edge in (0.0, HALF_PI, math.pi, sys.float_info.min,
                                5e-324, 1e-320)
          for v in (math.nextafter(edge, -math.inf), edge,
                    math.nextafter(edge, math.inf))
          for sign in (1.0, -1.0)] + [math.inf, -math.inf, math.nan]


def test_array_domain_check_agrees_with_the_constructor():
    """``_in_domain`` admits exactly the points ``ProtocolParams`` admits,
    over every pair of edge values."""
    grid = np.meshgrid(_EDGES, _EDGES, indexing="ij")
    got = povm._in_domain(*grid)
    assert got.any() and not got.all()
    for theta, alpha, admitted in zip(*(g.ravel().tolist()
                                        for g in (*grid, got))):
        try:
            ProtocolParams(theta, alpha)
        except ValueError:
            assert not admitted, (theta, alpha)
        else:
            assert admitted, (theta, alpha)


def test_trig_snaps_to_exact_zero_at_right_angles():
    assert ProtocolParams(0.3, HALF_PI).cos_alpha == 0.0
    assert ProtocolParams(HALF_PI, 0.3).cos_theta == 0.0
    assert ProtocolParams(0.3, 0.4).cos_alpha == math.cos(0.4)


def test_weights_reject_negative_and_non_finite():
    PovmWeights(0.0, 0.0)
    with pytest.raises(ValueError):
        PovmWeights(-1e-9, 0.1)
    with pytest.raises(ValueError):
        PovmWeights(0.1, math.nan)


# ---------------------------------------------------------- vectors

def test_vectors_at_bell_resource_and_right_angle_gate():
    v1, v2 = povm_vectors(ProtocolParams(HALF_PI, HALF_PI))
    assert v1 == pytest.approx([1.0, 1.0], abs=1e-12)
    assert v2 == pytest.approx([1.0, -1.0], abs=1e-12)


def test_vectors_small_gate_angle_limit():
    v1, _ = povm_vectors(ProtocolParams(1e-9, math.pi / 3))
    assert v1[0] == pytest.approx(1.0 / math.cos(math.pi / 6), abs=1e-9)
    assert abs(v1[1]) < 1e-8


@given(angles, angles)
def test_vector_overlap_closed_form(theta, alpha):
    params = ProtocolParams(theta, alpha)
    v1, v2 = povm_vectors(params)
    ch, sh = math.cos(theta / 2), math.sin(theta / 2)
    ca2 = params.cos_half_alpha ** 2
    sa2 = params.sin_half_alpha ** 2
    expected = ch * sh * (1.0 / ca2 - 1.0 / sa2)
    assert float(v1 @ v2) == pytest.approx(expected, abs=1e-10)


def test_vectors_orthogonal_exactly_when_resource_is_bell():
    v1, v2 = povm_vectors(ProtocolParams(0.31 * math.pi, HALF_PI))
    assert abs(float(v1 @ v2)) < 1e-12
    v1, v2 = povm_vectors(ProtocolParams(0.31 * math.pi, 0.49 * math.pi))
    assert abs(float(v1 @ v2)) > 1e-4


# ------------------------------------------------------ build_povm

def test_povm_elements_sum_to_identity_and_are_real():
    params = ProtocolParams(0.37 * math.pi, 0.23 * math.pi)
    s = build_povm(params, PovmWeights(0.2, 0.1))
    assert np.abs(s.e1 + s.e2 + s.e3 - np.eye(2)).max() < 1e-12
    assert np.isrealobj(s.e1) and np.isrealobj(s.e2)
    assert not s.e1.flags.writeable


def test_zero_weights_give_identity_remainder():
    s = build_povm(ProtocolParams(0.3, 0.4), PovmWeights(0.0, 0.0))
    assert np.array_equal(s.e3, np.eye(2))
    assert s.positive


def test_bell_resource_equal_weights_leave_no_remainder():
    for theta in (0.1, 0.7, 1.2, HALF_PI):
        s = build_povm(ProtocolParams(theta, HALF_PI), PovmWeights(0.5, 0.5))
        assert np.abs(s.e3).max() < 1e-12


def test_known_case_ii_optimum_sits_on_positivity_edge():
    params = ProtocolParams(math.pi / 4, math.pi / 6)
    s = build_povm(params, PovmWeights(0.32247, 0.0))
    assert s.positive
    w = np.linalg.eigvalsh(np.asarray(s.e3))
    assert abs(w[0]) < 1e-4  # weight rounded to 5 digits -> edge within 1e-4
    exact = optimum(params)
    s2 = build_povm(params, exact.weights)
    assert abs(s2.min_eig_e3) < 1e-9


def test_infeasible_weights_are_flagged_not_rejected():
    s = build_povm(ProtocolParams(0.3, 0.3), PovmWeights(5.0, 5.0))
    assert not s.positive
    assert s.min_eig_e3 < -0.1


@pytest.mark.parametrize("alpha", [1e-200, 1e-300])
@pytest.mark.parametrize("x,y", [(1e-300, 0.0), (0.5, 0.0), (0.0, 0.5),
                                 (0.5, 0.5)])
def test_overflowing_elements_are_flagged_without_a_warning(alpha, x, y):
    """Below alpha ~ 1e-154 a weighted element overflows.  The POVM is
    then infeasible with a min eigenvalue of -inf, never NaN, and a run
    stops on the one-line non-positive error; any RuntimeWarning fails
    the test."""
    params = ProtocolParams(0.3, alpha)
    weights = PovmWeights(x, y)
    s = build_povm(params, weights)
    assert not s.positive and s.min_eig_e3 == -math.inf
    with pytest.raises(ValueError,
                       match=r"non-positive POVM \(min eigenvalue -inf\)"):
        monte_carlo(params, trials=16, seed=0, weights=weights)


def _fresh(params, weights):
    """``build_povm`` on an empty memo, with ``sqrt_e3`` computed."""
    povm._povm_set.cache_clear()
    s = build_povm(params, weights)
    s.sqrt_e3
    return s


@pytest.mark.parametrize("one,other", [
    ((ProtocolParams(0.3, 0.4), PovmWeights(-0.0, 0.02)),
     (ProtocolParams(0.3, 0.4), PovmWeights(0.0, 0.02))),
    ((ProtocolParams(0.3, 0.4), PovmWeights(0.01, -0.0)),
     (ProtocolParams(0.3, 0.4), PovmWeights(0.01, 0.0))),
    ((ProtocolParams(np.float64(0.3), np.float64(0.4)), PovmWeights(0.01, 0.02)),
     (ProtocolParams(0.3, 0.4), PovmWeights(0.01, 0.02))),
    ((ProtocolParams(-0.0, HALF_PI), PovmWeights(0.5, 0.5)),
     (ProtocolParams(0.0, HALF_PI), PovmWeights(0.5, 0.5))),
])
def test_equal_keys_share_one_set_with_the_same_bytes(one, other):
    """The memo hands a set built for one key to every equal key, so
    equal keys must build byte-equal elements; whichever comes first."""
    assert one == other
    built = [_fresh(*one), _fresh(*other)]
    for name in ("e1", "e2", "e3", "sqrt_e3"):
        assert getattr(built[0], name).tobytes() == \
            getattr(built[1], name).tobytes()
    assert build_povm(*one) is built[1]  # the memo hit


def test_memoised_sets_are_read_only():
    s = build_povm(ProtocolParams(0.3, 0.4), PovmWeights(0.01, 0.02))
    for name in ("e1", "e2", "e3", "sqrt_e3"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[0, 0] = 0.0
    with pytest.raises(AttributeError):
        s.e3 = np.eye(2)


def test_non_positive_povm_stays_flagged_on_every_call():
    """A memo hit is the same flagged set, and each run on it raises the
    same message, whichever of two equal weights came first."""
    params = ProtocolParams(0.3, 0.3)
    state = StateVector.basis(("A", "B"), "00")
    message = r"^weights \(0\.0, 5\.0\) give a non-positive POVM"
    for weights in [PovmWeights(-0.0, 5.0), PovmWeights(0.0, 5.0)] * 2:
        assert not build_povm(params, weights).positive
        with pytest.raises(ValueError, match=message):
            run_once(params, weights, state, seed=0)
        with pytest.raises(ValueError, match=message):
            monte_carlo(params, trials=16, seed=0, weights=weights)


def test_kraus_square_root_reproduces_first_element():
    from entrot.qmath import psd_sqrt2
    params = ProtocolParams(HALF_PI, math.pi / 4)
    s = build_povm(params, PovmWeights(0.14645, 0.0))
    r = psd_sqrt2(s.e1)
    assert np.abs(r @ r - s.e1).max() < 1e-10


# ----------------------------------------------- closed-form algebra

def test_trace_and_determinant_trivial_point():
    params = ProtocolParams(0.3, 0.4)
    w = PovmWeights(0.0, 0.0)
    assert tr_e3(params, w) == pytest.approx(2.0, abs=1e-15)
    assert det_e3(params, w) == pytest.approx(1.0, abs=1e-12)


def test_determinant_vanishes_at_symmetric_optimum():
    params = ProtocolParams(HALF_PI, math.pi / 4)
    assert det_e3(params, PovmWeights(0.14645, 0.14645)) == pytest.approx(
        0.0, abs=1e-4)
    best = optimum(params)
    assert det_e3(params, best.weights) == pytest.approx(0.0, abs=1e-12)


@given(angles, angles, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_closed_forms_match_direct_matrix_algebra(theta, alpha, x, y):
    params = ProtocolParams(theta, alpha)
    w = PovmWeights(x, y)
    e3 = np.asarray(build_povm(params, w).e3)
    assert tr_e3(params, w) == pytest.approx(float(np.trace(e3)), abs=1e-12)
    assert det_e3(params, w) == pytest.approx(float(np.linalg.det(e3)), abs=1e-12)


def test_trace_and_determinant_match_a_50_digit_reference():
    """At the optimum and at a feasible point inside it, ``tr_e3`` and
    ``det_e3`` are accurate to a few ulps from the smallest resource angle
    up, where squared sines underflow, to a Bell pair."""
    mpmath = pytest.importorskip("mpmath")
    thetas = np.geomspace(1e-300, HALF_PI, 24).tolist()
    alphas = np.geomspace(2.3e-308, HALF_PI, 24).tolist() + [
        2.0 ** -5, math.nextafter(2.0 ** -5, 0.0)]
    worst = 0.0
    with mpmath.workdps(50):
        for theta in thetas:
            for alpha in alphas:
                params = ProtocolParams(theta, alpha)
                best = optimum(params)
                t, a = mpmath.mpf(theta), mpmath.mpf(alpha)
                c, s = mpmath.cos(a / 2), mpmath.sin(a / 2)
                ct, st = mpmath.cos(t / 2), mpmath.sin(t / 2)
                v1 = mpmath.matrix([ct / c, st / s])
                v2 = mpmath.matrix([st / c, -ct / s])
                for f in (1.0, 0.5):
                    w = PovmWeights(f * best.x, f * best.y)
                    e3 = mpmath.eye(2) - w.x * v1 * v1.T - w.y * v2 * v2.T
                    worst = max(
                        worst,
                        float(abs(tr_e3(params, w) - (e3[0, 0] + e3[1, 1]))),
                        float(abs(det_e3(params, w) - mpmath.det(e3))))
    assert worst <= 8 * np.finfo(float).eps


# ------------------------------------------------------ case split

def test_case_split_sign_examples():
    assert discriminant(ProtocolParams(math.pi / 4, math.pi / 3)) < 0
    assert discriminant(ProtocolParams(math.pi / 4, math.pi / 6)) > 0
    assert abs(discriminant(ProtocolParams(math.pi / 4, math.pi / 4))) < 1e-12
    assert discriminant(ProtocolParams(0.3, HALF_PI)) == 0.0


def test_case_labels_follow_crossover_sign():
    assert optimum(ProtocolParams(math.pi / 4, math.pi / 3)).case is CaseLabel.CASE_I
    assert optimum(ProtocolParams(math.pi / 4, math.pi / 6)).case is CaseLabel.CASE_II
    assert optimum(ProtocolParams(math.pi / 4, math.pi / 4)).case is CaseLabel.BOUNDARY


def test_optimum_landmark_values():
    best = optimum(ProtocolParams(HALF_PI, math.pi / 3))
    assert best.p_max == pytest.approx(0.5, abs=1e-12)

    best = optimum(ProtocolParams(math.pi / 4, math.pi / 6))
    assert best.case is CaseLabel.CASE_II
    assert best.y == 0.0
    assert best.p_max == pytest.approx(0.3224744871391588, abs=1e-12)
    assert best.x == best.p_max

    best = optimum(ProtocolParams(HALF_PI, math.pi / 4))
    assert best.x == pytest.approx(0.1464466094067262, abs=1e-12)
    assert best.y == pytest.approx(0.1464466094067262, abs=1e-12)
    assert best.p_max == pytest.approx(0.2928932188134524, abs=1e-12)

    best = optimum(ProtocolParams(math.pi / 4, math.pi / 3))
    assert best.p_max == pytest.approx(0.6464466094067263, abs=1e-12)


def test_optimum_exact_at_bell_resource():
    for theta in (0.2, 0.9, HALF_PI, -1.3, math.pi):
        best = optimum(ProtocolParams(theta, HALF_PI))
        assert best.p_max == 1.0
        assert (best.x, best.y) == (0.5, 0.5)


def test_right_angle_gate_matches_conversion_probability():
    for alpha in np.linspace(0.05 * math.pi, HALF_PI, 50):
        best = optimum(ProtocolParams(HALF_PI, float(alpha)))
        assert best.p_max == pytest.approx(1.0 - math.cos(alpha), abs=1e-12)
        assert best.p_max == pytest.approx(
            bell_conversion_prob(float(alpha)), abs=1e-12)


def test_small_angle_and_near_bell_limits():
    for alpha in (0.1 * math.pi, 0.3 * math.pi, 0.45 * math.pi):
        assert optimum(ProtocolParams(1e-4, alpha)).p_max >= 1.0 - 2e-4
    for theta in (0.1 * math.pi, 0.3 * math.pi, HALF_PI):
        assert optimum(ProtocolParams(theta, HALF_PI - 1e-4)).p_max >= 1.0 - 2e-4


@given(angles, angles)
def test_optimum_is_feasible_and_consistent(theta, alpha):
    params = ProtocolParams(theta, alpha)
    best = optimum(params)
    assert best.p_max == pytest.approx(best.x + best.y, abs=1e-12)
    assert 0.0 < best.p_max <= 1.0
    s = build_povm(params, best.weights)
    assert s.positive
    assert abs(det_e3(params, best.weights)) < 1e-10


def test_case_ii_weight_matches_a_50_digit_reference():
    """Case II's ``x = sin(alpha)^2 / (2 (1 - cos(theta) cos(alpha)))``
    keeps full precision down to angles of 1e-150, where the difference
    ``1 - cos(theta) cos(alpha)`` rounds to 0 in double precision."""
    mpmath = pytest.importorskip("mpmath")
    grid = np.geomspace(1e-150, HALF_PI, 110).tolist()
    worst, checked = 0.0, 0
    with mpmath.workdps(50):
        for theta in grid:
            for alpha in grid:
                t, a = mpmath.mpf(theta), mpmath.mpf(alpha)
                if mpmath.cos(a) * (mpmath.sin(t) + mpmath.cos(t)) - 1 <= 1e-11:
                    continue  # not clearly case II
                exact = (mpmath.sin(a) ** 2
                         / (2 * (1 - mpmath.cos(t) * mpmath.cos(a))))
                best = optimum(ProtocolParams(theta, alpha))
                assert best.case is CaseLabel.CASE_II
                worst = max(worst, float(abs(best.x - exact) / exact))
                checked += 1
    assert checked >= 700
    assert worst <= 1e-15


@settings(max_examples=300)
@given(st.floats(), st.floats())
@example(1e-12, 1e-12)           # 1 - cos(theta) cos(alpha) rounds to 0
@example(1e-12, 1e-8)
@example(0.3, 1e-6)              # 1 - cos(alpha)^2 too large by ~1e-4
@example(1e-13, 1e-13)           # crossover inside an absolute band
@example(2.4e-13, 1e-7)          # crossover from ca (st + ct) - 1
@example(HALF_PI, 1e-5)          # case I weights from 1 - sin(theta) cos(alpha)
@example(1e-300, 1e-200)         # squares of sines underflow
@example(5e-324, 1e-300)
@example(0.3, 5e-324)
@example(-0.0, HALF_PI)
def test_closed_forms_are_total(theta, alpha):
    """Over every float pair, the closed forms and a 2x2 sweep either
    reject the point (ValueError, exit 2) or give finite numbers, and the
    optimal weights make a positive measurement."""
    try:
        params = ProtocolParams(theta, alpha)
    except ValueError:
        params = None
    if params is not None:
        best = optimum(params)
        report = average_cost(params)
        assert all(math.isfinite(v) for v in (
            best.x, best.y, best.p_max, report.entropy, report.avg_cost,
            tr_e3(params, best.weights), det_e3(params, best.weights)))
        assert build_povm(params, best.weights).positive
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", f"--theta-grid={theta!r}:{theta!r}:2",
                         f"--alpha-grid={alpha!r}:{alpha!r}:2"])
    if params is None:
        assert code == 2
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0 and err.getvalue() == ""
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row[:2] + row[3:])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        json_code = cli.main(["sweep", f"--theta-grid={theta!r}:{theta!r}:2",
                              f"--alpha-grid={alpha!r}:{alpha!r}:2",
                              "--json"])
    assert json_code == code
    if params is not None:
        # sweep writes each number as its repr, which is JSON only when
        # the number is finite
        payload = json.loads(out.getvalue(), parse_constant=_reject)
        assert len(payload["rows"]) == 4
        numbers = payload["theta_grid"][:2] + payload["alpha_grid"][:2]
        numbers += [v for row in payload["rows"] for v in row.values()
                    if not isinstance(v, str)]
        assert all(math.isfinite(v) for v in numbers)


def _reject(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_monotone_in_both_angles():
    thetas = np.linspace(0.01 * math.pi, HALF_PI, 50)
    alphas = np.linspace(0.01 * math.pi, HALF_PI, 50)
    grid = np.array([[optimum(ProtocolParams(float(t), float(a))).p_max
                      for a in alphas] for t in thetas])
    # more entanglement helps, strictly
    assert (np.diff(grid, axis=1) > 0).all()
    # a larger gate angle hurts, strictly -- except at a Bell resource,
    # where every angle already succeeds with certainty
    assert (np.diff(grid[:, :-1], axis=0) < 0).all()
    assert (grid[:, -1] == 1.0).all()


def test_success_never_below_bell_conversion():
    for theta in np.linspace(0.02 * math.pi, HALF_PI, 25):
        for alpha in np.linspace(0.02 * math.pi, HALF_PI, 25):
            p = optimum(ProtocolParams(float(theta), float(alpha))).p_max
            assert p >= bell_conversion_prob(float(alpha)) - 1e-12


def test_bell_conversion_landmarks():
    assert bell_conversion_prob(HALF_PI) == 1.0
    assert bell_conversion_prob(math.pi / 3) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        bell_conversion_prob(0.0)


# ----------------------------------------------------------- oracle

def test_oracle_validates_resolution():
    params = ProtocolParams(0.3, 0.4)
    with pytest.raises(ValueError):
        pmax_oracle(params, resolution=1e-8)
    with pytest.raises(ValueError):
        pmax_oracle(params, resolution=0.5)


@pytest.mark.parametrize("theta", [1e-300, 1e-100, 0.3, HALF_PI])
def test_oracle_domain_ends_at_tiny_alpha(theta):
    """At ``alpha = 1e-150`` the search runs with no overflow warning and
    finds the closed form's (vanishing) optimum; at 1e-160 and 1e-200 the
    entries of ``v2 v2^T`` would overflow, so the point is rejected."""
    x, y, p = pmax_oracle(ProtocolParams(theta, 1e-150))
    assert all(math.isfinite(v) for v in (x, y, p))
    assert p <= optimum(ProtocolParams(theta, 1e-150)).p_max + 1e-9
    for alpha in (1e-160, 1e-200):
        with pytest.raises(ValueError, match="alpha >= 1e-150"):
            pmax_oracle(ProtocolParams(theta, alpha))


@pytest.mark.parametrize("theta,alpha,expected", [
    (HALF_PI, math.pi / 3, 0.5),
    (math.pi / 4, math.pi / 6, 0.3224744871391588),
    (0.4 * math.pi, HALF_PI, 1.0),
])
def test_oracle_reproduces_known_optima(theta, alpha, expected):
    params = ProtocolParams(theta, alpha)
    x, y, p = pmax_oracle(params, resolution=1e-5)
    assert p == pytest.approx(expected, abs=1e-5)
    # the oracle must never beat the closed form by more than round-off
    assert p <= optimum(params).p_max + 1e-9
    s = build_povm(params, PovmWeights(x, y))
    assert s.positive


def test_oracle_optima_are_bit_exact():
    """The oracle's exact answers at the known optima.  ``y`` sits
    ``EIG_TOL / |v2|^2`` past the boundary, so flipping the slack's sign
    changes them."""
    assert pmax_oracle(ProtocolParams(HALF_PI, math.pi / 3)) == (
        0.25, 0.2500000000004974, 0.5000000000004974)
    assert pmax_oracle(ProtocolParams(math.pi / 4, math.pi / 6)) == (
        0.322474375, 4.4932075127235296e-08, 0.3224744199320751)
    assert pmax_oracle(ProtocolParams(0.4 * math.pi, HALF_PI)) == (
        0.5, 0.5000000000004958, 1.0000000000004958)


def test_entry_min_eig_matches_a_50_digit_reference():
    """The smallest eigenvalue of ``E3 = I - x P1 - y P2``, read from the
    matrix's entries, agrees with a 50-digit eigenvalue of the same matrix
    to a few ulps of its largest term (``I``, ``x P1`` or ``y P2``).  The
    oracle's is checked at random ``y`` and within a few ulps of both
    feasibility boundaries, the exact one (eigenvalue 0) and the oracle's
    own (eigenvalue ``-EIG_TOL``); ``build_povm``'s at the optimum weights
    and at half of them."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    ulps = np.arange(-3.0, 4.0)
    worst, checked = 0.0, 0
    with mpmath.workdps(50):
        for theta, alpha in rng.uniform(0.02, 0.5, size=(12, 2)) * math.pi:
            params = ProtocolParams(float(theta), float(alpha))
            v1, v2 = povm_vectors(params)
            p1, p2 = np.outer(v1, v1), np.outer(v2, v2)
            xs = rng.uniform(0.0, povm.BOX, 8)
            edge = povm._best_feasible_y(xs, p1, p2)  # eigenvalue -EIG_TOL
            m1, m2 = mpmath.matrix(p1.tolist()), mpmath.matrix(p2.tolist())
            w = mpmath.matrix(v2.tolist())
            got = []  # (x, y, smallest eigenvalue from the entries)
            for x, y_tol in zip(xs.tolist(), edge.tolist()):
                m = mpmath.eye(2) - x * m1
                # det(m - y w w^T) = det(m) - y w^T adj(m) w: its zero is
                # the exact boundary, up to the rounding of P2's entries
                adj = mpmath.matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
                y_zero = mpmath.det(m) / (w.T * adj * w)[0]
                ys = [rng.uniform(0.0, povm.BOX)]
                for centre in (float(y_zero), y_tol):
                    if 0.0 <= centre <= povm.BOX:  # NaN: infeasible at y = 0
                        ys += (centre + ulps * np.spacing(centre)).tolist()
                values = povm._e3_min_eig(np.full(len(ys), x), p1, p2)(
                    np.array(ys))
                got += [(x, y, v) for y, v in zip(ys, values.tolist())]
            best = optimum(params)
            for f in (1.0, 0.5):
                weights = PovmWeights(f * best.x, f * best.y)
                got.append((weights.x, weights.y,
                            build_povm(params, weights).min_eig_e3))
            for x, y, value in got:
                want = min(mpmath.eigsy(mpmath.eye(2) - x * m1 - y * m2)[0])
                scale = max(1.0, x * np.abs(p1).max(), y * np.abs(p2).max())
                worst = max(worst, float(abs(value - want)) / scale)
                checked += 1
    assert checked >= 500
    assert worst <= 4 * np.finfo(float).eps
