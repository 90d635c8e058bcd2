"""Entanglement accounting: entropies, average cost, break-even angle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrot import entanglement
from entrot.entanglement import (EntanglementReport, average_cost,
                                 binary_entropy, min_cost_over_alpha,
                                 resource_entropy, threshold_theta)
from entrot.povm import ProtocolParams, optimum

PI = math.pi


# ---------------------------------------------------------- entropies

def test_binary_entropy_landmarks():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.9) == pytest.approx(0.4689955935892811, abs=1e-15)
    assert binary_entropy(0.75) == pytest.approx(0.8112781244591328, abs=1e-15)


@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetric_and_bounded(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def test_binary_entropy_rejects_out_of_range():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_resource_entropy_landmarks_and_monotonicity():
    assert resource_entropy(PI / 2) == 1.0
    assert resource_entropy(PI / 3) == pytest.approx(0.8112781244591328,
                                                     abs=1e-12)
    grid = np.linspace(0.01, PI / 2, 60)
    values = [resource_entropy(a) for a in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert resource_entropy(1e-6) < 1e-10


def test_resource_entropy_domain():
    for bad in (0.0, -0.3, PI / 2 + 1e-9, math.nan):
        with pytest.raises(ValueError):
            resource_entropy(bad)


# ------------------------------------------------------- average cost

def test_average_cost_is_failure_rate_plus_entropy():
    for theta, alpha in ((0.3, 0.4), (PI / 4, PI / 6), (1.5, 1.2),
                         (PI / 2, PI / 3)):
        params = ProtocolParams(theta, alpha)
        report = average_cost(params)
        assert isinstance(report, EntanglementReport)
        assert report.theta == theta and report.alpha == alpha
        best = optimum(params)
        assert report.p_max == best.p_max
        assert report.entropy == resource_entropy(alpha)
        assert report.avg_cost == pytest.approx(
            1.0 - best.p_max + report.entropy, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_success_probability_is_capped_at_1_near_theta_0(seed):
    """At theta = 1e-17 the optimum's ``x + y`` can round to 1 + 2**-52.
    ``p_max`` is capped at 1 in ``optimum`` and ``average_cost``, so the
    cost never falls below the resource entropy; the weights are kept."""
    alphas = np.random.default_rng(seed).uniform(0.0, PI / 2, 20_000)
    for alpha in [0.7654516294107501, *alphas.tolist()]:
        if alpha == 0.0:
            continue
        params = ProtocolParams(1e-17, alpha)
        best = optimum(params)
        rep = average_cost(params)
        assert best.p_max == min(best.x + best.y, 1.0) == rep.p_max
        assert rep.p_max <= 1.0
        assert rep.avg_cost >= rep.entropy


def test_maximal_resource_costs_exactly_one_ebit():
    for theta in (0.1, 0.7, 1.2, PI / 2):
        assert average_cost(ProtocolParams(theta, PI / 2)).avg_cost == 1.0


@given(st.floats(0.01, PI / 2), st.floats(0.01, PI / 2))
def test_cost_identity_everywhere(theta, alpha):
    params = ProtocolParams(theta, alpha)
    report = average_cost(params)
    direct = 1.0 - optimum(params).p_max + resource_entropy(alpha)
    assert report.avg_cost == pytest.approx(direct, abs=1e-12)


# ------------------------------------------------- cheapest resource

def test_min_cost_landmarks():
    alpha, cost = min_cost_over_alpha(0.1 * PI)
    assert alpha == pytest.approx(0.1371939690 * PI, abs=1e-6)
    assert cost == pytest.approx(0.6258829175482203, abs=1e-9)
    _, cost = min_cost_over_alpha(0.2 * PI)
    assert cost == pytest.approx(0.9358126338933894, abs=1e-9)
    assert cost < 1.0


def test_min_cost_above_break_even_settles_on_bell():
    for theta in (0.25 * PI, 0.3 * PI, 0.45 * PI, PI / 2):
        alpha, cost = min_cost_over_alpha(theta)
        assert cost == 1.0
        assert alpha == pytest.approx(PI / 2, abs=1e-9)


def test_min_cost_beats_every_sampled_alpha():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(0.02, PI / 2, size=8):
        _, cost = min_cost_over_alpha(float(theta))
        for alpha in rng.uniform(0.01, PI / 2, size=20):
            full = average_cost(ProtocolParams(float(theta), float(alpha)))
            assert cost <= full.avg_cost + 1e-9


def test_min_cost_refinement_tightens_with_tolerance():
    coarse = min_cost_over_alpha(0.1 * PI, tol=1e-3)[1]
    fine = min_cost_over_alpha(0.1 * PI, tol=1e-8)[1]
    assert fine <= coarse + 1e-12
    assert abs(fine - coarse) < 1e-6


def test_min_cost_validation():
    for bad_theta in (0.0, -0.2, PI / 2 + 1e-9):
        with pytest.raises(ValueError):
            min_cost_over_alpha(bad_theta)
    for bad_tol in (1e-9, 1e-2, 0.0):
        with pytest.raises(ValueError):
            min_cost_over_alpha(0.3, tol=bad_tol)


# ------------------------------------------------------- break even

def test_break_even_angle_value_and_stability():
    t4 = threshold_theta(1e-4)
    assert 0.232 * PI < t4 < 0.236 * PI
    assert t4 == pytest.approx(0.23377685546875 * PI, abs=1e-12)
    t5 = threshold_theta(1e-5)
    assert abs(t4 - t5) < 2e-4 * PI


def test_break_even_separates_the_two_regimes():
    t = threshold_theta(1e-4)
    assert min_cost_over_alpha(t - 0.005 * PI)[1] < 1.0
    assert min_cost_over_alpha(t + 0.005 * PI)[1] == 1.0


def test_threshold_shortcut_agrees_with_the_full_search():
    """``threshold_theta`` answers from the 1000-point scan when its least
    cost already beats a Bell pair, as the golden section can only lower
    it.  On 400 seeded angles in (0.1 pi, 0.4 pi) that answer is the full
    search's."""
    bar = 1.0 - entanglement.BREAK_EVEN_BAND
    short_cut = 0
    for theta in np.random.default_rng(30).uniform(0.1 * PI, 0.4 * PI,
                                                   400).tolist():
        full = min_cost_over_alpha(theta, tol=1e-8)[1]
        quick = entanglement._min_cost(theta, 1e-8, bar)[1]
        assert (quick < bar) == (full < bar), theta
        assert quick >= full
        short_cut += quick > full
    assert short_cut > 100


#: ``threshold_theta`` at each tolerance, from the search without the
#: shortcut.
THRESHOLDS = {1e-3: "0x1.7834aa155c830p-1", 1e-4: "0x1.78076cea91a1ep-1",
              1e-5: "0x1.7810d9a8d13b8p-1", 1e-6: "0x1.7810f7d1986d7p-1"}


@pytest.mark.parametrize("tol", THRESHOLDS)
def test_threshold_is_that_of_the_full_search(monkeypatch, tol):
    got = threshold_theta(tol)
    assert got.hex() == THRESHOLDS[tol]
    full = entanglement._min_cost
    monkeypatch.setattr(entanglement, "_min_cost",
                        lambda theta, t, enough: full(theta, t, -math.inf))
    assert threshold_theta(tol) == got


def test_threshold_validation():
    for bad in (1e-7, 1e-2, 0.0, -1e-4):
        with pytest.raises(ValueError):
            threshold_theta(bad)


def test_threshold_names_a_bracket_that_misses_break_even(monkeypatch):
    """A cost that never beats a Bell pair fails the bracket's low end."""
    monkeypatch.setattr(entanglement, "_min_cost",
                        lambda theta, tol, enough: (PI / 2, 1.0))
    with pytest.raises(RuntimeError, match=re.escape(
            "threshold bracket (0.1 pi, 0.4 pi) does not straddle break-even")):
        threshold_theta()
