from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmregret import (
    MissingDataState,
    PreconditionError,
    allocation_regret,
    allocation_welfare,
    es_asymptotic_interval,
    mmr_alloc_known_p,
    mmr_alloc_population,
    mmr_alloc_sample,
    mmr_alloc_sample_known_p,
)


class TestPopulationAllocation:
    def test_dominant_b(self):
        s = MissingDataState(e_a=0.1, e_b=0.9, p_a=1.0, p_b=1.0)
        r = mmr_alloc_population(s)
        assert r.z_b == 1.0 and r.regime == "dominant_b"

    def test_dominant_a(self):
        s = MissingDataState(e_a=0.9, e_b=0.1, p_a=1.0, p_b=1.0)
        r = mmr_alloc_population(s)
        assert r.z_b == 0.0 and r.regime == "dominant_a"

    def test_symmetric_interior(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.5, p_b=0.5)
        r = mmr_alloc_population(s)
        assert r.regime == "interior"
        assert r.z_b == pytest.approx(0.5, abs=1e-12)

    def test_hand_value_point_three(self):
        s = MissingDataState(e_a=0.8, e_b=0.4, p_a=0.5, p_b=0.5)
        assert mmr_alloc_population(s).z_b == pytest.approx(0.3, abs=1e-12)

    def test_degenerate_supports_rejected(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.5, p_b=0.5,
                             bounds_a=(0.5, 0.5), bounds_b=(0.5, 0.5))
        with pytest.raises(PreconditionError):
            mmr_alloc_population(s)


class TestKnownScoreAllocation:
    def test_symmetric(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.5, p_b=0.5)
        assert mmr_alloc_known_p(s).z_b == pytest.approx(0.5, abs=1e-12)

    def test_hand_value_point_three(self):
        s = MissingDataState(e_a=0.8, e_b=0.4, p_a=0.5, p_b=0.5)
        assert mmr_alloc_known_p(s).z_b == pytest.approx(0.3, abs=1e-12)

    def test_boundary_one(self):
        s = MissingDataState(e_a=0.0, e_b=1.0, p_a=0.1, p_b=0.9)
        r = mmr_alloc_known_p(s)
        assert r.z_b == pytest.approx(1.0, abs=1e-12)
        assert r.regime == "interior"

    def test_score_above_one_rejected(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.8, p_b=0.8)
        with pytest.raises(PreconditionError):
            mmr_alloc_known_p(s)

    def test_unequal_bounds_rejected(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.3, p_b=0.3,
                             bounds_b=(0.0, 2.0))
        with pytest.raises(PreconditionError):
            mmr_alloc_known_p(s)

    def test_specialization_matches_general_form(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            e_a, e_b = rng.random(2)
            p_a, p_b = rng.dirichlet([1.0, 1.0, 1.0])[:2]
            s = MissingDataState(e_a=e_a, e_b=e_b, p_a=p_a, p_b=p_b)
            general = mmr_alloc_population(s)
            special = mmr_alloc_known_p(s)
            assert general.regime == "interior"
            assert abs(general.z_b - special.z_b) <= 1e-12


class TestSampleAllocation:
    def test_plugin_identity(self):
        s = MissingDataState(e_a=0.8, e_b=0.4, p_a=0.5, p_b=0.5)
        r = mmr_alloc_sample(0.8, 0.4, 0.5, 0.5)
        assert r == mmr_alloc_population(s)

    def test_dominant_b(self):
        assert mmr_alloc_sample(0.1, 0.9, 1.0, 1.0).z_b == 1.0

    def test_zero_observed_arm_rejected(self):
        with pytest.raises(PreconditionError):
            mmr_alloc_sample(0.5, None, 0.5, 0.0)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            mmr_alloc_sample(0.5, 0.5, 1.2, 0.5)

    @pytest.mark.parametrize("e_a,e_b,bounds_b", [
        (5.0, 0.5, (0.0, 1.0)), (-0.1, 0.5, (0.0, 1.0)), (float("nan"), 0.5, (0.0, 1.0)),
        (0.5, 0.5, (1.0, 2.0)), (0.5, float("inf"), (0.0, 1.0))])
    def test_mean_outside_its_bounds_rejected(self, e_a, e_b, bounds_b):
        with pytest.raises(PreconditionError, match="outside bounds"):
            mmr_alloc_sample(e_a, e_b, 0.5, 0.5, bounds_b=bounds_b)


def _outcome(fn, *args):
    """A rule's result with its float's bits, or the message of its PreconditionError."""
    try:
        r = fn(*args)
    except PreconditionError as exc:
        return str(exc)
    return float(r.z_b).hex(), r.regime, r.clamped, r.z_raw


_UNIT = st.floats(0.0, 1.0)


@st.composite
def _states(draw, common_bounds=False):
    """(e_a, e_b, p_a, p_b, bounds_a, bounds_b) of a valid MissingDataState."""
    def bounds():
        y0 = draw(st.floats(-5.0, 5.0))
        return y0, y0 + draw(st.floats(0.0, 5.0))

    bounds_a = bounds()
    bounds_b = bounds_a if common_bounds else bounds()
    e_a, e_b = (y0 + draw(_UNIT) * (y1 - y0) for y0, y1 in (bounds_a, bounds_b))
    return e_a, e_b, draw(_UNIT), draw(_UNIT), bounds_a, bounds_b


class TestSampleRuleIsPopulationRule:
    @given(_states())
    @settings(max_examples=300, deadline=None)
    def test_sample_equals_population_bit_for_bit(self, args):
        assert _outcome(mmr_alloc_sample, *args) == \
            _outcome(mmr_alloc_population, MissingDataState(*args))

    @given(_states(common_bounds=True), _UNIT)
    @settings(max_examples=300, deadline=None)
    def test_known_score_pair_matches_formula(self, args, known_p):
        # the known-score formula, written out term by term in the order the rules evaluate it
        e_a, e_b, p_a, p_b, (y0, y1), _ = args

        def ratio(p):
            return (e_b * p_b + y1 * (1.0 - p_b)
                    - e_a * p_a - y0 * (1.0 - p_a)) / ((y1 - y0) * (2.0 - p))

        if y0 == y1:
            return
        if p_a + p_b <= 1.0:
            z = mmr_alloc_known_p(MissingDataState(*args)).z_b
            assert float(z).hex() == min(1.0, max(0.0, ratio(p_a + p_b))).hex()
        if known_p > 0.0:
            r = mmr_alloc_sample_known_p(e_a, e_b, p_a, p_b, known_p, (y0, y1))
            assert float(r.z_raw if r.clamped else r.z_b).hex() == ratio(known_p).hex()


class TestSampleKnownScoreAllocation:
    def test_hand_value_point_three(self):
        r = mmr_alloc_sample_known_p(0.8, 0.4, 0.5, 0.5, known_p=1.0)
        assert r.z_b == pytest.approx(0.3, abs=1e-12)
        assert not r.clamped and r.z_raw is None

    def test_symmetric(self):
        r = mmr_alloc_sample_known_p(0.5, 0.5, 0.5, 0.5, known_p=1.0)
        assert r.z_b == pytest.approx(0.5, abs=1e-12)

    def test_boundary_without_clamp(self):
        # fully observed arms with equal unit means: raw value 0, no clamp
        r = mmr_alloc_sample_known_p(1.0, 1.0, 1.0, 1.0, known_p=1.0)
        assert r.z_b == pytest.approx(0.0, abs=1e-12)
        assert not r.clamped

    def test_unobserved_arm_contributes_nothing(self):
        # p_Na = 0 makes the e_Na term vanish regardless of its value
        r = mmr_alloc_sample_known_p(1.0, 1.0, 0.0, 1.0, known_p=1.0)
        assert r.z_b == pytest.approx(1.0, abs=1e-12)
        assert not r.clamped

    def test_lower_clamp(self):
        r = mmr_alloc_sample_known_p(1.0, 0.0, 1.0, 1.0, known_p=1.0)
        assert r.z_b == 0.0 and r.clamped
        assert r.z_raw == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("e_a,e_b,p_a,p_b", [
        (2.0, 0.5, 0.5, 0.5), (0.5, -1.0, 0.5, 0.5), (float("nan"), 0.5, 0.5, 0.5),
        (0.5, 0.5, 2.0, 0.5), (0.5, 0.5, 0.5, -0.5), (0.5, 0.5, float("nan"), 0.5)])
    def test_sample_outside_its_range_rejected(self, e_a, e_b, p_a, p_b):
        with pytest.raises(PreconditionError, match="outside"):
            mmr_alloc_sample_known_p(e_a, e_b, p_a, p_b, known_p=1.0)

    def test_bad_known_score_rejected(self):
        with pytest.raises(PreconditionError):
            mmr_alloc_sample_known_p(0.5, 0.5, 0.5, 0.5, known_p=0.0)
        with pytest.raises(PreconditionError):
            mmr_alloc_sample_known_p(0.5, 0.5, 0.5, 0.5, known_p=1.5)


class TestBranchProperties:
    def test_exactly_one_branch_on_random_states(self):
        rng = np.random.default_rng(11)
        regimes = set()
        for _ in range(10_000):
            e_a, e_b, p_a, p_b = rng.random(4)
            r = mmr_alloc_population(MissingDataState(e_a=e_a, e_b=e_b,
                                                      p_a=p_a, p_b=p_b))
            regimes.add(r.regime)
            if r.regime == "dominant_b":
                assert r.z_b == 1.0
            elif r.regime == "dominant_a":
                assert r.z_b == 0.0
            else:
                assert 0.0 < r.z_b < 1.0
        assert regimes == {"dominant_b", "dominant_a", "interior"}

    def test_interior_open_interval_under_known_score_preconditions(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            e_a, e_b = rng.random(2)
            scale = rng.random()
            p_a, p_b = rng.dirichlet([1.0, 1.0]) * scale
            r = mmr_alloc_population(MissingDataState(e_a=e_a, e_b=e_b,
                                                      p_a=p_a, p_b=p_b))
            assert r.regime == "interior"
            assert 0.0 < r.z_b < 1.0

    def test_dominance_soundness_brute_force(self):
        # when the rule declares an arm dominant, every feasible
        # missing-outcome mean on a 0.05 grid must agree
        rng = np.random.default_rng(19)
        grid = np.linspace(0.0, 1.0, 21)
        found = 0
        while found < 50:
            e_a, e_b, p_a, p_b = rng.random(4)
            s = MissingDataState(e_a=e_a, e_b=e_b, p_a=p_a, p_b=p_b)
            r = mmr_alloc_population(s)
            if r.regime == "interior":
                continue
            found += 1
            mu_a = e_a * p_a + grid * (1.0 - p_a)
            mu_b = e_b * p_b + grid * (1.0 - p_b)
            if r.regime == "dominant_b":
                assert mu_b.min() >= mu_a.max() - 1e-12
            else:
                assert mu_a.min() >= mu_b.max() - 1e-12


def _expected_sample_z(e_a, e_b, p_a, p_b, n):
    """Exact expectation of the unclamped sample allocation over all samples.

    Per arm, enumerate the joint law of (observed count n1, successes k):
    C(n, n1) p^n1 (1-p)^(n-n1) * C(n1, k) e^k (1-e)^(n1-k). The plug-in rule
    only sees e_N through e_N * p_N = k/n, so a zero-observation arm enters
    with e_N = 0.
    """
    known_p = p_a + p_b
    total = 0.0
    for n1a in range(n + 1):
        for ka in range(n1a + 1):
            wa = (comb(n, n1a) * p_a ** n1a * (1 - p_a) ** (n - n1a)
                  * comb(n1a, ka) * e_a ** ka * (1 - e_a) ** (n1a - ka))
            for n1b in range(n + 1):
                for kb in range(n1b + 1):
                    wb = (comb(n, n1b) * p_b ** n1b * (1 - p_b) ** (n - n1b)
                          * comb(n1b, kb) * e_b ** kb * (1 - e_b) ** (n1b - kb))
                    e_na = ka / n1a if n1a else 0.0
                    e_nb = kb / n1b if n1b else 0.0
                    r = mmr_alloc_sample_known_p(e_na, e_nb, n1a / n, n1b / n,
                                                 known_p)
                    z = r.z_raw if r.clamped else r.z_b
                    total += wa * wb * z
    return total


class TestUnbiasedness:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_expected_plugin_equals_population_value(self, n):
        rng = np.random.default_rng(29)
        for _ in range(20):
            e_a, e_b = rng.random(2)
            p_a, p_b = rng.dirichlet([1.0, 1.0]) * rng.uniform(0.1, 1.0)
            star = mmr_alloc_known_p(
                MissingDataState(e_a=e_a, e_b=e_b, p_a=p_a, p_b=p_b)).z_b
            assert _expected_sample_z(e_a, e_b, p_a, p_b, n) == \
                pytest.approx(star, abs=1e-12)


class TestWelfareAccounting:
    def test_linear_combination(self):
        s = MissingDataState(e_a=0.2, e_b=0.8, p_a=1.0, p_b=1.0,
                             full_means=(0.2, 0.8))
        assert allocation_welfare(0.5, s) == pytest.approx(0.5, abs=1e-12)
        assert allocation_regret(0.5, s) == pytest.approx(0.3, abs=1e-12)

    def test_all_on_better_arm_zero_regret(self):
        s = MissingDataState(e_a=0.2, e_b=0.8, p_a=1.0, p_b=1.0,
                             full_means=(0.2, 0.8))
        assert allocation_regret(1.0, s) == pytest.approx(0.0, abs=1e-12)

    def test_equal_means_zero_regret_any_split(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=1.0, p_b=1.0,
                             full_means=(0.5, 0.5))
        for z in (0.0, 0.3, 1.0):
            assert allocation_regret(z, s) == pytest.approx(0.0, abs=1e-12)

    def test_missing_full_means_rejected(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=1.0, p_b=1.0)
        with pytest.raises(PreconditionError):
            allocation_welfare(0.5, s)

    def test_regret_without_full_means_rejected(self):
        s = MissingDataState(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(PreconditionError, match="full means"):
            allocation_regret(0.5, s)


def _reversed_state(gap_means):
    mu_a, mu_b = gap_means
    return MissingDataState(e_a=0.2, e_b=0.8, p_a=0.2, p_b=0.2,
                            full_means=(mu_a, mu_b))


class TestAsymptoticInterval:
    def test_hand_classified_three_states(self):
        reversed_s = _reversed_state((0.7, 0.3))  # gap 0.4, e ordered oppositely
        equal_s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.2, p_b=0.2,
                                   full_means=(0.2, 0.8))  # gap 0.6
        same_s = MissingDataState(e_a=0.2, e_b=0.8, p_a=0.2, p_b=0.2,
                                  full_means=(0.3, 0.7))  # agrees, ignored
        lower, upper = es_asymptotic_interval([reversed_s, equal_s, same_s])
        assert lower == pytest.approx(0.4, abs=1e-12)
        assert upper == pytest.approx(0.6, abs=1e-12)

    def test_only_same_states_gives_zero_interval(self):
        same = MissingDataState(e_a=0.2, e_b=0.8, p_a=0.2, p_b=0.2,
                                full_means=(0.3, 0.7))
        assert es_asymptotic_interval([same]) == (0.0, 0.0)

    def test_equal_full_means_ignored(self):
        tied = MissingDataState(e_a=0.3, e_b=0.7, p_a=0.5, p_b=0.5,
                                full_means=(0.5, 0.5))
        assert es_asymptotic_interval([tied]) == (0.0, 0.0)

    def test_missing_full_means_rejected(self):
        s = MissingDataState(e_a=0.5, e_b=0.5, p_a=0.5, p_b=0.5)
        with pytest.raises(PreconditionError):
            es_asymptotic_interval([s])
