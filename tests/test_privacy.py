import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsynth import (
    BudgetError,
    NoiseSource,
    PrivacyBudget,
    eps_from_rho_delta,
    gaussian_mechanism,
    gumbel_sample,
    report_noisy_max,
    rho_from_eps_delta,
)
from privsynth.privacy import gaussian_noise_sigma

# Spends across many magnitudes, subnormals and exact zeros included, so the
# running total must be exact to match math.fsum.
SPENDS = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, 0.1, 1e-300, 1.0 / 3.0, 2.0**-52]),
    max_size=80,
)


class FixedUniform:
    """Stub stream returning a constant uniform value."""

    def __init__(self, value):
        self.value = value

    def uniform(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def bisect_rho(epsilon, delta, lo=0.0, hi=None):
    """Independent root-solve of epsilon = rho + 2*sqrt(rho*ln(1/delta))."""
    hi = hi if hi is not None else epsilon
    for _ in range(200):
        mid = (lo + hi) / 2
        if eps_from_rho_delta(mid, delta) < epsilon:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestConversions:
    def test_delta_one_collapses(self):
        assert rho_from_eps_delta(0.5, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_value(self):
        rho = rho_from_eps_delta(1.0, math.exp(-1.0))
        assert rho == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
        assert eps_from_rho_delta(rho, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_against_bisection_oracle(self):
        delta = 1.0 / 48842**2
        rho = rho_from_eps_delta(0.1, delta)
        assert rho == pytest.approx(bisect_rho(0.1, delta), abs=1e-12)
        assert eps_from_rho_delta(rho, delta) == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("epsilon", [1.0, 1e-6, 1e-12])
    @pytest.mark.parametrize("delta", [1e-9, 1.0 / 20000**2])
    def test_against_high_precision_reference(self, epsilon, delta):
        """Within 2 ulp of (sqrt(L + eps) - sqrt(L))^2 worked in 80 digits."""
        with localcontext() as ctx:
            ctx.prec = 80
            big_l = Decimal(math.log(1.0 / delta))  # the same L as the library's, then exact
            exact = float(((big_l + Decimal(epsilon)).sqrt() - big_l.sqrt()) ** 2)
        assert abs(rho_from_eps_delta(epsilon, delta) - exact) <= 2 * math.ulp(exact)

    def test_eps_from_zero_rho(self):
        assert eps_from_rho_delta(0.0, 0.1) == 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            eps = float(rng.uniform(1e-3, 10.0))
            delta = float(rng.uniform(1e-12, 0.5))
            back = eps_from_rho_delta(rho_from_eps_delta(eps, delta), delta)
            assert abs(back - eps) < 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(BudgetError):
            rho_from_eps_delta(0.0, 0.5)
        with pytest.raises(BudgetError, match="epsilon"):
            rho_from_eps_delta(math.inf, 0.5)
        with pytest.raises(BudgetError):
            rho_from_eps_delta(1.0, 0.0)
        with pytest.raises(BudgetError):
            rho_from_eps_delta(1.0, 1.5)
        with pytest.raises(BudgetError):
            eps_from_rho_delta(-0.1, 0.5)


class TestGaussianMechanism:
    def test_sigma_formula(self):
        assert gaussian_noise_sigma(10, 0.5) == pytest.approx(0.1, abs=1e-15)

    def test_infinite_rho_is_identity(self):
        rng = NoiseSource(0, "gaussian")
        assert gaussian_mechanism(0.37, 5, math.inf, rng) == 0.37

    def test_nonpositive_rho_rejected(self):
        rng = NoiseSource(0, "gaussian")
        with pytest.raises(BudgetError):
            gaussian_mechanism(0.1, 5, 0.0, rng)
        with pytest.raises(BudgetError):
            gaussian_mechanism(0.1, 5, -1.0, rng)

    def test_empirical_variance(self):
        rng = NoiseSource(42, "gaussian")
        draws = gaussian_mechanism(np.zeros(100_000), 1, 0.5, rng)
        assert abs(draws.var() - 1.0) < 0.05

    def test_vector_and_scalar_agree_in_distribution(self):
        a = gaussian_mechanism(np.zeros(3), 2, 0.1, NoiseSource(7, "gaussian"))
        b = np.array(
            [gaussian_mechanism(0.0, 2, 0.1, NoiseSource(7, "gaussian")) for _ in range(1)]
        )
        assert a[0] == b[0]  # first draw of the same stream


class TestGumbel:
    def test_hand_value_at_u_inv_e(self):
        assert gumbel_sample(1.0, FixedUniform(1.0 / math.e)) == pytest.approx(0.0, abs=1e-12)

    def test_linearity_in_scale(self):
        u = FixedUniform(0.3)
        assert gumbel_sample(2.0, u) == pytest.approx(2.0 * gumbel_sample(1.0, u))

    def test_empirical_mean_is_euler_mascheroni(self):
        rng = NoiseSource(3, "gumbel")
        draws = gumbel_sample(1.0, rng, size=100_000)
        stderr = math.pi / math.sqrt(6.0) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.57721566) < 3 * stderr

    def test_invalid_scale(self):
        with pytest.raises(BudgetError):
            gumbel_sample(0.0, NoiseSource(0, "gumbel"))


class TestReportNoisyMax:
    def test_noiseless_argmax(self):
        rng = NoiseSource(0, "gumbel")
        idx = report_noisy_max(
            np.array([0.9, 0.1, 0.1]), np.zeros(3), 1, math.inf, rng
        )
        assert idx == 0

    def test_tied_scores_split_evenly(self):
        rng = NoiseSource(1, "gumbel")
        wins = sum(
            report_noisy_max(np.array([0.5, 0.5]), np.zeros(2), 1, 0.5, rng) == 0
            for _ in range(100_000)
        )
        assert abs(wins / 100_000 - 0.5) < 0.01

    def test_selection_matches_softmax(self):
        # scale 1 at n=1, rho=0.5; P(pick 0) = 1/(1 + exp(-0.1))
        rng = NoiseSource(2, "gumbel")
        wins = sum(
            report_noisy_max(np.array([0.2, 0.1]), np.zeros(2), 1, 0.5, rng) == 0
            for _ in range(100_000)
        )
        assert abs(wins / 100_000 - 1.0 / (1.0 + math.exp(-0.1))) < 0.005

    def test_input_validation(self):
        rng = NoiseSource(0, "gumbel")
        with pytest.raises(BudgetError):
            report_noisy_max(np.array([]), np.array([]), 1, 0.5, rng)
        with pytest.raises(BudgetError):
            report_noisy_max(np.array([0.1]), np.zeros(2), 1, 0.5, rng)


class TestNoiseSource:
    def test_same_seed_same_stream(self):
        a = NoiseSource(5, "gaussian").normal(1.0, size=10)
        b = NoiseSource(5, "gaussian").normal(1.0, size=10)
        assert np.array_equal(a, b)

    def test_labels_are_independent_streams(self):
        a = NoiseSource(5, "gaussian").normal(1.0, size=10)
        b = NoiseSource(5, "gumbel").normal(1.0, size=10)
        assert not np.array_equal(a, b)

    def test_uniform_open_interval(self):
        u = NoiseSource(0, "rounding").uniform(size=1000)
        assert (u > 0).all() and (u < 1).all()

    def test_unseeded_streams_differ(self):
        """Without a seed each stream starts from fresh OS entropy."""
        a = NoiseSource(None, "gaussian").normal(1.0, size=10)
        b = NoiseSource(None, "gaussian").normal(1.0, size=10)
        assert not np.array_equal(a, b)

    def test_label_is_required(self):
        with pytest.raises(TypeError):
            NoiseSource(5)

    @pytest.mark.parametrize("label", ["", "Init", "noise"])
    def test_unknown_label_is_refused(self, label):
        with pytest.raises(ValueError, match="one of init, gaussian, gumbel, rounding"):
            NoiseSource(5, label)


class TestPrivacyBudget:
    def test_from_eps_delta_satisfies_identity(self):
        b = PrivacyBudget.from_eps_delta(1.0, 1e-6)
        assert eps_from_rho_delta(b.rho_total, 1e-6) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-200])
    def test_epsilon_that_gives_no_rho_rejected(self, epsilon):
        """At delta 1e-9, rho ~ epsilon^2 / (4 L) underflows to 0.0 for epsilon below ~1e-161."""
        message = f"epsilon {epsilon} at delta 1e-09 gives rho 0.0"
        with pytest.raises(BudgetError, match=re.escape(message)):
            PrivacyBudget.from_eps_delta(epsilon, 1e-9)

    def test_spend_and_totals(self):
        b = PrivacyBudget.from_eps_delta(1.0, 1e-6)
        share = b.rho_total / 4
        for i in range(4):
            b.spend(f"call{i}", share)
        assert b.spent() == pytest.approx(b.rho_total, abs=1e-12)
        assert b.remaining() == pytest.approx(0.0, abs=1e-12)

    def test_adaptive_split_arithmetic(self):
        # rho = 0.2 over 5 rounds x 10 picks: 100 spends of 0.2/(2*5*10)
        rho, delta = 0.2, 0.5
        b = PrivacyBudget(eps_from_rho_delta(rho, delta), delta, rho)
        share = rho / (2 * 5 * 10)
        assert share == 0.002
        for i in range(100):
            b.spend(f"call{i}", share)
        assert b.spent() == pytest.approx(0.2, abs=1e-12)

    def test_overdraft_rejected(self):
        b = PrivacyBudget.from_eps_delta(0.5, 1e-6)
        b.spend("a", b.rho_total * 0.9)
        with pytest.raises(BudgetError):
            b.spend("b", b.rho_total * 0.2)

    def test_non_private_sentinel(self):
        b = PrivacyBudget.non_private()
        b.spend("noiseless", 0.0)
        assert b.spent() == 0.0
        assert b.summary()["private"] is False
        assert b.private is False and PrivacyBudget.from_eps_delta(1.0, 1e-6).private is True

    def test_private_is_not_a_constructor_argument(self):
        rho = rho_from_eps_delta(1.0, 1e-5)
        with pytest.raises(TypeError):
            PrivacyBudget(1.0, 1e-5, rho, private=False)

    @pytest.mark.parametrize("epsilon", [1.0, math.nan])
    def test_infinite_cap_needs_infinite_epsilon(self, epsilon):
        """Only the noiseless sentinel (epsilon = rho_total = inf) goes uncapped."""
        with pytest.raises(BudgetError, match="needs epsilon inf"):
            PrivacyBudget(epsilon, 1e-5, math.inf)

    def test_finite_cap_is_checked_against_epsilon(self):
        with pytest.raises(BudgetError, match="does not reproduce epsilon"):
            PrivacyBudget(5.0, 1e-5, rho_from_eps_delta(1.0, 1e-5))
        with pytest.raises(BudgetError, match="does not reproduce epsilon"):
            PrivacyBudget(1.0, 1e-5, math.nan)

    @settings(max_examples=200, deadline=None)
    @given(SPENDS)
    def test_running_total_is_fsum(self, rhos):
        b = PrivacyBudget.non_private()  # no cap: every spend lands
        for i, rho in enumerate(rhos):
            b.spend(f"call{i}", rho)
            assert b.spent() == math.fsum(rhos[: i + 1])
        rebuilt = PrivacyBudget(b.epsilon, b.delta, b.rho_total, ledger=b.ledger)
        assert rebuilt.spent() == math.fsum(rhos)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=8.0),
        st.lists(st.floats(min_value=0.0, max_value=0.6), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=60),
    )
    def test_overspend_boundary_matches_fsum(self, epsilon, fractions, k):
        b = PrivacyBudget.from_eps_delta(epsilon, 1e-6)
        cap = Fraction(b.rho_total)  # exact: no tolerance
        # random shares, then k+1 equal shares of rho_total/k that end on the cap
        rhos = [f * b.rho_total for f in fractions] + [b.rho_total / k] * (k + 1)
        accepted = []
        for i, rho in enumerate(rhos):
            if sum(map(Fraction, accepted)) + Fraction(rho) > cap:
                with pytest.raises(BudgetError):
                    b.spend(f"call{i}", rho)
            else:
                b.spend(f"call{i}", rho)
                accepted.append(rho)
            assert b.spent() == math.fsum(accepted)
            assert sum(map(Fraction, accepted)) <= cap
        assert [r for _, r in b.ledger] == accepted

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
        | st.sampled_from([0.0, 0.1, 1e-300, 5e-324, 1.0 / 3.0, 2.0**-52]),
        st.integers(min_value=0, max_value=7000),
        SPENDS,
    )
    def test_batch_spend_matches_single_spends(self, rho, m, before):
        single, batch = PrivacyBudget.non_private(), PrivacyBudget.non_private()
        for i, r in enumerate(before):
            single.spend(f"before{i}", r)
            batch.spend(f"before{i}", r)
        labels = [f"gaussian[q={i}]" for i in range(m)]
        for label in labels:
            single.spend(label, rho)
        batch.spend(labels, rho)
        assert batch.ledger == single.ledger
        assert batch.spent().hex() == single.spent().hex()

    @pytest.mark.parametrize("m", [1, 7, 6144])
    def test_batch_of_equal_shares_spends_the_budget(self, m):
        single = PrivacyBudget.from_eps_delta(1.0, 1e-6)
        batch = PrivacyBudget.from_eps_delta(1.0, 1e-6)
        share = single.share(m)
        labels = [f"gaussian[q={i}]" for i in range(m)]
        for label in labels:
            single.spend(label, share)
        batch.spend(labels, share)
        assert batch.ledger == single.ledger
        assert batch.spent().hex() == single.spent().hex()
        assert m * Fraction(share) <= Fraction(single.rho_total)
        assert single.spent() == pytest.approx(single.rho_total, rel=1e-15)
        if m == 6144:  # here the rounded quotient rho/m sums past rho, and is refused
            naive = PrivacyBudget.from_eps_delta(1.0, 1e-6)
            with pytest.raises(BudgetError):
                naive.spend(labels, naive.rho_total / m)
            assert naive.ledger == []

    def test_overspending_batch_books_nothing(self):
        b = PrivacyBudget.from_eps_delta(1.0, 1e-6)
        b.spend("a", b.rho_total / 2)
        ledger, spent = list(b.ledger), b.spent()
        with pytest.raises(BudgetError, match="'q0' and 9 more labels"):
            b.spend([f"q{i}" for i in range(10)], b.rho_total / 10)
        assert b.ledger == ledger
        assert b.spent().hex() == spent.hex()

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=5e-324, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=10**7),
    )
    def test_share_is_maximal(self, rho, calls):
        b = PrivacyBudget(eps_from_rho_delta(rho, 0.5), 0.5, rho)
        s = b.share(calls)
        assert calls * Fraction(s) <= Fraction(rho) < calls * Fraction(math.nextafter(s, math.inf))
        b.spend([f"q{i}" for i in range(min(calls, 3))], s)  # never refused

    def test_non_private_share_is_the_noiseless_sentinel(self):
        assert PrivacyBudget.non_private().share(6144) == math.inf

    def test_cap_boundary_is_exact(self):
        b = PrivacyBudget.from_eps_delta(0.5, 1e-6)
        first = 0.7 * b.rho_total
        rest = b.rho_total - first  # exact: the two are within a factor of 2 (Sterbenz)
        assert Fraction(first) + Fraction(rest) == Fraction(b.rho_total)
        b.spend("first", first)
        b.spend("rest", rest)  # lands exactly on the cap
        assert b.spent() == b.rho_total and b.remaining() == 0.0
        with pytest.raises(BudgetError, match=r"by 5e-324$"):
            b.spend("one unit more", 5e-324)
        assert [lab for lab, _ in b.ledger] == ["first", "rest"]
        b.spend("nothing", 0.0)

    def test_overspend_message_states_the_excess(self):
        # rho/39 rounds up here, so 39 such shares exceed rho by 1.0e-18 (under one ulp of rho)
        b = PrivacyBudget.from_eps_delta(0.7, 1.0 / 400**2)
        excess = 39 * Fraction(b.rho_total / 39) - Fraction(b.rho_total)
        assert 0 < excess < Fraction(math.ulp(b.rho_total))
        with pytest.raises(BudgetError, match=f"by {float(excess)!r}$"):
            b.spend([f"q{i}" for i in range(39)], b.rho_total / 39)

    def test_nan_spend_rejected(self):
        b = PrivacyBudget.from_eps_delta(1.0, 1e-6)
        with pytest.raises(BudgetError):
            b.spend("nan", math.nan)
        assert b.ledger == []

    def test_ledger_export(self):
        b = PrivacyBudget.from_eps_delta(1.0, 0.1)
        b.spend("x", 0.01)
        assert b.ledger_json() == [{"label": "x", "rho": 0.01}]
