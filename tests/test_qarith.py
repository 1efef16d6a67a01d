from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrass import qarith
from qgrass.errors import InvalidParameters
from qgrass.qarith import (
    FieldContext,
    SqrtQScalar,
    is_prime,
    q_binomial,
    q_int,
    q_power,
    verify_q_identities,
)

from oracles import q_identities_by_fractions


def geometric_sum(l, q):
    # independent oracle: [l] = 1 + q + ... + q^(l-1)
    return sum(q**t for t in range(l))


def binom_by_recursion(l, n, q, _memo={}):
    # independent oracle: Pascal-type recursion with explicit base cases
    if n < 0 or l < n:
        return 0
    if n == 0:
        return 1
    key = (l, n, q)
    if key not in _memo:
        _memo[key] = q**n * binom_by_recursion(l - 1, n, q) + binom_by_recursion(
            l - 1, n - 1, q
        )
    return _memo[key]


class TestQInt:
    def test_frozen_values(self):
        assert q_int(0, 2) == 0
        assert q_int(1, 7) == 1
        assert q_int(3, 2) == 7
        assert q_int(4, 3) == 40
        assert q_int(5, 2) == 31

    def test_matches_geometric_sum(self):
        for q in (2, 3, 5, 7):
            for l in range(0, 13):
                assert q_int(l, q) == geometric_sum(l, q)

    def test_negative_index_is_rational(self):
        assert q_int(-1, 2) == Fraction(-1, 2)
        for q in (2, 3, 5):
            for l in range(-5, 0):
                assert q_int(l, q) == Fraction(Fraction(q) ** l - 1, q - 1)


def test_q_power_is_int_or_fraction():
    # an int for e >= 0, as q_int is, and an exact Fraction below
    for q in (2, 3, 5):
        for e in range(0, 6):
            assert type(q_power(q, e)) is int and q_power(q, e) == q**e
        for e in range(-5, 0):
            got = q_power(q, e)
            assert type(got) is Fraction and got == Fraction(q) ** e and got * q**-e == 1


class TestQBinomial:
    def test_frozen_values(self):
        assert q_binomial(5, 2, 2) == 155
        assert q_binomial(2, 3, 2) == 0
        assert q_binomial(4, 1, 3) == 40
        assert q_binomial(6, 2, 2) == 651
        assert q_binomial(4, 2, 2) == 35

    def test_edge_cases(self):
        for q in (2, 3):
            assert q_binomial(0, 0, q) == 1
            assert q_binomial(7, 0, q) == 1
            assert q_binomial(7, 7, q) == 1
            assert q_binomial(3, -1, q) == 0
            assert q_binomial(-2, 1, q) == 0

    def test_matches_recursion_oracle(self):
        for q in (2, 3, 5):
            for l in range(0, 11):
                for n in range(0, l + 1):
                    assert q_binomial(l, n, q) == binom_by_recursion(l, n, q)

    @given(
        l=st.integers(min_value=0, max_value=14),
        n=st.integers(min_value=0, max_value=14),
        q=st.sampled_from([2, 3, 5, 7]),
    )
    def test_symmetry(self, l, n, q):
        assert q_binomial(l, n, q) == q_binomial(l, l - n, q)

    @given(
        l=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=0, max_value=12),
        q=st.sampled_from([2, 3, 5]),
    )
    def test_pascal(self, l, n, q):
        assert q_binomial(l, n, q) == q**n * q_binomial(l - 1, n, q) + q_binomial(
            l - 1, n - 1, q
        )


class TestIdentitySuite:
    def test_all_pass_at_desk_scale(self):
        for q in (2, 3, 5):
            cs = verify_q_identities(12, q)
            assert cs.ok, cs.failures()

    def test_alternating_sum_spot_values(self):
        # direct evaluation, no library calls
        for q in (2, 3):
            for l in (0, 1, 2, 3, 5):
                total = sum(
                    (-1) ** j * q ** (j * (j - 1) // 2) * binom_by_recursion(l, j, q)
                    for j in range(l + 1)
                )
                assert total == (1 if l == 0 else 0)

    def test_shifted_sum_spot_value(self):
        q, l = 3, 4
        total = sum(
            (-1) ** j
            * Fraction(q) ** (j * (j - 1) // 2 - j)
            * binom_by_recursion(l, j, q)
            for j in range(l + 1)
        )
        assert total == 0


def verdicts(cs):
    return [(c.name, c.passed, c.witness) for c in cs.checks]


# wrong Gaussian binomials, each wrong only inside 0 <= n <= l, where
# both suites read the same entries
WRONG_BINOMIALS = {
    "one entry off by one": lambda real: lambda l, n, q: real(l, n, q) + ((l, n) == (5, 2)),
    "a row doubled": lambda real: lambda l, n, q: real(l, n, q) * (2 if l == 9 else 1),
    "the end of a row zeroed": lambda real: lambda l, n, q: (
        0 if (l, n) == (7, 7) else real(l, n, q)
    ),
    "negated past the middle": lambda real: lambda l, n, q: (
        real(l, n, q) * (-1 if 2 * n > l + 3 else 1)
    ),
}


class TestIdentitiesAgainstFractionOracle:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_same_verdicts_on_the_true_binomials(self, q):
        for l_max in range(0, 15):
            assert verdicts(verify_q_identities(l_max, q)) == verdicts(
                q_identities_by_fractions(l_max, q)
            )

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("wrong", list(WRONG_BINOMIALS))
    def test_wrong_binomial_fails_alike(self, monkeypatch, wrong, q):
        monkeypatch.setattr(qarith, "q_binomial", WRONG_BINOMIALS[wrong](qarith.q_binomial))
        got = verdicts(verify_q_identities(12, q))
        assert got == verdicts(q_identities_by_fractions(12, q))
        assert not all(passed for _name, passed, _witness in got)


class TestFieldContext:
    def test_rejects_non_prime(self):
        for bad in (0, 1, 4, 6, 9, 12):
            with pytest.raises(InvalidParameters):
                FieldContext(bad)

    def test_accepts_primes(self):
        for q in (2, 3, 5, 7, 11):
            assert FieldContext(q).q == q

    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


class TestSqrtQScalar:
    def test_normalization(self):
        s = SqrtQScalar.of(2, 1, 4)  # q^2
        assert s == SqrtQScalar.of(2, 4, 0)
        assert SqrtQScalar.of(2, 1, -2) == SqrtQScalar.of(2, Fraction(1, 2), 0)
        assert SqrtQScalar.of(3, 1, 3) == SqrtQScalar.of(3, 3, 1)

    def test_square_root_squares_to_q(self):
        for q in (2, 3, 5):
            root = SqrtQScalar.of(q, 1, 1)
            assert (root * root).as_fraction() == q

    def test_inverse(self):
        for q in (2, 3):
            for half in (-3, -1, 0, 1, 2):
                s = SqrtQScalar.of(q, Fraction(3, 4), half)
                assert (s * s.inv()) == SqrtQScalar.of(q, 1, 0)

    @settings(max_examples=60)
    @given(
        c1=fractions_st,
        c2=fractions_st,
        c3=fractions_st,
        h1=st.integers(-4, 4),
        h2=st.integers(-4, 4),
        h3=st.integers(-4, 4),
        q=st.sampled_from([2, 3, 5]),
    )
    def test_product_laws(self, c1, c2, c3, h1, h2, h3, q):
        a = SqrtQScalar.of(q, c1, h1)
        b = SqrtQScalar.of(q, c2, h2)
        c = SqrtQScalar.of(q, c3, h3)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_mixed_parity_addition_rejected(self):
        with pytest.raises(InvalidParameters):
            SqrtQScalar.of(2, 1, 0) + SqrtQScalar.of(2, 1, 1)

    def test_rational_flag(self):
        assert SqrtQScalar.of(2, 5, 2).is_rational()
        assert not SqrtQScalar.of(2, 5, 1).is_rational()
