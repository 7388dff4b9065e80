from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from qsu2 import parse_scalar
from qsu2 import scalars as scalars_module
from qsu2.scalars import (ONE, PoleError, Q, QScalar, ZERO, gauss_binomial,
                          jackson_q_integral_01, q_gamma_int, q_number,
                          q_pochhammer, q_pow, q_shift)
import scalar_oracle
from scalar_oracle import OracleScalar, pochhammer_product


def S(text):
    return parse_scalar(text)


# -- strategies -------------------------------------------------------------

small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def fractions(draw):
    """(num, den) coefficient tuples; either may carry factors of q."""
    num = draw(st.lists(small_ints, min_size=1, max_size=4))
    den = draw(st.lists(small_ints, min_size=1, max_size=3))
    if not any(den):
        den[0] = 1
    return tuple(num), tuple(den)


@st.composite
def monomials(draw):
    """(num, den) of a Laurent monomial c*q^k, c in {+-1, +-2, 3}."""
    c = draw(st.sampled_from((1, -1, 2, -2, 3)))
    k = draw(st.integers(min_value=-4, max_value=4))
    if k >= 0:
        return (0,) * k + (c,), (1,)
    return (c,), (0,) * -k + (1,)


@st.composite
def laurent_pairs(draw):
    """Two Laurent polynomials q^k * p(q) with the same k, p(0) != 0."""
    k = draw(st.integers(min_value=-4, max_value=4))
    out = []
    for _ in range(2):
        p = draw(st.lists(small_ints, min_size=1, max_size=4))
        if not p[0]:
            p[0] = draw(st.sampled_from((1, -1, 2)))
        out.append(((0,) * k + tuple(p), (1,)) if k >= 0
                   else (tuple(p), (0,) * -k + (1,)))
    return tuple(out)


def scalars():
    return fractions().map(lambda nd: QScalar(*nd))


@st.composite
def nonzero_scalars(draw):
    s = draw(scalars())
    if s.is_zero():
        return ONE + s
    return s


# -- arithmetic --------------------------------------------------------------

def test_additive_identity():
    x = S("(q^2-1)/q")
    assert x + ZERO == x
    assert x + 0 == x


def test_multiplicative_inverse():
    assert S("(q^2-1)/q") * S("q/(q^2-1)") == ONE


def test_negative_power_reduction():
    # clearing negative powers of q by hand gives q^2/(q^2+1)
    assert S("(1-q^-2)/(1-q^-4)") == S("q^2/(q^2+1)")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_power_forms_one_product_per_square_and_set_bit(monkeypatch):
    x = S("(q^2+1)/q")
    expected = [ONE]
    for _ in range(4):
        expected.append(expected[-1] * x)
    products = []
    original = QScalar.__mul__

    def counted(self, other):
        products.append(other)
        return original(self, other)
    monkeypatch.setattr(QScalar, "__mul__", counted)
    for e, count in enumerate([0, 0, 1, 2, 2]):
        products.clear()
        assert x ** e == expected[e], e
        assert len(products) == count, e


@settings(max_examples=200)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(nonzero_scalars())
def test_inverses(a):
    assert a * a.inverse() == ONE
    assert a.inverse().inverse() == a


# -- specialization -----------------------------------------------------------

def test_specialize_example():
    assert S("q^2/(q^2+1)").specialize(Fraction(1, 2)) == Fraction(1, 5)


def test_specialize_pole():
    with pytest.raises(PoleError):
        (ONE / (Q - 1)).specialize(1)


def test_specialize_constant():
    assert ONE.specialize(Fraction(7, 3)) == 1


@settings(max_examples=100)
@given(scalars(), scalars())
def test_specialize_is_homomorphism(a, b):
    q0 = Fraction(2, 3)
    try:
        va, vb = a.specialize(q0), b.specialize(q0)
        vab = (a * b).specialize(q0)
        vs = (a + b).specialize(q0)
    except PoleError:
        return
    assert vab == va * vb
    assert vs == va + vb


# -- the reduced-fraction oracle --------------------------------------------

ORACLE_POINTS = (Fraction(1, 2), Fraction(3), Fraction(-2, 5))


def assert_matches_oracle(value, expect):
    """Same printed form and the same values as the oracle, and rebuilding
    from the full numerator and denominator gives the same scalar."""
    assert str(value) == str(expect)
    for q0 in ORACLE_POINTS:
        try:
            v0 = expect.specialize(q0)
        except ZeroDivisionError:
            with pytest.raises(PoleError):
                value.specialize(q0)
        else:
            assert value.specialize(q0) == v0
    assert QScalar(*value.polys()) == value


def assert_operations_match_oracle(x, y, k):
    """+, -, *, / and ** on the (num, den) pairs x and y agree with the
    oracle, normal form included."""
    a, b = QScalar(*x), QScalar(*y)
    oa, ob = OracleScalar(*x), OracleScalar(*y)
    assert_matches_oracle(a, oa)
    assert_matches_oracle(a + b, oa + ob)
    assert_matches_oracle(a - b, oa - ob)
    assert_matches_oracle(a * b, oa * ob)
    if b:
        assert_matches_oracle(a / b, oa / ob)
    if a or k >= 0:
        assert_matches_oracle(a ** k, oa ** k)


exponents = st.integers(min_value=-3, max_value=3)


@settings(max_examples=300)
@given(fractions(), fractions(), exponents)
def test_arithmetic_matches_fraction_oracle(x, y, k):
    assert_operations_match_oracle(x, y, k)


# the one-term branches: a unit times a unit, a unit times any value, and
# a sum of two values with the same q-valuation and denominator 1

@settings(max_examples=200)
@given(monomials(), monomials(), exponents)
def test_monomial_products_match_fraction_oracle(x, y, k):
    assert_operations_match_oracle(x, y, k)


@settings(max_examples=200)
@given(monomials(), fractions(), exponents)
def test_monomial_times_fraction_matches_fraction_oracle(x, y, k):
    assert_operations_match_oracle(x, y, k)
    assert_operations_match_oracle(y, x, k)


@settings(max_examples=200)
@given(laurent_pairs(), exponents)
def test_same_valuation_sums_match_fraction_oracle(xy, k):
    x, y = xy
    assert QScalar(*x).val == QScalar(*y).val
    assert_operations_match_oracle(x, y, k)


# q_shift: the product with q^k as a shift of the valuation alone

@settings(max_examples=200)
@example(((1, 2), (1, 1)), 3)
@example(((0, 0, 5), (2, 0, 1)), -2)
@given(fractions(), exponents)
def test_q_shift_is_the_product_with_a_power_of_q(x, k):
    c = QScalar(*x)
    assert q_shift(c, k) == c * q_pow(k)
    assert q_shift(q_shift(c, k), -k) == c


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 4])
def test_q_shift_keeps_the_normal_form_of_zero(k):
    z = q_shift(ZERO, k)
    assert z == ZERO
    assert (z.val, z.num, z.den) == (0, (), (1,))
    assert hash(z) == hash(ZERO)


@pytest.mark.parametrize("slot", ["val", "num", "den"])
def test_scalar_slots_cannot_be_set(slot):
    x = q_pow(2) * 3
    with pytest.raises(AttributeError):
        setattr(x, slot, getattr(x, slot))
    with pytest.raises(AttributeError):
        delattr(x, slot)
    assert (x.val, x.num, x.den) == (2, (3,), (1,))


def test_laurent_values_keep_q_apart():
    x = QScalar((0, 0, 2, 0, 6), (0, 4))  # (2q^2 + 6q^4)/(4q)
    assert (x.val, x.num, x.den) == (1, (1, 0, 3), (2,))
    assert x.polys() == ((0, 1, 0, 3), (2,))
    assert (q_pow(-3).val, q_pow(-3).num, q_pow(-3).den) == (-3, (1,), (1,))


def test_equality_of_two_scalars_skips_the_fraction_abc(monkeypatch):
    # Fraction is an ABC: an isinstance test against it goes through
    # ABCMeta.__instancecheck__, which a QScalar operand must not reach
    import abc
    seen = []
    instancecheck = abc.ABCMeta.__instancecheck__

    def counted(cls, instance):
        if cls is Fraction:
            seen.append(instance)
        return instancecheck(cls, instance)

    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
    x = S("q/(q + 1)")
    assert x == S("q/(q + 1)") and x != ONE and not x == ZERO
    assert seen == []
    # ints and Fractions still compare by value; other types do not compare
    assert ONE == 1 and q_pow(0) * Fraction(1, 2) == Fraction(1, 2)
    assert x.__eq__("q") is NotImplemented


# -- q-integers ---------------------------------------------------------------

def test_q_number_small():
    assert q_number(1) == ONE
    assert q_number(2) == Q + q_pow(-1)
    assert q_number(3) == q_pow(2) + 1 + q_pow(-2)


def test_q_number_classical_limit():
    for n in range(11):
        assert q_number(n).specialize(1) == n


def test_q_number_negative():
    with pytest.raises(ValueError):
        q_number(-1)


# -- Gaussian binomials --------------------------------------------------------

def test_gauss_binomial_edges():
    t = S("q^-2")
    for n in range(5):
        assert gauss_binomial(n, 0, t) == ONE
        assert gauss_binomial(n, n, t) == ONE


def test_gauss_binomial_small():
    t = S("q^3")  # any base q^e, e != 0
    assert gauss_binomial(2, 1, t) == ONE + t
    # (4,2): expand and factor the defining product
    assert gauss_binomial(4, 2, t) == (ONE + t ** 2) * (ONE + t + t ** 2)


def test_gauss_binomial_out_of_range():
    with pytest.raises(ValueError):
        gauss_binomial(2, 3, Q)


@pytest.mark.parametrize(
    "base", [q_pow(-2), q_pow(2), q_pow(1), q_pow(-1), q_pow(3)])
def test_cached_gauss_binomial_is_the_product(base):
    # the cached row against the defining product, with a gcd at every
    # factor, first call or repeat, for every k of every n <= 24
    for n in range(25):
        for k in range(n + 1):
            want = scalar_oracle.gauss_binomial(n, k, base)
            for _ in range(2):
                assert gauss_binomial(n, k, base) == want, (n, k)


@pytest.mark.parametrize("base", ["1", "2", "-q", "2*q", "q/(q+1)"])
def test_gauss_binomial_refuses_a_base_that_is_not_a_power_of_q(base):
    # the row holds [n, k]_t for t = q^e, e != 0, and nothing else
    with pytest.raises(ValueError, match="is not q\\^e"):
        gauss_binomial(3, 1, S(base))


def test_gauss_binomial_out_of_range_raises_on_every_call():
    # a failed call caches nothing, so a repeat raises again
    for n, k in [(2, 3), (2, -1), (0, 1)] * 2:
        with pytest.raises(ValueError, match="out of range"):
            gauss_binomial(n, k, q_pow(-2))


@pytest.mark.parametrize("base", [Q, q_pow(-2), S("q^2")])
def test_q_pascal_recurrences(base):
    # both q-Pascal recurrences, any base q^e, e != 0, n <= 8
    for n in range(1, 9):
        for k in range(0, n + 1):
            b = gauss_binomial(n, k, base)
            left = gauss_binomial(n - 1, k - 1, base) if k >= 1 else ZERO
            right = gauss_binomial(n - 1, k, base) if k <= n - 1 else ZERO
            assert b == left + base ** k * right
            assert b == base ** (n - k) * left + right


# -- Pochhammer and the Jackson integral ---------------------------------------

def test_pochhammer_empty():
    assert q_pochhammer(Q, Q, 0) == (ONE,)


def test_pochhammer_single():
    t = S("q^2")
    assert q_pochhammer(ONE, t, 1) == (ONE, -ONE)  # 1 - x


def test_pochhammer_two_factors():
    # (q^-2 zeta; q^-2)_2 = 1 - (q^-2 + q^-4) zeta + q^-6 zeta^2
    p = q_pochhammer(q_pow(-2), q_pow(-2), 2)
    assert p == (ONE, -(q_pow(-2) + q_pow(-4)), q_pow(-6))


@settings(max_examples=60)
@given(a=st.sampled_from(["0", "1", "-1", "q", "q^-2", "2*q^3", "(q+1)/(q-2)"]),
       base=st.sampled_from(["0", "1", "q", "q^-2", "-q^2", "q/(q+1)"]),
       k=st.integers(min_value=0, max_value=6))
def test_pochhammer_matches_the_polynomial_products(a, base, k):
    # the coefficient tuple against the factor-by-factor products the
    # engine used to form; a zero marker coefficient leaves no trailing zero
    got = q_pochhammer(S(a), S(base), k)
    assert type(got) is tuple
    assert got == pochhammer_product(S(a), S(base), k)
    assert not got[-1].is_zero()


def test_jackson_normalization():
    assert jackson_q_integral_01((ONE,), Q) == ONE


def test_jackson_monomial_self_similarity():
    # the closed form I(m) = (1-p)/(1-p^(m+1)) is the unique solution of
    # I(m) = (1-p) + p^(m+1) I(m), the k=0 split of the geometric series
    p = S("q^3/(q^3+1)")  # arbitrary nonzero base
    for m in range(6):
        x_m = (ZERO,) * m + (ONE,)
        val = jackson_q_integral_01(x_m, p)
        assert val == (ONE - p) + p ** (m + 1) * val


def test_jackson_linear_example():
    # f = x(1-x) -> 1/(1+p) - 1/(1+p+p^2)
    p = S("q^2")
    f = (ZERO, ONE, -ONE)
    expect = ONE / (ONE + p) - ONE / (ONE + p + p ** 2)
    assert jackson_q_integral_01(f, p) == expect


def test_q_gamma_int():
    assert q_gamma_int(1) == ONE
    assert q_gamma_int(2) == ONE
    assert q_gamma_int(3) == ONE + Q


@seed(31)
@settings(max_examples=80)
@given(f=st.lists(st.one_of(st.just(ZERO), scalars()), max_size=7),
       base=st.sampled_from(["q", "q^2", "1/q", "q^3/(q^3+1)"]))
def test_jackson_matches_the_term_by_term_oracle(f, base):
    # the single-denominator sum against one rational term per coefficient;
    # `scalars()` draws non-Laurent coefficients as well as zeros
    f = tuple(f)
    assert (jackson_q_integral_01(f, S(base))
            == scalar_oracle.jackson_q_integral_01(f, S(base)))


@pytest.mark.parametrize("base", ["1", "-1"])
@pytest.mark.parametrize("f", [(), (ZERO,), (ONE,), (ZERO, ONE),
                               (ZERO, ZERO, ONE), (ONE, ZERO, Q)])
def test_jackson_raises_only_on_a_term_at_a_pole(base, f):
    # p^(m+1) = 1 puts a pole in the weight of x^m (every m at p = 1, odd m
    # at p = -1): the integral raises only where f has such a term
    def outcome(integral):
        try:
            return integral(f, S(base))
        except ZeroDivisionError as err:
            return str(err)

    assert (outcome(jackson_q_integral_01)
            == outcome(scalar_oracle.jackson_q_integral_01))


@pytest.mark.parametrize("base", ["q^-2", "q", "q^2", "1/q"])
def test_jackson_weights_match_the_per_top_oracle(base):
    # the tables read from one lcm chain per base, with each weight formed
    # by exact division, against the tables built from m = 0 for each top
    # with a gcd per weight: the same L and the same weights, top by top
    p = S(base)
    for top in range(25):
        assert (scalars_module._jackson_weights(p, top)
                == scalar_oracle.jackson_weights(p, top)), top


@pytest.mark.parametrize("base", ["q^3/(q^3+1)", "(1+q)/(2-q^2)", "2*q/3",
                                  "1", "-1", "0"])
def test_jackson_weights_match_the_oracle_off_the_powers_of_q(base):
    # a base that is no power of q, or one with a pole at some m
    p = S(base)
    for top in range(7):
        assert (scalars_module._jackson_weights(p, top)
                == scalar_oracle.jackson_weights(p, top)), top


def test_jackson_lcm_build_does_not_nest_a_call_per_top(monkeypatch):
    # L at top is read from L at top - 1, and L at 0..top-1 are read in
    # ascending order first: from a cold cache the depth is L at top, then
    # L at m, then the cached L at m - 1 it reads, whatever the top
    build = scalars_module._jackson_lcm
    depth, deepest = [0], [0]

    def counted(p, top):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return build(p, top)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(scalars_module, "_jackson_lcm", counted)
    depths = {}
    for top in (6, 40):
        build.cache_clear()
        deepest[0] = 0
        counted(q_pow(-2), top)
        depths[top] = deepest[0]
    build.cache_clear()
    assert depths == {6: 3, 40: 3}


def test_q_gamma_int_matches_the_quotient_oracle():
    for n in range(1, 13):
        assert q_gamma_int(n) == scalar_oracle.q_gamma_int(n), n


# -- printing and parsing --------------------------------------------------------

@settings(max_examples=150)
@given(scalars())
def test_parse_print_roundtrip(a):
    assert parse_scalar(str(a)) == a


def test_print_forms():
    assert str(q_pow(-1)) == "q^-1"
    assert str(S("q^2/(q^2+1)")) == "q^2/(q^2 + 1)"
    assert str(ZERO) == "0"
