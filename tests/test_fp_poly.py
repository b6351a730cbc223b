import pytest

from aperylike import kernels
from aperylike.fp_poly import FpPoly, SquareCofactor, gcd, mul_schoolbook
from aperylike.sequences import CATALOG, truncation_poly
from tests.conftest import random_poly, random_squarefree


def P(coeffs, p):
    return FpPoly(coeffs, p)


class TestRing:
    def test_mul_examples(self):
        assert P([1, 1], 5) * P([1, -1], 5) == P([1, 0, 4], 5)
        assert P([1, 1], 5) * FpPoly.zero(5) == FpPoly.zero(5)
        sq = P([4, 0, 1], 5)
        assert sq * sq == P([1, 0, 3, 0, 1], 5)

    def test_scalar_and_neg(self):
        f = P([1, 2, 3], 7)
        assert f * 2 == P([2, 4, 6], 7)
        assert -f + f == FpPoly.zero(7)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            P([1], 5) * P([1], 7)

    def test_divrem_examples(self):
        q, r = P([1, 0, 1], 5).divrem(P([0, 1], 5))
        assert (q, r) == (P([0, 1], 5), P([1], 5))
        f = P([3, 1, 4], 5)
        assert f.divrem(FpPoly.one(5)) == (f, FpPoly.zero(5))
        q, r = P([1, 0, 3, 0, 1], 5).divrem(P([4, 0, 1], 5))
        assert (q, r) == (P([4, 0, 1], 5), FpPoly.zero(5))

    def test_divrem_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            P([1], 5).divrem(FpPoly.zero(5))

    def test_divrem_reconstruction_random(self, rng):
        for _ in range(300):
            p = rng.choice([5, 13, 101])
            f = random_poly(rng, p, 12)
            g = random_poly(rng, p, 6, nonzero=True)
            q, r = f.divrem(g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_gcd_examples(self):
        assert gcd(P([-1, 0, 1], 7), P([-1, 1], 7)) == P([6, 1], 7)
        f = P([3, 1, 4], 5)
        assert gcd(f, FpPoly.zero(5)) == f.monic()
        a = P([1, 1], 5) ** 2 * P([0, 1], 5)
        b = P([1, 1], 5) * P([0, 0, 1], 5)
        assert gcd(a, b) == P([0, 1, 1], 5)

    def test_gcd_zero_zero(self):
        with pytest.raises(ZeroDivisionError):
            gcd(FpPoly.zero(5), FpPoly.zero(5))

    def test_gcd_divides_both_random(self, rng):
        for _ in range(200):
            p = rng.choice([5, 7, 13])
            f = random_poly(rng, p, 8)
            g = random_poly(rng, p, 8)
            if not f and not g:
                continue
            d = gcd(f, g)
            for h in (f, g):
                if h:
                    assert h % d == FpPoly.zero(p)

    def test_derivative(self):
        assert FpPoly.monomial(5, 5).derivative() == FpPoly.zero(5)
        assert P([4, 0, 1], 5).derivative() == P([0, 2], 5)
        assert P([1, 0, 3, 0, 1], 5).derivative() == P([0, 1, 0, 4], 5)

    def test_eval(self):
        assert P([1, 0, 1], 5).eval(2) == 0
        assert P([3, 9, 2], 11).eval(0) == 3
        assert P([1, 0, 3, 0, 1], 5).eval(1) == 0

    def test_pow(self):
        f = P([1, 1], 7)
        assert f ** 0 == FpPoly.one(7)
        assert f ** 3 == f * f * f

    @pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (13, 5)])
    def test_pow_makes_only_the_products_it_needs(self, monkeypatch, k, products):
        # one square per bit below the top one and one product per set bit
        # below it: f ** 5 = (f^2)^2 * f is 3 products, f ** 1 none
        f = P([1, 1], 7)
        want = [1]
        for _ in range(k):
            want = mul_schoolbook(want, list(f.coeffs), 7)
        calls = []

        def counted(a, b, p, _mul=kernels.poly_mul):
            calls.append((a, b))
            return _mul(a, b, p)

        monkeypatch.setattr(kernels, "poly_mul", counted)
        assert list((f ** k).coeffs) == want
        assert len(calls) == products


class TestKronecker:
    def test_agreement_random(self, rng):
        cases = 0
        for _ in range(300):
            p = rng.choice([5, 101, 2 ** 31 - 1])
            la = rng.randrange(1, 120)
            lb = rng.randrange(1, 120)
            a = [rng.randrange(p) for _ in range(la)]
            b = [rng.randrange(p) for _ in range(lb)]
            assert kernels.poly_mul(a, b, p) == mul_schoolbook(a, b, p)
            cases += 1
        assert cases == 300

    def test_agreement_large(self, rng):
        p = 2 ** 31 - 1
        for size in (513, 1200, 4097):
            a = [rng.randrange(p) for _ in range(size)]
            b = [rng.randrange(p) for _ in range(size)]
            assert kernels.poly_mul(a, b, p) == mul_schoolbook(a, b, p)

    @pytest.mark.parametrize("p, la, lb", [
        pytest.param(65521, 1, 1, id="65521-1-1"),
        pytest.param(65521, 1, 300, id="65521-1-300"),
        pytest.param(65521, 2, 2, id="65521-2-2"),
        pytest.param(2 ** 31 - 1, 4, 4, id="4-4"),
        pytest.param(2 ** 31 - 1, 5, 5, id="5-5"),
        pytest.param(2 ** 31 - 1, 1, 4097, id="1-4097"),
        pytest.param(2 ** 31 - 1, 4097, 2, id="4097-2"),
        pytest.param(2 ** 31 - 1, 4097, 4097, id="4097-4097"),
    ])
    def test_slot_width(self, p, la, lb):
        # every coefficient p-1: each product term is (p-1)^2 = 1 mod p, the
        # largest value a slot must hold, so coefficient i counts the index
        # pairs summing to i.  At p = 65521, (p-1)^2 < 2^32 < 2 (p-1)^2: 1x1
        # is the widest 4-byte shape and 2x2 the narrowest 8-byte one; at
        # p = 2^31-1, 4x4 is the widest 8-byte shape and 5x5 the narrowest
        # 16-byte one
        out = kernels.poly_mul([p - 1] * la, [p - 1] * lb, p)
        assert out == [(min(i, la - 1) - max(0, i - lb + 1) + 1) % p
                       for i in range(la + lb - 1)]

    def test_series_mul_truncates_and_pads(self, rng):
        for p in (13, 2 ** 31 - 1):
            a = [rng.randrange(p) for _ in range(30)]
            b = [rng.randrange(p) for _ in range(17)]
            full = mul_schoolbook(a, b, p)
            for n in (1, 9, 29, 46, 47, 60):
                want = full[:n] + [0] * (n - len(full))
                assert kernels.series_mul(a, b, n, p) == want
                assert kernels.series_mul(a, a, n, p) == (mul_schoolbook(a, a, p) + [0] * n)[:n]


class TestFastPaths:
    """Newton division and the half-gcd against their quadratic oracles, on
    shapes past the crossover and on the edge shapes."""

    def test_apery_1987(self):
        p = 1987
        a = list(truncation_poly(CATALOG["apery"], p).coeffs)
        da = [i * c % p for i, c in enumerate(a)][1:]
        g = kernels.gcd_euclid(a, da, p)
        assert len(g) - 1 == 992 > kernels._CROSSOVER
        assert kernels.poly_gcd(a, da, p) == g
        assert kernels.poly_divrem(a, g, p) == kernels.divrem_classic(a, g, p)

    def test_constant_divisor(self, rng):
        p = 101
        a = [rng.randrange(p) for _ in range(300)] + [7]
        q, r = kernels.poly_divrem(a, [5], p)
        assert (q, r) == ([c * pow(5, p - 2, p) % p for c in a], [])

    def test_long_quotient(self, rng):
        p = 2 ** 31 - 1
        b = [rng.randrange(p) for _ in range(kernels._CROSSOVER)] + [3]
        a = [rng.randrange(p) for _ in range(11 * len(b))] + [1]
        q, r = kernels.poly_divrem(a, b, p)
        assert len(q) >= 10 * len(b)
        assert (q, r) == kernels.divrem_classic(a, b, p)

    def test_divisor_longer_than_dividend(self, rng):
        p = 13
        a = [rng.randrange(p) for _ in range(100)] + [1, 0, 0]
        b = [rng.randrange(p) for _ in range(300)] + [1]
        assert kernels.poly_divrem(a, b, p) == ([], a[:-2])

    def test_half_gcd_degree_drop(self, rng):
        # the remainder sequence of (a, b) drops from degree 160 straight to
        # 99, one below half of deg a = 200: the half-gcd stops at (b, a mod b)
        p = 101
        b, d, q = ([rng.randrange(p) for _ in range(n)] + [1] for n in (160, 99, 40))
        a = list((P(q, p) * P(b, p) + P(d, p)).coeffs)
        assert kernels._hgcd(a, b, p)[1:] == (b, d)
        assert kernels.poly_gcd(a, b, p) == kernels.gcd_euclid(a, b, p)

    def test_gcd_with_zero(self, rng):
        p = 65521
        a = [rng.randrange(p) for _ in range(4 * kernels._CROSSOVER)] + [9]
        monic = [c * pow(9, p - 2, p) % p for c in a]
        for zero in ([], [0, 0, 0]):
            assert kernels.poly_gcd(a, zero, p) == monic
            assert kernels.poly_gcd(zero, a, p) == monic


class TestSquarefree:
    def test_example(self):
        f = P([1, 1], 5) ** 2 * P([2, 1], 5)
        assert f.squarefree_decomposition() == [(P([2, 1], 5), 1), (P([1, 1], 5), 2)]

    def test_pth_power(self):
        assert FpPoly.monomial(5, 5).squarefree_decomposition() == [(P([0, 1], 5), 5)]

    def test_squarefree_input(self, rng):
        f = random_squarefree(rng, 13, 6)
        if f.degree >= 1:
            assert f.squarefree_decomposition() == [(f.monic(), 1)]

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FpPoly.zero(7).squarefree_decomposition()

    def test_mixed_p_multiplicities(self):
        p = 5
        f = P([1, 1], p) ** p * P([2, 1], p) ** 2 * P([0, 1], p)
        parts = dict()
        for g, e in f.squarefree_decomposition():
            parts[g.coeffs] = e
        assert parts == {(0, 1): 1, (2, 1): 2, (1, 1): p}

    def test_reconstruction_random(self, rng):
        for _ in range(1000):
            p = rng.choice([5, 7, 13])
            f = random_poly(rng, p, 10, nonzero=True)
            parts = f.squarefree_decomposition()
            prod = FpPoly.constant(f.lc(), p)
            for g, e in parts:
                assert g.lc() == 1
                assert gcd(g, g.derivative()).degree == 0  # squarefree
                prod = prod * g ** e
            for i, (g1, _) in enumerate(parts):
                for g2, _ in parts[i + 1:]:
                    assert gcd(g1, g2).degree == 0  # pairwise coprime
            assert prod == f


class TestSquareCofactor:
    def test_apery_truncation_example(self):
        fact = P([1, 0, 3, 0, 1], 5).square_cofactor()
        assert fact.c == 1
        assert fact.cofactor == FpPoly.one(5)
        assert fact.root == P([4, 0, 1], 5)

    def test_simple_example(self):
        f = P([0, 1], 7) * P([1, 1], 7) ** 2
        fact = f.square_cofactor()
        assert (fact.c, fact.cofactor, fact.root) == (1, P([0, 1], 7), P([1, 1], 7))

    def test_constant(self):
        fact = P([3], 7).square_cofactor()
        assert (fact.c, fact.cofactor, fact.root) == (3, FpPoly.one(7), FpPoly.one(7))

    @pytest.mark.parametrize("parts, products", [
        ([], 2),
        ([([1, 1], 1), ([2, 1], 2)], 2),
        ([([1, 1], 1), ([3, 1], 1), ([2, 1], 4)], 4),
    ])
    def test_from_parts_makes_only_the_products_it_needs(self, monkeypatch, parts, products):
        # P and B start from their first factors, not from 1: the two
        # products of the re-expansion check, one per further factor of P
        # and one per square in B
        p = 7
        parts = [(P(g, p), e) for g, e in parts]
        a = FpPoly.constant(3, p)
        for g, e in parts:
            a = a * g ** e
        calls = []

        def counted(x, y, p, _mul=kernels.poly_mul):
            calls.append((x, y))
            return _mul(x, y, p)

        monkeypatch.setattr(kernels, "poly_mul", counted)
        SquareCofactor.from_parts(a, parts)  # raises unless c*P*B^2 == a
        assert len(calls) == products

    def test_roundtrip_random(self, rng):
        for _ in range(1000):
            p = rng.choice([5, 7, 13, 101])
            c = rng.randrange(1, p)
            cof = random_squarefree(rng, p, 4)
            root = random_poly(rng, p, 4, nonzero=True).monic()
            f = (cof * root * root).scale(c)
            fact = f.square_cofactor()
            assert fact.expand() == f
            # the reported parts are a valid c*P*B^2 with P squarefree monic
            assert fact.cofactor.lc() == 1
            assert gcd(fact.cofactor, fact.cofactor.derivative()).degree <= 0


class TestSubstituteRational:
    def test_definition_example(self):
        p = 97
        f = FpPoly.monomial(2, p)
        u = P([1, -8], p)
        v = P([8, 8], p)
        assert f.substitute_rational(u, v) == u * u

    def test_constant_passthrough(self):
        f = P([3], 5)
        assert f.substitute_rational(P([0, 1], 5), P([1, 1], 5)) == f

    def test_hand_expansion(self):
        f = P([1, 1], 5)
        out = f.substitute_rational(P([0, 1], 5), P([1, 1], 5))
        assert out == P([1, 2], 5)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            P([1, 1], 5).substitute_rational(P([0, 1], 5), FpPoly.zero(5))

    def test_matches_direct_expansion(self, rng):
        for _ in range(100):
            p = 13
            f = random_poly(rng, p, 4, nonzero=True)
            u = random_poly(rng, p, 2)
            v = random_poly(rng, p, 2, nonzero=True)
            d = max(int(f.degree), 0)
            expect = FpPoly.zero(p)
            for i, c in enumerate(f.coeffs):
                expect = expect + (u ** i * v ** (d - i)).scale(c)
            assert f.substitute_rational(u, v) == expect


class TestClearingDegree:
    def test_constant_is_cleared(self):
        v = P([1, 1], 5)
        assert P([3], 5).substitute_rational(P([0, 1], 5), v, 2) == (v * v).scale(3)

    def test_zero_stays_zero(self):
        for degree in (None, 0, 3):
            assert not FpPoly.zero(5).substitute_rational(P([0, 1], 5), P([1, 1], 5), degree)

    def test_degree_below_self_raises(self):
        with pytest.raises(ValueError):
            P([1, 1, 1], 5).substitute_rational(P([0, 1], 5), P([1, 1], 5), 1)


class TestFormat:
    def test_str(self):
        assert str(P([1, 0, 3, 0, 1], 5)) == "t^4 + 3*t^2 + 1"
        assert str(FpPoly.zero(5)) == "0"
        assert P([0, 1], 7).format(var="x") == "x"
