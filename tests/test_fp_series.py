import math

import pytest

from aperylike import kernels
from aperylike.finite_field import inv_mod
from aperylike.fp_poly import FpPoly, mul_schoolbook
from aperylike.fp_series import (FpSeries, expand_rational,
                                 hypergeometric_2f1)


def S(coeffs, p):
    return FpSeries(coeffs, p)


class TestMul:
    def test_example(self):
        out = S([1, 1, 0], 5) * S([1, -1, 0], 5)
        assert out.coeffs == (1, 0, 4)

    def test_identity(self):
        f = S([2, 3, 4], 7)
        assert f * FpSeries.one(7, 3) == f

    def test_geometric_square(self):
        geo = S([1] * 4, 5)
        assert (geo * geo).coeffs == (1, 2, 3, 4)

    def test_min_precision(self):
        out = S([1, 1, 1, 1], 5) * S([1, 1], 5)
        assert len(out.coeffs) == 2


class TestInv:
    def test_geometric(self):
        assert S([1, -2, 0, 0], 7).inv().coeffs == (1, 2, 4, 1)

    def test_one(self):
        assert FpSeries.one(5, 6).inv() == FpSeries.one(5, 6)

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroDivisionError):
            S([0, 1], 5).inv()

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            p = rng.choice([5, 13, 101])
            n = rng.randrange(1, 30)
            coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)]
            f = S(coeffs, p)
            assert f * f.inv() == FpSeries.one(p, n)


class TestCompose:
    def test_geometric_of_x_squared(self):
        geo = S([1] * 5, 7)
        inner = S([0, 0, 1, 0, 0], 7)
        assert geo.compose(inner).coeffs == (1, 0, 1, 0, 1)

    def test_zero_inner(self):
        f = S([4, 2, 1], 7)
        assert f.compose(S([0, 0, 0], 7)).coeffs == (4, 0, 0)

    def test_hand_expansion(self):
        geo = S([1, 1, 1], 5)
        inner = S([0, 1, 1], 5)
        assert geo.compose(inner).coeffs == (1, 1, 2)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            S([1, 1], 5).compose(S([1, 1], 5))

    def test_associative_with_linear_inner(self, rng):
        for _ in range(50):
            p = 13
            n = 12
            f = S([rng.randrange(p) for _ in range(n)], p)
            g = S([0] + [rng.randrange(p) for _ in range(n - 1)], p)
            a = rng.randrange(1, p)
            linear = S([0, a] + [0] * (n - 2), p)
            assert f.compose(g).compose(linear) == f.compose(g.compose(linear))


class TestExpandRational:
    def test_known_expansion(self):
        out = expand_rational(FpPoly([0, 1, -8], 7), FpPoly([1, 1], 7), 4)
        assert out.coeffs == (0, 1, 5, 2)

    def test_poly_over_one(self):
        out = expand_rational(FpPoly([3, 1], 5), FpPoly.one(5), 5)
        assert out.coeffs == (3, 1, 0, 0, 0)

    def test_geometric(self):
        out = expand_rational(FpPoly.one(7), FpPoly([1, -1], 7), 6)
        assert out.coeffs == (1,) * 6

    def test_zero_constant_denominator(self):
        with pytest.raises(ZeroDivisionError):
            expand_rational(FpPoly.one(5), FpPoly([0, 1], 5), 3)

    def test_multiplies_back(self, rng):
        for _ in range(100):
            p = rng.choice([5, 13])
            n = rng.randrange(1, 25)
            u = FpPoly([rng.randrange(p) for _ in range(rng.randrange(1, 6))], p)
            v = FpPoly([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(3)], p)
            s = expand_rational(u, v, n)
            back = s * FpSeries.from_poly(v, n)
            assert back == FpSeries.from_poly(u, n)


class TestSqrtInv:
    def test_one(self):
        assert S([1, 0, 0], 7).sqrt_inv() == FpSeries.one(7, 3)

    def test_central_binomials(self):
        # (1-4t)^(-1/2) = sum C(2n,n) t^n
        out = S([1, -4, 0, 0], 7).sqrt_inv()
        assert out.coeffs == (1, 2, 6, 6)

    def test_central_delannoy(self):
        out = S([1, -6, 1, 0], 13).sqrt_inv()
        assert out.coeffs[2] == 13 % 13

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            S([2, 1], 5).sqrt_inv()

    def test_square_identity_random(self, rng):
        for _ in range(100):
            p = rng.choice([5, 13, 101])
            n = rng.randrange(1, 30)
            f = S([1] + [rng.randrange(p) for _ in range(n - 1)], p)
            g = f.sqrt_inv()
            assert g * g * f == FpSeries.one(p, n)


class TestSqrt:
    def test_central_binomials(self):
        # (1-4t)^(1/2) = 1 - 2 sum C(2n-2,n-1)/n t^n = 1 - 2t - 2t^2 - 4t^3 - ...
        assert S([1, -4, 0, 0, 0], 101).sqrt().coeffs == (1, 99, 99, 97, 91)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            S([2, 1], 5).sqrt()

    def test_square_identity_random(self, rng):
        # every precision from 1, so both halves of the Karp-Markstein step
        # are exercised at odd and even N
        for n in range(1, 60):
            p = rng.choice([5, 13, 101, 1999])
            f = S([1] + [rng.randrange(p) for _ in range(n - 1)], p)
            s = f.sqrt()
            assert s[0] == 1 and s * s == f
            assert s == f * f.sqrt_inv()


class TestPowInt:
    @pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (13, 5)])
    def test_makes_only_the_products_it_needs(self, monkeypatch, k, products):
        # one square per bit below the top one and one product per set bit
        # below it, as FpPoly.__pow__
        p, n = 7, 12
        f = S([1, 3, 0, 5, 1, 0, 0, 2, 0, 0, 0, 1], p)
        want = [1]
        for _ in range(k):
            want = mul_schoolbook(want, list(f.coeffs), p)[:n]
        want += [0] * (n - len(want))
        calls = []

        def counted(a, b, n, p, _mul=kernels.series_mul):
            calls.append((a, b))
            return _mul(a, b, n, p)

        monkeypatch.setattr(kernels, "series_mul", counted)
        assert list(f.pow_int(k).coeffs) == want
        assert len(calls) == products

    def test_negative_power_is_inverse(self):
        f = S([1, -2, 0, 0], 7)
        assert f.pow_int(-2) == f.inv() * f.inv()


class TestHypergeometric:
    def test_constant_term(self):
        assert hypergeometric_2f1(1, 11).coeffs == (1,)

    def test_linear_coefficient(self):
        for p in (7, 11, 101):
            g = hypergeometric_2f1(3, p)
            assert g.coeffs[1] == 2 * inv_mod(9, p) % p

    def test_rational_reduction_route(self):
        # coefficients equal the p-reductions of (1/3)_k (2/3)_k / k!^2
        p = 101
        g = hypergeometric_2f1(10, p)
        for k in range(10):
            num = math.prod(1 + 3 * i for i in range(k)) * math.prod(2 + 3 * i for i in range(k))
            den = 9 ** k * math.factorial(k) ** 2
            assert g.coeffs[k] == num * inv_mod(den, p) % p

    def test_precision_cap(self):
        hypergeometric_2f1(7, 7)  # order-p truncation is allowed
        with pytest.raises(ValueError):
            hypergeometric_2f1(8, 7)
