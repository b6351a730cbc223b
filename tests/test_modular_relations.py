import pytest

from aperylike import modular_relations
from aperylike.errors import IdentityViolationError
from aperylike.finite_field import legendre
from aperylike.fp_poly import FpPoly
from aperylike.fp_series import FpSeries
from aperylike.modular_relations import (_link_series, franel_series,
                                         franel_truncation, gauss_link,
                                         verify_H_power_identity,
                                         verify_endpoint_constant,
                                         verify_h_2f1_relation, verify_ode,
                                         verify_quadratic,
                                         verify_sigma_twist,
                                         verify_substitution)
from tests.conftest import primes_between


class TestFranelTruncation:
    def test_p5(self):
        assert franel_truncation(5).coeffs == (1, 2, 0, 1, 1)

    def test_shape(self):
        for p in primes_between(5, 100):
            h = franel_truncation(p)
            assert h.degree == p - 1
            assert h.lc() == 1
            assert h[0] == 1

    def test_never_a_proper_power(self):
        # gcd of the squarefree multiplicities is 1, i.e. H is not an n-th
        # power for any n >= 2
        import math
        for p in primes_between(5, 199):
            mults = [e for _, e in franel_truncation(p).squarefree_decomposition()]
            assert math.gcd(*mults, 0) == 1, p


class TestOde:
    def test_small_primes(self):
        for p in (5, 13, 199):
            assert verify_ode(p)

    def test_perturbation_breaks_it(self):
        p = 13
        h = franel_truncation(p) + FpPoly.one(p)
        lead = FpPoly((0, -1, 7, 8), p)
        mid = FpPoly((-1, 14, 24), p)
        last = FpPoly((2, 8), p)
        residual = lead * h.derivative().derivative() + mid * h.derivative() + last * h
        assert residual


class TestTwist:
    def test_apery_examples(self):
        assert verify_sigma_twist("apery", 7) == 1
        assert verify_sigma_twist("apery", 5) == -1

    def test_az_always_positive(self):
        for p in (5, 7, 11, 13, 17):
            assert verify_sigma_twist("az", p) == 1

    def test_domb_follows_mod6(self):
        for p in (5, 7, 11, 13, 19, 23):
            assert verify_sigma_twist("domb", p) == (1 if p % 6 == 1 else -1)


class TestEndpoint:
    def test_examples(self):
        assert verify_endpoint_constant(7) == 1
        assert verify_endpoint_constant(5) == 4
        assert verify_endpoint_constant(13) == 1


class TestHypergeometricLink:
    def test_large_prime(self):
        assert verify_h_2f1_relation(101, 50)

    def test_small_prime_capped(self):
        # p=7 caps the working precision at p-1 = 6
        assert verify_h_2f1_relation(7, 60)

    def test_wrong_prefactor_breaks(self):
        # replacing lambda = 1/(1-2x) by 1/(1-x) must not satisfy the link
        from aperylike.fp_poly import FpPoly as P
        from aperylike.fp_series import expand_rational, hypergeometric_2f1
        p, n = 101, 30
        g = hypergeometric_2f1(n, p)
        den = P((1, -2), p)
        y = expand_rational(P((0, 0, 27), p), den ** 3, n)
        wrong_lam = expand_rational(P.one(p), P((1, -1), p), n)
        assert wrong_lam * g.compose(y) != franel_series(p, n)


def bump(f: FpSeries, i: int) -> FpSeries:
    """f with 1 added to its coefficient of x^i."""
    cs = list(f.coeffs)
    cs[i] += 1
    return FpSeries(cs, f.p)


class TestHPower:
    def test_examples(self):
        assert verify_H_power_identity(5, 25)
        assert verify_H_power_identity(11, 30)

    def test_link_checks_see_every_coefficient(self):
        # at p = 11, n = 40 the power identity reads indices >= p, where the
        # factor 1 - 2x^p acts; the 2F1 check reads indices below p - 1
        p, n = 11, 40
        h, s = gauss_link(p, n)
        assert verify_h_2f1_relation(p, n, (h, s)) and verify_H_power_identity(p, n, (h, s))
        for i in range(n):
            for link in ((bump(h, i), s), (h, bump(s, i))):
                assert verify_h_2f1_relation(p, n, link) == (i >= p - 1)
                assert not verify_H_power_identity(p, n, link)

    @pytest.mark.parametrize("p", primes_between(5, 97))
    def test_frobenius_clears_the_prefactor(self, p):
        # (1-2x)^(p-1) = (1-2x^p) * lambda, the step from the Gauss link's
        # prefactor to s = lambda * G(y)
        one_minus_2xp = FpPoly((1,) + (0,) * (p - 1) + (-2,), p)
        for n in (p, 3 * p):
            lam = _link_series(p, n)[1]
            want = FpSeries.from_poly(FpPoly((1, -2), p) ** (p - 1), n)
            assert want == FpSeries.from_poly(one_minus_2xp, n) * lam

    def test_perturbed_H_fails(self):
        p, n = 11, 30
        h = franel_series(p, n)
        h_pow = h.pow_int(p - 1)
        bad = FpSeries.from_poly(franel_truncation(p) + FpPoly((0, 1), p), n)
        assert bad * h_pow != FpSeries.one(p, n)


class TestSubstitution:
    def test_families_at_101(self):
        for family in ("apery", "domb", "az"):
            res = verify_substitution(family, 101, 60)
            assert res.sign == 1

    def test_domb_sign_stable(self):
        assert verify_substitution("domb", 101, 60).sign == \
            verify_substitution("domb", 499, 60).sign


class TestQuadratic:
    @pytest.mark.parametrize("family", ["apery", "domb", "az"])
    def test_structure(self, family):
        for p in (7, 101):
            check = verify_quadratic(family, p)
            assert check.x_solves
            assert check.sigma_solves
            assert check.disc_sign == 1
            assert check.involution
            assert check.t_fixed
            assert check.ok

    def test_apery_discriminant_value(self):
        check = verify_quadratic("apery", 101)
        assert check.discriminant == FpPoly((1, -34, 1), 101)

    def test_az_discriminant_value(self):
        check = verify_quadratic("az", 101)
        assert check.discriminant == FpPoly((1, 14, 81), 101)

    def test_domb_discriminant_value(self):
        # the validated quadratic for the alternating convention; the
        # unsigned convention (middle sign -20) is its t -> -t mirror
        check = verify_quadratic("domb", 101)
        assert check.discriminant == FpPoly((1, 20, 64), 101)


class TestSensitivity:
    """One corrupted input coefficient, at an index below p or at p, makes
    verify ode return False, twist and endpoint raise, and quadratic report
    not ok.  ode, twist and endpoint read the Franel truncation H, quadratic
    the family's a(t), b(t), c(t)."""

    @staticmethod
    def indices(p):
        return (0, 1, (p - 1) // 2, p - 1, p)

    @staticmethod
    def corrupt_h(monkeypatch, i):
        def corrupted(p, _h=modular_relations.franel_truncation):
            return _h(p) + FpPoly((0,) * i + (1,), p)
        monkeypatch.setattr(modular_relations, "franel_truncation", corrupted)

    @pytest.mark.parametrize("p", [11, 13])
    def test_ode(self, monkeypatch, p):
        assert verify_ode(p)
        for i in self.indices(p):
            with monkeypatch.context() as m:
                self.corrupt_h(m, i)
                assert not verify_ode(p), i

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("family", ["apery", "domb", "az"])
    def test_twist(self, monkeypatch, family, p):
        for i in self.indices(p):
            if family == "az" and i == (p - 1) // 2 and legendre(-2, p) == 1:
                continue  # see test_twist_az_middle_coefficient
            with monkeypatch.context() as m:
                self.corrupt_h(m, i)
                with pytest.raises(IdentityViolationError):
                    verify_sigma_twist(family, p)

    @pytest.mark.parametrize("p", [11, 13])
    def test_twist_az_middle_coefficient(self, monkeypatch, p):
        # cleared by (8x)^(p-1), sigma: x -> -1/(8x) sends c_k x^k to
        # c_k (-1)^k 8^(p-1-k) x^(p-1-k); at k = (p-1)/2 that is (-2/p) c_k,
        # so with the az sign +1 the twist constrains c_k only when
        # (-2/p) = -1, and the check is blind to it at p = 1, 3 mod 8
        self.corrupt_h(monkeypatch, (p - 1) // 2)
        if legendre(-2, p) == 1:
            assert verify_sigma_twist("az", p) == 1
        else:
            with pytest.raises(IdentityViolationError):
                verify_sigma_twist("az", p)

    @pytest.mark.parametrize("p", [11, 13])
    def test_endpoint(self, monkeypatch, p):
        for i in self.indices(p):
            with monkeypatch.context() as m:
                self.corrupt_h(m, i)
                with pytest.raises(IdentityViolationError):
                    verify_endpoint_constant(p)

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("family", ["apery", "domb", "az"])
    @pytest.mark.parametrize("name", ["quad_a", "quad_b", "quad_c"])
    def test_quadratic(self, monkeypatch, family, p, name):
        spec = modular_relations.get_family(family)
        assert verify_quadratic(family, p).ok
        for i in (0, p):
            cs = list(getattr(spec, name)) + [0] * (p + 1)
            cs[i] += 1
            bad = type(spec)(**{**vars(spec), name: tuple(cs)})
            with monkeypatch.context() as m:
                m.setattr(modular_relations, "get_family", lambda key: bad)
                assert not verify_quadratic(family, p).ok, i
