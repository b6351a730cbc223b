"""Backend parity: the compiled kernels (division, gcd, twist) must agree
with the pure-Python reference, including edge shapes.  Products have one
implementation under every backend and are tested in test_fp_poly."""
import pytest

from aperylike.kernels import get_backends

BACKENDS = get_backends()

pytestmark = pytest.mark.skipif(
    len(BACKENDS) < 2, reason="compiled kernel backend not built")


def pair():
    return BACKENDS["pure"], BACKENDS["compiled"]


PRIMES = [5, 13, 101, 7919, 2 ** 31 - 1]


class TestPolyKernels:
    def test_poly_divrem(self, rng):
        pure, fast = pair()
        for _ in range(200):
            p = rng.choice(PRIMES)
            a = [rng.randrange(p) for _ in range(rng.randrange(1, 30))]
            b = [rng.randrange(p) for _ in range(rng.randrange(1, 12))]
            if b[-1] == 0:
                b[-1] = rng.randrange(1, p)
            assert pure.poly_divrem(a, b, p) == fast.poly_divrem(a, b, p)

    def test_poly_gcd(self, rng):
        pure, fast = pair()
        for _ in range(200):
            p = rng.choice([5, 13, 101])
            a = [rng.randrange(p) for _ in range(rng.randrange(1, 20))]
            b = [rng.randrange(p) for _ in range(rng.randrange(1, 20))]
            if not any(a) and not any(b):
                a[0] = 1
            assert pure.poly_gcd(a, b, p) == fast.poly_gcd(a, b, p)

    def test_twist_sum(self, rng):
        pure, fast = pair()
        for _ in range(100):
            p = rng.choice([5, 13, 101])
            cs = [rng.randrange(p) for _ in range(rng.randrange(1, 25))]
            if cs[-1] == 0:
                cs[-1] = rng.randrange(1, p)
            num = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
            den = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
            if num[-1] == 0:
                num[-1] = rng.randrange(1, p)
            if den[-1] == 0:
                den[-1] = rng.randrange(1, p)
            assert pure.twist_sum(cs, num, den, p) == fast.twist_sum(cs, num, den, p)
