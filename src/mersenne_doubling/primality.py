"""The 64-bit arithmetic kernel and the primality range of is_prime.

is_prime64 is Miller-Rabin to the first twelve prime bases, exact below
psi_12 ~ 3.18e23 and so for every n < 2**64 (Sorenson & Webster, Math. Comp.
86, 2017).  factor uses trial division by the primes below 1000, which stops
once d*d > n and records a leftover n > 1 as prime without Miller-Rabin;
only a leftover that no prime below 1000 divides goes on to is_prime64 and
Pollard rho.
A PrimeTable of bound B has capacity B*B, the largest n that is_prime decides;
the default bound of two million gives 4e12.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt

from .errors import CapacityError

DEFAULT_PRIME_BOUND = 2_000_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_RHO_BATCH = 128  # rho steps per gcd
# The primes below 1000: each odd d with no odd divisor p in 3..sqrt(d).
_TRIAL_DIVISORS = (2, *(d for d in range(3, 1000, 2)
                        if all(map(d.__mod__, range(3, isqrt(d) + 1, 2)))))


def is_prime64(n: int) -> bool:
    """Whether 0 <= n < 2**64 is prime, by Miller-Rabin to the bases 2..37."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard rho with Brent's cycle finding.

    y runs through x -> x*x + c (mod n), and x holds y's value at the last
    power of two.  The differences x - y are multiplied mod n in batches of
    _RHO_BATCH, so one gcd serves a batch (Brent 1980).  A batch whose gcd
    is n is stepped again from its start, one gcd a step; if that still
    meets n, the next c is tried.
    """
    for c in count(1):
        y, power, product, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            for done in range(0, power, _RHO_BATCH):
                start = y
                for _ in range(min(_RHO_BATCH, power - done)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                d = gcd(product, n)
                if d != 1:
                    break
            power *= 2
        if d == n:
            d, y = 1, start
            while d == 1:
                y = (y * y + c) % n
                d = gcd(x - y, n)
        if d != n:
            return d


def factor(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of 1 <= n < 2**64.

    Trial division by the primes below 1000 stops once d*d > n: no prime
    below d divides what is left, so a leftover above 1 is prime and is
    recorded without Miller-Rabin.  So no n < 997**2 reaches is_prime64.
    A leftover that survives every trial divisor goes to is_prime64 and rho.
    """
    factors: dict[int, int] = {}
    for d in _TRIAL_DIVISORS:
        if d * d > n:
            if n > 1:
                factors[n] = 1
            return factors
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime64(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += [d, m // d]
    return factors


@dataclass(frozen=True)
class PrimeTable:
    """A primality range: is_prime decides n up to capacity = bound**2."""

    bound: int

    @property
    def capacity(self) -> int:
        return self.bound * self.bound


def build_prime_table(bound: int = DEFAULT_PRIME_BOUND) -> PrimeTable:
    """The table of the given bound, at most 2**32 so that the capacity stays within 2**64."""
    if not 3 <= bound <= 2**32:
        raise ValueError(f"prime bound must lie in [3, 2**32], got {bound}")
    return PrimeTable(bound)


def is_prime(n: int, table: PrimeTable) -> bool:
    """Primality of 2 <= n <= table.capacity, decided by is_prime64.

    The table sets the range only: n above its capacity raises CapacityError.
    """
    if n < 2:
        raise ValueError(f"primality is decided for n >= 2, got {n}")
    if n > table.capacity:
        raise CapacityError(
            f"{n} exceeds the table capacity {table.capacity}; "
            f"use bound >= {isqrt(n - 1) + 1}"
        )
    return is_prime64(n)
