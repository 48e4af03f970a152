"""The 64-bit arithmetic kernel and the primality range of is_prime.

Below 2**16 both factor and is_prime64 read one 64 KB table, _SPF, built at
import: the smallest prime factor of every composite n < 2**16, and 0 for
every prime.  Above it, is_prime64 is Miller-Rabin to the first twelve prime
bases, exact below psi_12 ~ 3.18e23 and so for every n < 2**64 (Sorenson &
Webster, Math. Comp. 86, 2017).  factor trial-divides by the primes below
1000 only while the cofactor is at least 2**16, and reads a smaller one off
the table; division stops once d*d > n and records a leftover n > 1 as prime
without Miller-Rabin.  Only a leftover that no prime below 1000 divides goes
on to is_prime64 and Pollard rho.
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
_SPF_LIMIT = 1 << 16


def _smallest_prime_factors() -> bytearray:
    """spf[n] = the smallest prime factor of each composite n < 2**16, 0 for a prime (and for 0, 1).

    Each prime p below 256 = sqrt(2**16) marks p*p, p*p + p, ...; the
    primes go in descending order, so the smallest one writes last.
    """
    spf = bytearray(_SPF_LIMIT)
    for p in reversed([p for p in range(2, 256) if all(map(p.__mod__, range(2, isqrt(p) + 1)))]):
        spf[p * p::p] = bytes((p,)) * len(range(p * p, _SPF_LIMIT, p))
    return spf


_SPF = _smallest_prime_factors()
_TRIAL_DIVISORS = tuple(n for n in range(2, 1000) if not _SPF[n])  # the primes below 1000


def is_prime64(n: int) -> bool:
    """Whether 0 <= n < 2**64 is prime: one read of _SPF below 2**16, Miller-Rabin to the bases 2..37 above."""
    if n < _SPF_LIMIT:
        return n > 1 and not _SPF[n]
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

    n below 2**16 is read off _SPF, one smallest prime factor at a time.
    Above it, trial division by the primes below 1000 runs while the
    cofactor is at least 2**16, and hands a smaller one to the table.  It
    stops once d*d > n: no prime below d divides what is left, so a leftover
    above 1 is prime and is recorded without Miller-Rabin.  So no
    n < 997**2 reaches is_prime64.  A leftover that survives every trial
    divisor goes to is_prime64 and rho.
    """
    factors: dict[int, int] = {}
    for d in _TRIAL_DIVISORS:
        if n < _SPF_LIMIT:
            break
        if d * d > n:
            factors[n] = 1
            return factors
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    while 1 < n < _SPF_LIMIT:  # each p read here is above every prime divided out so far
        p = _SPF[n] or n
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        factors[p] = e
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
