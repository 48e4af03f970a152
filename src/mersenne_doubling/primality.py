"""The 64-bit arithmetic kernel and the sieved table of odd primes.

is_prime64 is Miller-Rabin to the first twelve prime bases, exact below
psi_12 ~ 3.18e23 and so for every n < 2**64 (Sorenson & Webster, Math. Comp.
86, 2017).  factor uses trial division below 1000, then Pollard rho.
A table sieved up to B has capacity B*B, the largest n that is_prime decides;
the default bound of two million gives 4e12 in well under a second.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import count
from math import gcd, isqrt
from pathlib import Path

import numpy as np

from .errors import CapacityError

DEFAULT_PRIME_BOUND = 2_000_000

_PTAB_MAGIC = b"PTAB"
_PTAB_VERSION = 1
_PTAB_HEADER = struct.Struct("<4sIQQ")  # magic, version, count, bound

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    """A proper divisor of the odd composite n, by Pollard rho with Floyd cycles."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


def factor(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of 1 <= n < 2**64."""
    factors: dict[int, int] = {}
    for d in (2, *range(3, 1000, 2)):  # a composite d finds its primes gone
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
    """All odd primes in [3, bound], ascending; decides primality up to bound**2."""

    bound: int
    primes: list[int] = field(repr=False)

    @property
    def capacity(self) -> int:
        return self.bound * self.bound

    def __len__(self) -> int:
        return len(self.primes)

    def __contains__(self, n: int) -> bool:
        i = bisect_right(self.primes, n)
        return i > 0 and self.primes[i - 1] == n


def build_prime_table(bound: int = DEFAULT_PRIME_BOUND) -> PrimeTable:
    """Sieve of Eratosthenes over the odd numbers up to bound."""
    if not 3 <= bound <= 2**32:
        raise ValueError(f"sieve bound must lie in [3, 2**32], got {bound}")
    half = (bound - 1) // 2  # index i <-> odd number 2i + 1
    composite = bytearray(half + 1)
    i = 1
    while (2 * i + 1) ** 2 <= bound:
        if not composite[i]:
            p = 2 * i + 1
            first = (p * p - 1) // 2
            composite[first::p] = b"\x01" * len(range(first, half + 1, p))
        i += 1
    return PrimeTable(bound, [2 * i + 1 for i in range(1, half + 1) if not composite[i]])


def is_prime(n: int, table: PrimeTable) -> bool:
    """Primality of 2 <= n <= table.capacity, decided by is_prime64.

    The table sets the range only: n above its capacity raises CapacityError.
    """
    if n < 2:
        raise ValueError(f"primality is decided for n >= 2, got {n}")
    if n > table.capacity:
        raise CapacityError(
            f"{n} exceeds the table capacity {table.capacity}; "
            f"rebuild with bound >= {isqrt(n) + 1}"
        )
    return is_prime64(n)


def save_prime_table(table: PrimeTable, path: str | Path) -> None:
    """Write the table as little-endian 64-bit values with a PTAB header."""
    payload = np.asarray(table.primes, dtype="<u8").tobytes()
    header = _PTAB_HEADER.pack(_PTAB_MAGIC, _PTAB_VERSION, len(table.primes), table.bound)
    Path(path).write_bytes(header + payload)


def load_prime_table(path: str | Path) -> PrimeTable:
    """Read a table written by save_prime_table, validating header and length."""
    raw = Path(path).read_bytes()
    if len(raw) < _PTAB_HEADER.size:
        raise ValueError(f"{path}: truncated prime table file")
    magic, version, count, bound = _PTAB_HEADER.unpack_from(raw)
    if magic != _PTAB_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {_PTAB_MAGIC!r}")
    if version != _PTAB_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    body = raw[_PTAB_HEADER.size:]
    if len(body) != 8 * count:
        raise ValueError(f"{path}: expected {count} primes, file holds {len(body) // 8}")
    primes = [int(p) for p in np.frombuffer(body, dtype="<u8")]
    return PrimeTable(int(bound), primes)
