"""Independent number theory for checking the program's outputs.

Nothing here imports the package under test.  Periods are certified
directly (2^n = 1 mod q, and 2^(n/p) != 1 for every prime p | n), with n
factored by trial division, Pollard-Brent rho and deterministic
Miller-Rabin.  Step counts are the popcount of M(n)/q, taken in blocks so
that no 2^n-sized integer is ever built.  Census tallies come from the
divisors of M(j), not from stepping any orbit.
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24
_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, isqrt(p) + 1))]

MERSENNE_EXPONENTS = frozenset({2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127})
LARGE_THRESHOLD = 136_279_841  # exponent of the largest known Mersenne prime
STREAM_FILES = {
    "large-prime": "large_prime_periods.tsv",
    "small-prime": "small_prime_periods.tsv",
    "odd-nonprime": "odd_nonprime_periods.tsv",
    "even": "even_periods.tsv",
}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int, c: int) -> int:
    """A divisor of the odd composite n by Pollard-Brent rho (may return n)."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = 2
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        c = 1
        d = _brent(m, c)
        while d in (1, m):
            c += 1
            d = _brent(m, c)
        stack += [d, m // d]
    return out


def order2(q: int) -> int:
    """Multiplicative order of 2 modulo odd q >= 3, from the factored lambda(q)."""
    lam = 1
    primes: set[int] = set()
    for p, e in factor(q).items():
        lam = lam * ((p - 1) * p ** (e - 1)) // gcd(lam, (p - 1) * p ** (e - 1))
        primes.update(factor(p - 1))
        if e > 1:
            primes.add(p)
    n = lam
    for p in primes:
        while n % p == 0 and pow(2, n // p, q) == 1:
            n //= p
    return n


def period_ok(q: int, n: int) -> bool:
    """Whether n is exactly the multiplicative order of 2 modulo q."""
    if n < 1 or pow(2, n, q) != 1:
        return False
    return all(pow(2, n // p, q) != 1 for p in factor(n))


def wrap_count(q: int, n: int, block: int = 1 << 16) -> int:
    """popcount(M(n) / q): the doublings among n that wrap past q."""
    x, m, done = 1, 0, 0
    while done < n:
        k = min(block, n - done)
        quotient, x = divmod(x << k, q)
        m += quotient.bit_count()
        done += k
    if x != 1:
        raise ValueError(f"q={q} does not divide M({n})")
    return m


def divisors(fac: dict[int, int]) -> list[int]:
    ds = [1]
    for p, e in fac.items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return ds


def census_bound(n0: int) -> int:
    return isqrt((1 << n0) - 1)


def candidate_total(n0: int) -> int:
    """Odd q = +-1 (mod 8) with 7 <= q <= floor(sqrt(M(n0)))."""
    bound = census_bound(n0)
    return sum((bound - first) // 8 + 1 for first in (7, 9) if bound >= first)


def census_counts(n0: int) -> dict[int, int]:
    """v(j) for 3 <= j <= n0: candidates whose order of 2 is exactly j.

    Those are the divisors d of M(j) with d = +-1 (mod 8), 7 <= d <= bound,
    that divide no M(j/p) for a prime p | j.
    """
    bound = census_bound(n0)
    counts = {}
    for j in range(3, n0 + 1):
        lower = [(1 << (j // p)) - 1 for p in factor(j)]
        counts[j] = sum(
            1 for d in divisors(factor((1 << j) - 1))
            if 7 <= d <= bound and d % 8 in (1, 7) and all(m % d for m in lower)
        )
    return counts


def stream_of(period: int) -> str:
    if period % 2 == 0:
        return "even"
    if not is_prime(period):
        return "odd-nonprime"
    return "large-prime" if period > LARGE_THRESHOLD else "small-prime"


def check_scan(lo: int, hi: int, streams: dict[str, list[tuple[int, int, int]]],
               files: dict[str, str] | None) -> list[str]:
    """Problems with a scan of the odd q in [lo, hi]; empty when correct.

    streams maps tag -> [(segment, q, period)] in report order; files maps
    tag -> the written file's text, when a report was written.
    """
    problems = []
    seen = sorted(q for recs in streams.values() for _, q, _ in recs)
    if seen != list(range(lo, hi + 1, 2)):
        problems.append(f"scan {lo}..{hi}: records do not cover each odd q once")
    for tag, recs in streams.items():
        key = (lambda r: r[1]) if tag == "even" else (lambda r: (r[2], r[1]))
        if recs != sorted(recs, key=key):
            problems.append(f"scan {lo}..{hi}: stream {tag} out of order")
        for seg, q, period in recs:
            if seg != q.bit_length():
                problems.append(f"q={q}: segment {seg}")
            elif not period_ok(q, period):
                problems.append(f"q={q}: period {period} is not the order of 2")
            elif stream_of(period) != tag:
                problems.append(f"q={q}: period {period} filed under {tag}")
        if files is not None:
            want = "".join(f"{s}\t{q}\t{p}\n" for s, q, p in recs)
            if files.get(tag) != want:
                problems.append(f"scan {lo}..{hi}: file for {tag} differs from the report")
    return problems


def odd_primes_upto(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p in range(3, bound + 1, 2) if sieve[p]]


def trial_divisions(n: int, odd_primes: list[int]) -> int:
    """Table divisions made deciding n with a sieve table of bound odd_primes[-1]."""
    if n % 2 == 0 or n <= odd_primes[-1]:
        return 0
    limit = bisect_right(odd_primes, isqrt(n))
    for i in range(limit):
        if n % odd_primes[i] == 0:
            return i + 1
    return limit
