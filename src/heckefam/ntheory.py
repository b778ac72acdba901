"""Elementary number theory helpers, a primality test that is a proof or
an error, `join`, the one union-find of the package, and `orbit_walk`, the
one walk over the orbits of a group of permutations; it imports nothing
from it."""

from __future__ import annotations

from functools import cache
from math import gcd


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: multiplicity}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981  # the least composite that passes them all


def is_prime(n: int) -> bool:
    """Whether n is prime, by the Miller-Rabin test over MILLER_RABIN_BASES,
    a proof for n < PSI_13 (Sorenson and Webster, Math. Comp. 86 (2017));
    ValueError at or above PSI_13, where the test proves nothing."""
    if n >= PSI_13:
        raise ValueError(f"{n} is too large for a proven primality test (the bound is {PSI_13})")
    if n < 2 or any(n % b == 0 for b in MILLER_RABIN_BASES):
        return n in MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def euler_phi(n: int) -> int:
    out = 1
    for p, a in factorize(n).items():
        out *= (p - 1) * p ** (a - 1)
    return out


@cache
def divisors(n: int) -> tuple[int, ...]:
    ds = [1]
    for p, a in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(a + 1)]
    return tuple(sorted(ds))


@cache
def orders_with_phi_at_most(bound: int) -> tuple[int, ...]:
    """Every m >= 1 with phi(m) <= bound, ascending.

    There are finitely many, since phi(m) >= sqrt(m) for every m other than
    2 and 6.  Each is a product of prime powers q^k over distinct primes,
    whose factors q^(k-1) (q - 1) of phi(m) are at most bound, so only the
    primes q <= bound + 1 occur."""
    primes = [q for q in range(2, bound + 2) if is_prime(q)]
    out = []

    def walk(m, phi, start):  # extend m by powers of the primes from start on
        out.append(m)
        for i in range(start, len(primes)):
            mq, phiq = m * primes[i], phi * (primes[i] - 1)
            if phiq > bound:
                break
            while phiq <= bound:
                walk(mq, phiq, i + 1)
                mq, phiq = mq * primes[i], phiq * primes[i]

    if bound >= 1:
        walk(1, 1, 0)
    return tuple(sorted(out))


def prime_to_part(n: int, p: int) -> tuple[int, int]:
    """Split n as (prime-to-p part, p-power part)."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return n, p**a


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1."""
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    order = 1
    x = a % n
    while x != 1:
        x = x * a % n
        order += 1
    return order


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Integer polynomial exact division, dense ascending coefficients.
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return q


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def join(k: int, pieces) -> list[tuple]:
    """The finest partition of range(k) in which each piece lies inside one
    part, its parts sorted and listed by their least element: a union-find
    whose root is the least element of its part."""
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for piece in pieces:
        for a, b in zip(piece, piece[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    out: dict = {}
    for i in range(k):
        out.setdefault(find(i), []).append(i)
    return [tuple(part) for part in out.values()]


def permutation(images, items) -> tuple | None:
    """The permutation pi of range(len(items)) with images[i] = items[pi[i]]
    for every i, or None when there is none; the items must be distinct."""
    where = {item: i for i, item in enumerate(items)}
    perm = tuple(where.get(x, -1) for x in images)
    return perm if sorted(perm) == list(range(len(items))) else None


def orbit_walk(k: int, perms) -> list[tuple]:
    """Every x in range(k) once, orbit by orbit under the group that the
    permutations perms generate: (x, None, None) for the least element of
    its orbit, then (x, y, g) with x = perms[g][y] for a y listed before it.
    The orbits come in ascending order of their least elements."""
    out: list = []
    seen = [False] * k
    for rep in range(k):
        if seen[rep]:
            continue
        seen[rep] = True
        i = len(out)
        out.append((rep, None, None))
        while i < len(out):
            y = out[i][0]
            for g, perm in enumerate(perms):
                x = perm[y]
                if not seen[x]:
                    seen[x] = True
                    out.append((x, y, g))
            i += 1
    return out
