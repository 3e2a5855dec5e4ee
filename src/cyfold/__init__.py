"""cyfold: exact computations around roots of shifted inverse dualizing
bimodules on quiver algebras.

Subpackages cover exact linear algebra over Q and prime fields, path-basis
quiver algebras, bounded complexes of projective bimodules, root-pair and
cyclic-invariance checks, Adams-graded completions with Segre/Veronese
constructions, and translation-quiver combinatorics for folded cluster
categories.
"""

__version__ = "0.1.0"


class Inconclusive(Exception):
    """A computation stopped at a bound before it reached a verdict; the
    CLI reports it with exit code 2."""


# The primes up to 37 as Miller-Rabin bases decide every n below
# 3.18 * 10**23 (Jiang and Deng 2014), so every n below 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 2**64


def is_prime(n):
    """Whether the integer n is prime, for n < 2**64: trial division by
    the twelve bases, then deterministic Miller-Rabin.  Raises ValueError
    from 2**64 on, where the bases are not known to decide.  Lives here,
    not in exactlin, so that the CLI can check --field without importing
    the linear algebra."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality of {n} is not decided: it must be below 2**64")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
