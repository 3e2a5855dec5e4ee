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
