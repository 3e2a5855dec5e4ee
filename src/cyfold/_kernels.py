"""The sparse row-reduction kernel behind cyfold.exactlin.

A row is a pair ``(nums, den)``: a dict ``{column: integer numerator}`` that
holds the nonzero entries only, and one nonzero common denominator, so the
entry in column j is ``nums[j] / den``.  Over GF(p) the denominator is
always 1 and the numerators are residues mod p.  One code path serves both
fields: ``p == 0`` means Q, so the inner elimination loop is integer
arithmetic either way and entries become Fractions only on output.

``Echelon`` holds the pivot rows of a row space fully reduced: each pivot
row is 1 in its pivot column and 0 in every other pivot column.  Rows are
inserted one at a time; a new row is reduced against the pivot rows, its
leading column becomes a new pivot, and that pivot is eliminated from the
existing pivot rows.  The reduced row echelon form of a matrix is unique,
so the result matches any other exact elimination entry for entry.

Sparse rows go in first (the row ordering of Markowitz 1957 and of
LaMacchia-Odlyzko's structured Gaussian elimination, 1990), which keeps
fill-in low; the order does not change the result.
"""

from fractions import Fraction
from math import gcd, lcm

# Stamped into benchmark records; runs are only compared when it matches.
BACKEND = "python"

# The zero of Q that Field(0).zero() hands out.  Dense rows are mostly this
# one object, and an identity test skips it without calling Fraction.__bool__.
ZERO = Fraction(0)


def _from_nonzeros(nz, p):
    """(nums, den) of a list of (column, nonzero value) pairs."""
    if p:
        nums = {}
        for j, v in nz:
            v %= p
            if v:
                nums[j] = v
        return nums, 1
    if not nz:
        return {}, 1
    den = lcm(*[v.denominator for _, v in nz])
    if den == 1:
        return {j: v.numerator for j, v in nz}, 1
    return {j: v.numerator * (den // v.denominator) for j, v in nz}, den


def row_of(entries, p):
    """(nums, den) of a sparse vector {j: v} of Fractions (p == 0) or
    residues mod p; zero values are dropped."""
    return _from_nonzeros([(j, v) for j, v in entries.items() if v], p)


def sparse_row(values, p):
    """(nums, den) of a dense row of Fractions (p == 0) or residues mod p."""
    return _from_nonzeros([(j, v) for j, v in enumerate(values) if v is not ZERO and v], p)


def dense_row(row, ncols, p):
    """The dense list of a sparse row: Fractions over Q, residues mod p."""
    nums, den = row
    if p:
        out = [0] * ncols
        for j, v in nums.items():
            out[j] = v
        return out
    out = [ZERO] * ncols
    for j, v in nums.items():
        out[j] = Fraction(v, den)
    return out


def _lowest_terms(nums, den):
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {j: v // g for j, v in nums.items()}, den // g


def _eliminate(nums, den, prow, col, p):
    """(nums, den) minus its entry in ``col`` times ``prow``, whose entry in
    ``col`` is 1.  Updates ``nums`` in place when it can; returns the row."""
    pnums, pden = prow
    c = nums[col]
    if p:
        for j, w in pnums.items():
            v = (nums.get(j, 0) - c * w) % p
            if v:
                nums[j] = v
            else:
                del nums[j]
        return nums, 1
    if pden != 1:
        # r - (c/den)(pnums/pden) = (r*pden - c*pnums) / (den*pden)
        nums = {j: v * pden for j, v in nums.items()}
        den *= pden
    for j, w in pnums.items():
        v = nums.get(j, 0) - c * w
        if v:
            nums[j] = v
        else:
            del nums[j]
    if den != 1:
        return _lowest_terms(nums, den)
    return nums, den


class Echelon:
    """Fully reduced pivot rows of a row space over Q (p == 0) or GF(p)."""

    __slots__ = ("p", "rows")

    def __init__(self, p, rows=()):
        self.p = p
        self.rows = {}  # pivot column -> (nums, den), in insertion order
        for row in sorted(rows, key=lambda r: len(r[0])):
            self.insert(row)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """The row minus its components along the pivot rows.  Each pivot
        row is 0 in the other pivot columns, so one pass over the pivot
        columns in the row's support clears them all."""
        nums, den = row
        hits = [c for c in nums if c in self.rows]
        if not hits:
            return nums, den
        nums = dict(nums)
        for c in hits:
            nums, den = _eliminate(nums, den, self.rows[c], c, self.p)
        return nums, den

    def insert(self, row):
        """Add a row to the span; returns its new pivot column, or None
        when the row was already in the span."""
        nums, den = self.reduce(row)
        if not nums:
            return None
        p = self.p
        col = min(nums)
        lead = nums[col]
        if p:
            inv = pow(lead, p - 2, p)
            new = ({j: v * inv % p for j, v in nums.items()}, 1)
        else:
            # entries / (lead/den) = nums / lead
            new = _lowest_terms(nums, lead) if lead != 1 else (nums, 1)
        for c, other in self.rows.items():
            if col in other[0]:
                self.rows[c] = _eliminate(dict(other[0]), other[1], new, col, p)
        self.rows[col] = new
        return col

