"""Deterministic exact linear algebra over Q and prime fields.

Everything downstream (cohomology ranks, chain-map solving, resolutions)
funnels through the entry points here.  Arithmetic is exact: Fractions in
lowest terms over Q, int residues mod a prime otherwise.  A vector is
sparse, a dict {index: value} of its nonzero entries, and a matrix is the
list of its columns as such vectors together with its row count n: the
matrices met here are a few per cent nonzero, and the elimination behind
every entry point is sparse too (``_kernels``).  The dense ``Matrix``
serves only ``rref``, whose reduced rows ``quiveralg.build_algebra``
reads.  ``PreparedSolver`` factors a matrix
once for many right-hand sides and ``IncrementalSpan`` grows a span one
vector at a time; use them instead of calling ``solve_linear`` or ``rank``
in a loop over one matrix.  The seeded PRNG is splitmix64
(state += 0x9E3779B97F4B9C15; mixes 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) so every randomized search is reproducible.
"""

from fractions import Fraction

from . import is_prime
from ._kernels import ZERO, Echelon, dense_row, row_of, sparse_row


class Field:
    """Ground field: Field(0) is Q, Field(p) is GF(p) for p a prime below
    2**64."""

    def __init__(self, char=0):
        if char != 0 and not is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {char}")
        self.char = char

    def __call__(self, value, den=1):
        if self.char == 0:
            return Fraction(value, den)
        if den % self.char == 0:
            raise ZeroDivisionError(f"denominator {den} is 0 in {self!r}")
        return (value * pow(den, self.char - 2, self.char)) % self.char

    def zero(self):
        return ZERO if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def inv(self, a):
        if self.char == 0:
            return 1 / a
        return pow(a, self.char - 2, self.char)

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)


class Matrix:
    """Dense matrix over a Field; rows is a list of entry lists."""

    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, rows, cols, data, field=QQ):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.data = [list(r) for r in data]
        self.field = field

    @classmethod
    def zero(cls, rows, cols, field=QQ):
        z = field.zero()
        return cls(rows, cols, [[z] * cols for _ in range(rows)], field)

    @classmethod
    def identity(cls, n, field=QQ):
        m = cls.zero(n, n, field)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_rows(cls, data, cols=None, field=QQ):
        if not data:
            return cls(0, cols or 0, [], field)
        return cls(len(data), len(data[0]), data, field)

    def copy(self):
        return Matrix(self.rows, self.cols, self.data, self.field)

    def transpose(self):
        data = [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)]
        return Matrix(self.cols, self.rows, data, self.field)

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        f = self.field
        out = Matrix.zero(self.rows, other.cols, f)
        for i in range(self.rows):
            row = self.data[i]
            for k in range(self.cols):
                a = row[k]
                if a == 0:
                    continue
                orow = other.data[k]
                trow = out.data[i]
                for j in range(other.cols):
                    b = orow[j]
                    if b != 0:
                        trow[j] = f.add(trow[j], f.mul(a, b))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


class RrefResult:
    __slots__ = ("reduced", "rank", "pivots")

    def __init__(self, reduced, rank, pivots):
        self.reduced = reduced
        self.rank = rank
        self.pivots = pivots


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form with rank and pivot columns."""
    if m.rows == 0 or m.cols == 0:
        return RrefResult(m.copy(), 0, [])
    p = m.field.char
    ech = Echelon(p, [sparse_row(r, p) for r in m.data])
    pivots = sorted(ech.rows)
    data = [dense_row(ech.rows[c], m.cols, p) for c in pivots]
    zero = m.field.zero()
    data += [[zero] * m.cols for _ in range(m.rows - len(pivots))]
    return RrefResult(Matrix(m.rows, m.cols, data, m.field), len(pivots), pivots)


def combine_sparse(coeffs, rows, field=QQ):
    """sum_i coeffs[i] * rows[i] for sparse vectors: the work follows the
    support of coeffs and of the rows it selects."""
    p = field.char
    out = {}
    for i, c in coeffs.items():
        for j, v in rows[i].items():
            out[j] = out.get(j, 0) + c * v
    if p:
        return {j: v % p for j, v in out.items() if v % p}
    return {j: v for j, v in out.items() if v}


def sparse_transpose(vectors, n):
    """The n rows, as sparse vectors, of the matrix with these columns."""
    rows = [{} for _ in range(n)]
    for c, vec in enumerate(vectors):
        for j, v in vec.items():
            rows[j][c] = v
    return rows


class Subspace:
    """Subspace of field^ambient_dim spanned by independent sparse vectors."""

    __slots__ = ("ambient_dim", "basis", "field")

    def __init__(self, ambient_dim, basis, field=QQ):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.field = field

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        p = self.field.char
        ech = Echelon(p, [row_of(b, p) for b in self.basis])
        return not ech.reduce(row_of(vec, p))[0]


def rank(vectors, field=QQ) -> int:
    """Dimension of the span of the sparse vectors: the rank of the matrix
    with them as columns, or as rows."""
    p = field.char
    return Echelon(p, [row_of(v, p) for v in vectors]).rank


def cohomology_dim(n, d_out, d_in, field=QQ):
    """dim ker(d_out) - dim im(d_in) at a term of dimension n, for maps
    given by their sparse columns; None stands for a zero map."""
    return n - (rank(d_out, field) if d_out else 0) - (rank(d_in, field) if d_in else 0)


def kernel_basis(columns, n, field=QQ) -> Subspace:
    """The relations {x : sum_j x_j columns[j] = 0} among the columns of
    an n-row matrix, one basis vector per free column c: 1 at c, minus
    the reduced rows' entries in c at the pivots."""
    p = field.char
    ech = Echelon(p, [row_of(r, p) for r in sparse_transpose(columns, n) if r])
    basis = {c: {c: field.one()} for c in range(len(columns)) if c not in ech.rows}
    for pc, (nums, den) in ech.rows.items():
        # a reduced row is 0 in the other pivot columns
        for c, v in nums.items():
            if c != pc:
                basis[c][pc] = -v % p if p else Fraction(-v, den)
    return Subspace(len(columns), list(basis.values()), field)


def solve_linear(columns, n, b, field=QQ):
    """Some x with m x = b for the n-row matrix m with these columns, or
    None when b is outside the column space; b and x are sparse and the
    free unknowns are 0.  To solve many systems with one m, use
    PreparedSolver."""
    p = field.char
    k = len(columns)
    rows = sparse_transpose(columns, n)
    for i, v in b.items():
        rows[i][k] = v
    ech = Echelon(p, [row_of(r, p) for r in rows if r])
    if k in ech.rows:
        return None
    x = {}
    for pc in sorted(ech.rows):
        nums, den = ech.rows[pc]
        if nums.get(k):
            x[pc] = nums[k] if p else Fraction(nums[k], den)
    return x


_SM_GAMMA = 0x9E3779B97F4B9C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator; the only randomness source in the package."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + _SM_GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK
        return z ^ (z >> 31)

    def int_in(self, lo, hi):
        """Uniform-enough integer in [lo, hi]."""
        return lo + self.next_u64() % (hi - lo + 1)


def derive_seed(seed, index):
    rng = SplitMix64(seed)
    for _ in range(index + 1):
        val = rng.next_u64()
    return val


def random_vector(space: Subspace, seed):
    """Deterministic random element of the subspace, as a sparse vector.

    Coefficients over the basis are drawn from {-10..10}; the zero
    subspace yields the zero vector.
    """
    f = space.field
    rng = SplitMix64(seed)
    coeffs = {k: f(rng.int_in(-10, 10)) for k in range(space.dim)}
    return combine_sparse(coeffs, space.basis, f)


class PreparedSolver:
    """Factor a matrix once, then solve m x = b for many right-hand sides.

    m is the n-row matrix with the given sparse columns, and b and x are
    sparse vectors.  Row-reduces [m | I] and keeps only the nonzeros of
    the right block, by column.  A row with its pivot in m gives x at that
    pivot as its dot product with b; the rows without one span the left
    null space of m, so b is consistent iff each of them is orthogonal to
    b.  A solve touches only the columns in b's support.  The answer is
    solve_linear's.
    """

    def __init__(self, columns, n, field=QQ):
        p = field.char
        k = len(columns)
        self.field = field
        rows = [row_of(r, p) for r in sparse_transpose(columns, n)]
        for i, (nums, den) in enumerate(rows):
            nums[k + i] = den  # the identity entry, den / den = 1
        ech = Echelon(p, rows)
        self.pivots = [c for c in sorted(ech.rows) if c < k]
        self.rank = len(self.pivots)
        # slots 0..rank-1 are the pivot rows, the rest the left null space
        order = self.pivots + sorted(c for c in ech.rows if c >= k)
        self._dens = [ech.rows[c][1] for c in order]
        self._cols = {}  # entry j of b -> [(slot, numerator)]
        for slot, c in enumerate(order):
            for j, v in ech.rows[c][0].items():
                if j >= k:
                    self._cols.setdefault(j - k, []).append((slot, v))

    def solve(self, b):
        """m x = b: a sparse x {column: value}, or None when b is outside
        the column space."""
        p = self.field.char
        bnums, bden = row_of(b, p)
        acc = {}
        for j, bv in bnums.items():
            for slot, v in self._cols.get(j, ()):
                acc[slot] = acc.get(slot, 0) + v * bv
        x = {}
        for slot, a in acc.items():
            if p:
                a %= p
            if not a:
                continue
            if slot >= self.rank:
                return None
            x[self.pivots[slot]] = a if p else Fraction(a, self._dens[slot] * bden)
        return x


class IncrementalSpan:
    """Span with one-at-a-time insertion of sparse vectors; sparse, fully
    reduced rows make a membership test cost one pass over the vector's
    support."""

    def __init__(self, field=QQ):
        self.field = field
        self._echelon = Echelon(field.char)

    @property
    def dim(self):
        return self._echelon.rank

    def contains(self, vec):
        return not self._echelon.reduce(row_of(vec, self.field.char))[0]

    def add(self, vec):
        """Insert if independent; returns True when the span grew."""
        return self._echelon.insert(row_of(vec, self.field.char)) is not None
