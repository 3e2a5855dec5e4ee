import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyfold import is_prime
from cyfold.exactlin import (
    QQ,
    Field,
    IncrementalSpan,
    Matrix,
    PreparedSolver,
    SplitMix64,
    Subspace,
    cohomology_dim,
    combine_sparse,
    kernel_basis,
    random_vector,
    rank,
    rref,
    solve_linear,
    sparse_transpose,
)


def F(v, d=1):
    return Fraction(v, d)


def mat(data, field=QQ):
    return Matrix.from_rows([[field(v) for v in row] for row in data], field=field)


# adapters between the dense lists the tests write and the sparse vectors
# of the entry points


def sparse(values):
    return {j: v for j, v in enumerate(values) if v}


def dense(vec, n, field=QQ):
    out = [field.zero()] * n
    for j, v in vec.items():
        out[j] = v
    return out


def columns(m):
    """(sparse columns, row count, field) of a dense Matrix."""
    return [sparse(col) for col in m.transpose().data], m.rows, m.field


def solve(m, b):
    """solve_linear on a dense matrix and right-hand side, answered densely."""
    cols, n, field = columns(m)
    x = solve_linear(cols, n, sparse(b), field)
    return None if x is None else dense(x, m.cols, field)


def apply(m, x):
    """m x for a dense matrix and vector, densely."""
    cols, n, field = columns(m)
    return dense(combine_sparse(sparse(x), cols, field), n, field)


def test_rref_identity():
    m = Matrix.identity(2)
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 2
    assert res.pivots == [0, 1]


def test_rref_zero():
    m = Matrix.zero(3, 3)
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 0
    assert res.pivots == []


def test_rref_rank_one():
    m = mat([[1, 2], [2, 4]])
    res = rref(m)
    assert res.rank == 1
    assert res.reduced.data == [[F(1), F(2)], [F(0), F(0)]]


def test_rref_idempotent():
    m = mat([[2, 4, 1], [3, 1, 0], [5, 5, 1]])
    once = rref(m).reduced
    twice = rref(once).reduced
    assert once == twice


def test_kernel_identity():
    assert kernel_basis(*columns(Matrix.identity(3))).dim == 0


def test_kernel_line():
    ker = kernel_basis(*columns(mat([[1, 1]])))
    assert ker.dim == 1
    v = dense(ker.basis[0], 2)
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_kernel_full():
    ker = kernel_basis(*columns(Matrix.zero(2, 3)))
    assert ker.dim == 3


def test_rank_nullity():
    rng = SplitMix64(7)
    for _ in range(25):
        rows = rng.int_in(1, 5)
        cols = rng.int_in(1, 5)
        m = mat([[rng.int_in(-3, 3) for _ in range(cols)] for _ in range(rows)])
        res = rref(m)
        assert res.rank + kernel_basis(*columns(m)).dim == cols


def test_solve_identity():
    b = [F(3), F(-1)]
    assert solve(Matrix.identity(2), b) == b


def test_solve_underdetermined():
    x = solve(mat([[1, 1]]), [F(3)])
    assert x is not None and x[0] + x[1] == 3


def test_solve_inconsistent():
    assert solve(mat([[1], [0]]), [F(0), F(1)]) is None


def test_solve_iff_rank_condition():
    rng = SplitMix64(11)
    for _ in range(25):
        rows = rng.int_in(1, 4)
        cols = rng.int_in(1, 4)
        m = mat([[rng.int_in(-2, 2) for _ in range(cols)] for _ in range(rows)])
        b = [F(rng.int_in(-2, 2)) for _ in range(rows)]
        aug = Matrix.from_rows([m.data[i] + [b[i]] for i in range(rows)], cols + 1)
        solvable = rref(m).rank == rref(aug).rank
        assert (solve(m, b) is not None) == solvable


def test_random_vector_zero_space():
    space = Subspace(3, [])
    assert dense(random_vector(space, 1), 3) == [F(0)] * 3


def test_random_vector_deterministic():
    space = Subspace(2, [sparse(mat([[1, -1]]).data[0])])
    assert random_vector(space, 42) == random_vector(space, 42)
    v = dense(random_vector(space, 5), 2)
    assert v[0] == -v[1]


def test_modp_field():
    gf = Field(5)
    m = mat([[1, 2], [2, 4]], gf)
    res = rref(m)
    assert res.rank == 1
    ker = kernel_basis(*columns(m))
    assert ker.dim == 1
    x = solve(m, [gf(1), gf(2)])
    assert x is not None
    assert apply(m, x) == [1, 2]


def test_field_rejects_composite_char():
    with pytest.raises(ValueError):
        Field(6)


def test_is_prime_matches_trial_division_below_1e5():
    for n in range(-2, 10**5):
        want = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == want, n


# strong pseudoprimes to the bases 2; 2, 3; ...; 2..23, and Carmichael numbers
STRONG_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 3215031751,
                       2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161]


# products of two large primes, and a square
LARGE_COMPOSITES = [(2**31 - 1) * (2**32 - 5), (2**32 - 5) ** 2, (2**61 - 1) * 7]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL + LARGE_COMPOSITES)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)
    with pytest.raises(ValueError):
        Field(n)


@pytest.mark.parametrize("p", [2**31 - 1, 10**12 + 39, 2**61 - 1, 2**64 - 59])
def test_large_primes_are_fields_at_once(p):
    start = time.perf_counter()
    assert is_prime(p)
    assert Field(p).char == p
    assert time.perf_counter() - start < 0.5  # trial division took minutes at 2**61 - 1


def test_is_prime_refuses_what_it_cannot_decide():
    for n in (2**64, 2**64 + 13, 318665857834031151167461):
        with pytest.raises(ValueError):
            is_prime(n)
        with pytest.raises(ValueError):
            Field(n)


@pytest.mark.parametrize("p,den", [(2, 2), (3, 3), (3, -6), (13, 26)])
def test_field_rejects_denominator_divisible_by_p(p, den):
    with pytest.raises(ZeroDivisionError):
        Field(p)(1, den)


def test_field_inverts_denominator_prime_to_p():
    assert Field(3)(1, 2) == 2
    assert Field(13)(5, -4) == Field(13)(5) * Field(13).inv(Field(13)(-4)) % 13


def test_random_vector_of_zero_subspace_is_ambient_zero():
    for f in (QQ, Field(13)):
        assert dense(random_vector(Subspace(3, [], f), 7), 3, f) == [f.zero()] * 3


# -- differential tests against a naive dense Gauss-Jordan oracle ------------

GF13 = Field(13)


def oracle_rref(rows, ncols, field):
    """Textbook Gauss-Jordan on dense lists: (reduced rows, pivot columns)."""
    f = field
    work = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = f.inv(work[r][col])
        work[r] = [f.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [f.add(a, f.neg(f.mul(c, b))) for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def oracle_solution(rows, b, ncols, field):
    """The solution with free unknowns 0, or None when inconsistent."""
    red, pivots = oracle_rref([r + [v] for r, v in zip(rows, b)], ncols + 1, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    """Sparse matrices over Q or GF(13), often rank-deficient: some rows are
    combinations of others and some are zero."""
    field = draw(st.sampled_from([QQ, GF13]))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    if field.char:
        entry = st.integers(0, 12).map(field)
    else:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    cell = st.one_of(st.just(field.zero()), st.just(field.zero()), entry)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "combo", "zero"]))
        if kind == "combo" and len(rows) >= 2:
            a, b = draw(entry), draw(entry)
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(r1, r2)])
        elif kind == "zero":
            rows.append([field.zero()] * ncols)
        else:
            rows.append([draw(cell) for _ in range(ncols)])
    rhs = [[draw(cell) for _ in range(nrows)] for _ in range(3)]
    return field, Matrix(nrows, ncols, rows, field), rhs


def same(xs, ys):
    """Equal values and equal types: Fractions over Q, ints mod p."""
    return xs == ys and all(type(x) is type(y) for x, y in zip(xs, ys))


def nonzeros_only(vec):
    return all(v for v in vec.values())


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_oracle(case):
    field, m, _ = case
    res = rref(m)
    if m.rows == 0:
        assert res.rank == 0 and res.pivots == []
        return
    red, pivots = oracle_rref(m.data, m.cols, field)
    cols = columns(m)[0]
    assert res.pivots == pivots and res.rank == len(pivots) == rank(cols, field)
    assert rank([sparse(r) for r in m.data], field) == len(pivots)
    assert cohomology_dim(m.cols, cols, None, field) == m.cols - len(pivots)
    assert all(same(a, b) for a, b in zip(res.reduced.data, red))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_matches_oracle(case):
    field, m, _ = case
    red, pivots = oracle_rref(m.data, m.cols, field)
    free = [c for c in range(m.cols) if c not in pivots]
    want = []
    for c in free:
        vec = [field.zero()] * m.cols
        vec[c] = field.one()
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][c])
        want.append(vec)
    ker = kernel_basis(*columns(m))
    assert all(nonzeros_only(v) for v in ker.basis)
    got = [dense(v, m.cols, field) for v in ker.basis]
    assert len(got) == len(want) == ker.dim
    assert all(same(a, b) for a, b in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_solvers_match_oracle(case):
    field, m, rhs = case
    cols, n, _ = columns(m)
    solver = PreparedSolver(cols, n, field)
    probe = [field(k + 1) for k in range(m.cols)]
    for b in rhs + [apply(m, probe)]:
        want = oracle_solution(m.data, b, m.cols, field)
        for got in (solve_linear(cols, n, sparse(b), field), solver.solve(sparse(b))):
            if want is None:
                assert got is None
            else:
                assert got is not None and nonzeros_only(got)
                assert same(dense(got, m.cols, field), want)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_combine_sparse_matches_dense(case):
    """combine_sparse against the dense combination of the rows, value and
    type, over the rows of m and its transpose."""
    field, m, rhs = case
    rows = [sparse(r) for r in m.data]
    for coeffs in rhs:
        got = combine_sparse(sparse(coeffs), rows, field)
        want = [field.zero()] * m.cols
        for c, row in zip(coeffs, m.data):
            want = [field.add(w, field.mul(c, v)) for w, v in zip(want, row)]
        assert nonzeros_only(got) and same(dense(got, m.cols, field), want)
    assert sparse_transpose(columns(m)[0], m.rows) == rows


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_incremental_span_matches_oracle(case):
    field, m, rhs = case
    span = IncrementalSpan(field)
    added = []
    grew = []
    for row in m.data:
        before = len(oracle_rref(added, m.cols, field)[1])
        added.append(row)
        red, pivots = oracle_rref(added, m.cols, field)
        assert span.add(sparse(row)) == (len(pivots) > before)
        if len(pivots) > before:
            grew.append(sparse(row))
        assert span.dim == len(pivots)
    red, pivots = oracle_rref(added, m.cols, field)
    space = Subspace(m.cols, grew, field)
    assert space.dim == span.dim
    assert all(span.contains(sparse(r)) for r in red[: len(pivots)])
    for vec in rhs + [[field.one()] * m.cols]:
        vec = (vec + [field.zero()] * m.cols)[: m.cols]
        grows = len(oracle_rref(added + [vec], m.cols, field)[1]) > len(pivots)
        assert span.contains(sparse(vec)) == (not grows)
        assert space.contains(sparse(vec)) == (not grows)


P31 = 2**31 - 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=1, max_size=6)))
def test_full_rank_mod_p_implies_full_rank_over_q(rows):
    ncols = len(rows[0])
    full = min(len(rows), ncols)
    gfp = Field(P31)
    mod_rank = rank([sparse([gfp(v) for v in r]) for r in rows], gfp)
    q_rank = rank([sparse([Fraction(v) for v in r]) for r in rows])
    assert mod_rank <= q_rank
    if mod_rank == full:
        assert q_rank == full
