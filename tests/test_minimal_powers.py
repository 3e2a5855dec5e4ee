"""Minimal tensor powers M_l = minimize(M_(l-1) (x)_A U), minimize's
transfer maps, and the completion algebra multiplied through them, each
checked against the flattened tensor powers U^(x)l as the oracle."""

import pytest

from cyfold.bimodcx import (
    ProjBimodComplex,
    ProjBimodSummand,
    _by_source,
    compose_entries,
    entry_add,
    identity_map,
    is_quasi_iso,
    minimize,
    resolution_of_algebra,
    resolve_bimodule,
    standard_hereditary_resolution,
    tensor_over_A,
    tensor_power,
)
from cyfold.completion import (
    TruncatedTensorAlgebra,
    _express_with_solver,
    _h0_corner_reps,
    completion,
    completion_algebra,
    corner_restricted_cohomology,
    matrix_root_pair,
    polynomial_algebra,
)
from cyfold.exactlin import QQ, Field
from cyfold.presets import (
    a2n_algebra,
    a2n_root,
    a4_mod_longest_algebra,
    beilinson_algebra,
    kronecker_algebra,
    kronecker_root,
)
from cyfold.quiveralg import Arrow, Quiver, Relation, build_algebra

FIELDS = [QQ, Field(2**31 - 1)]


def _roots(field):
    """(name, algebra, U, e) for the four Kronecker roots, the A_2 and A_4
    roots with eps = +-1 and the Beilinson d = 1 root."""
    kron = kronecker_algebra(field)
    for s in (0, 1):
        for eps in (1, -1):
            yield f"kronecker s={s} eps={eps}", kron, kronecker_root(kron, s, eps), [0]
    for n in (1, 2):
        alg = a2n_algebra(n, field)
        for eps in (1, -1):
            u = a2n_root(alg, n, d=1, eps=eps)
            yield f"A_{2 * n} eps={eps}", alg, u, list(range(1, n + 1))
    bei = beilinson_algebra(1, field)
    yield "beilinson d=1", bei, kronecker_root(bei, 0, 1, xname="x0_0", yname="x1_0"), [0]


def flat_table(u, e_vertices, cutoff):
    return {
        (p, l): d
        for l in range(1, cutoff + 1)
        for p, d in corner_restricted_cohomology(tensor_power(u, l), e_vertices).items()
    }


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_iterated_tables_match_flattened(field):
    for name, alg, u, e in _roots(field):
        table = completion(alg, u, e, 8).table
        assert {k: d for k, d in table.items() if k[1]} == flat_table(u, e, 8), name


def _compose(g, f):
    """g o f for degree-0 chain maps, entries keyed (target, source)."""
    alg = f.source.base
    out = {}
    for p, comps in f.components.items():
        g_out = _by_source(g.components.get(p, {}))
        for (m, s), e0 in comps.items():
            for t, e1 in g_out.get(m, ()):
                entry_add(out.setdefault(p, {}).setdefault((t, s), {}),
                          compose_entries(alg, e1, e0), alg.field)
    return {p: {k: e for k, e in c.items() if e} for p, c in out.items()}


def _check_transfer(x, m, iota, pi):
    assert _compose(pi, iota) == identity_map(m).components
    assert iota.is_closed() and pi.is_closed()
    assert is_quasi_iso(iota)
    plain = minimize(x)  # asking for the maps leaves the complex as it is
    assert m.diff == plain.diff
    assert _summands(m) == _summands(plain)


def _summands(cx):
    return {p: [(s.left, s.right, s.adeg, s.trace) for s in ss] for p, ss in cx.terms.items()}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_transfer_maps_kronecker_powers(field):
    kron = kronecker_algebra(field)
    for s in (0, 1):
        for eps in (1, -1):
            ta = TruncatedTensorAlgebra(kron, kronecker_root(kron, s, eps), 5,
                                        standard_hereditary_resolution(kron), transfer=True)
            for l, (x, iota, pi) in ta.transfer.items():
                _check_transfer(x, ta.components[l], iota, pi)


def test_transfer_maps_with_relations():
    alg = a4_mod_longest_algebra()
    res = resolution_of_algebra(alg)
    x = tensor_over_A(tensor_over_A(res, res), res)
    m = minimize(x, transfer=True)
    iota, pi = m.transfer
    assert m.total_summands() < x.total_summands()
    _check_transfer(x, m, iota, pi)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_transfer_maps_where_a_corner_is_not_the_unit(field):
    """Over k[x]/(x^2) the corner of Ae_0 (x) e_0A is 4-dimensional, so the
    pivot (1 + x) (x) 1 is inverted by solving in the corner, not as 1/c."""
    quiver = Quiver([0], [Arrow("x", 0, 0, 0, 0)])
    alg = build_algebra(quiver, [Relation([(1, ("x", "x"))])], 2, field)
    e = alg.idempotent_index(0)
    xi = next(b.index for b in alg.basis if b.path == ("x",))
    one = field.one()
    terms = {p: [ProjBimodSummand(0, 0, p) for _ in range(n)] for p, n in ((0, 1), (1, 2))}
    x = ProjBimodComplex(alg, terms, {0: {(0, 0): {(e, e): one, (xi, e): one},
                                          (1, 0): {(xi, e): one}}})
    assert len(x._hom_basis(terms[0][0], terms[0][0])) == 4
    m = minimize(x, transfer=True)
    assert m.total_summands() == 1
    _check_transfer(x, m, *m.transfer)


def flat_products(alg, u, e_vertices, cutoff):
    """The concatenation product H^0(e U^l e) x H^0(e U^m e) -> H^0(e U^(l+m) e)
    on flattened powers, in completion_algebra's basis conventions:
    {((l1, j1), (l2, j2)): {j3: coeff}} for l1, l2 >= 1."""
    f = alg.field
    powers = {l: tensor_power(u, l) for l in range(1, cutoff + 1)}
    h0 = {l: _h0_corner_reps(x, e_vertices) for l, x in powers.items()}
    out = {}
    for l1 in range(1, cutoff + 1):
        for l2 in range(1, cutoff + 1 - l1):
            (reps1, coords1, _), (reps2, coords2, _) = h0[l1], h0[l2]
            reps3, coords3, solver3 = h0[l1 + l2]
            pos3 = {c: i for i, c in enumerate(coords3)}
            traces = powers[l1 + l2].trace_index()
            for j1, (v1, _) in enumerate(reps1):
                for j2, (v2, _) in enumerate(reps2):
                    vec = {}
                    for i1, c1 in sorted(v1.items()):
                        s1, a1, b1 = coords1[i1]
                        ss1, ms1 = powers[l1].summands(0)[s1].trace
                        for i2, c2 in sorted(v2.items()):
                            s2, a2, b2 = coords2[i2]
                            ss2, ms2 = powers[l2].summands(0)[s2].trace
                            for mid, cm in alg.mult(b1, a2).items():
                                _, t3 = traces[(ss1 + ss2, ms1 + (mid,) + ms2)]
                                j = pos3[(t3, a1, b2)]
                                vec[j] = f.add(vec.get(j, f.zero()), f.mul(f.mul(c1, c2), cm))
                    vec = {j: c for j, c in vec.items() if c}
                    entry = _express_with_solver(solver3, len(reps3), vec)
                    if entry:
                        out[((l1, j1), (l2, j2))] = entry
    return out


def _commutation(products, dim1):
    """For degree-1 basis pairs: +1 when xy = yx, -1 when xy = -yx, else 0."""
    out = {}
    for i in range(dim1):
        for j in range(dim1):
            xy = products.get(((1, i), (1, j)), {})
            yx = products.get(((1, j), (1, i)), {})
            out[(i, j)] = 1 if xy == yx else -1 if xy == {k: -c for k, c in yx.items()} else 0
    return out


@pytest.mark.parametrize("e_vertices", [[0], [0, 1]])
@pytest.mark.parametrize("eps", [1, -1])
def test_completion_algebra_matches_flattened_product(eps, e_vertices):
    kron = kronecker_algebra()
    u = kronecker_root(kron, 0, eps)
    cutoff = 6
    pi = completion_algebra(kron, u, e_vertices, cutoff,
                            resolution=standard_hereditary_resolution(kron))
    oracle = flat_products(kron, u, e_vertices, cutoff)
    products = {k: v for k, v in pi.mult.items() if k[0][0] and k[1][0]}
    assert pi.dims() == {l: (l + 1) * (1 if e_vertices == [0] else 4)
                         for l in range(cutoff + 1)}
    assert pi.check_associativity(6 if e_vertices == [0] else 3)
    if eps == 1:
        assert products == oracle
    else:
        # representatives of degree >= 2 differ from the flattened ones
        assert _commutation(products, pi.dim(1)) == _commutation(oracle, pi.dim(1))
        if e_vertices == [0]:
            assert _commutation(products, 2)[(0, 1)] == -1


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_completion_algebra_with_relations_matches_flattened_product(field):
    """k[x0, x1, x2] -> (3-vertex algebra with commutativity relations, U, e):
    the completion is k[x0, x1, x2] again, with the flattened constants."""
    A, U, e = matrix_root_pair(polynomial_algebra(["x0", "x1", "x2"], 4, field), 3)
    u = resolve_bimodule(U, len_bound=6)
    pi = completion_algebra(A, u, e, 3)
    assert pi.dims() == {0: 1, 1: 3, 2: 6, 3: 10}
    assert pi.check_associativity(3)
    products = {k: v for k, v in pi.mult.items() if k[0][0] and k[1][0]}
    assert products == flat_products(A, u, e, 3)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_completion_algebra_over_every_vertex_of_the_p2_pair(field):
    """The k[x0, x1, x2] pair completed over all three vertices: dims
    sum over r, c < 3 of C(l + r - c + 2, 2), and associative.  The inner
    products of m_{l1,l2} have left components that are not idempotents
    here, which the one-vertex instances above never reach."""
    A, U, _ = matrix_root_pair(polynomial_algebra(["x0", "x1", "x2"], 4, field), 3)
    pi = completion_algebra(A, resolve_bimodule(U, len_bound=8), A.vertices, 3)
    assert pi.dims() == {0: 15, 1: 33, 2: 60, 3: 96}
    assert pi.check_associativity(3)
