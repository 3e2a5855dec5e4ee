import hashlib
from fractions import Fraction

import pytest

from cyfold.bimodcx import (
    find_quasi_iso,
    relabel_complex,
    resolve_bimodule,
    standard_hereditary_resolution,
)
from cyfold.completion import (
    TruncatedTensorAlgebra,
    DgPathAlgebra,
    InsufficientTruncation,
    NotLocallyFinite,
    a_segre,
    compare_presentation,
    completion,
    completion_algebra,
    dg_path_cohomology,
    free_graded_algebra,
    graded_gorenstein_check,
    graded_quotient_dims,
    matrix_root_pair,
    polynomial_algebra,
    quasi_veronese,
    segre,
    veronese,
)
from cyfold.presets import (
    a2n_algebra,
    a2n_completion_presentation,
    a2n_root,
    kronecker_algebra,
    kronecker_root,
    linear_an_algebra,
    sigma_presentation_quiver,
)
from cyfold.exactlin import QQ, Field
from cyfold.quiveralg import Arrow, Quiver

FIELDS = [QQ, Field(2**31 - 1)]


@pytest.fixture(scope="module")
def kron():
    return kronecker_algebra()


@pytest.fixture(scope="module")
def pA(kron):
    return standard_hereditary_resolution(kron)


@pytest.fixture(scope="module")
def u01(kron):
    return kronecker_root(kron, 0, 1)


def test_tensor_algebra_dims(kron, pA, u01):
    """Total dims match the path-count oracle of the tensor-algebra quiver
    (back arrow t, relation utv = vtu): 4, 8, 12, 16."""
    ta = TruncatedTensorAlgebra(kron, u01, 3, resolution=pA)
    totals = {}
    for (p, l), d in ta.table().items():
        totals[l] = totals.get(l, 0) + d
        assert p == 0
    q, rels = sigma_presentation_quiver()
    oracle = graded_quotient_dims(q, rels, 3)
    assert totals == oracle
    assert totals == {0: 4, 1: 8, 2: 12, 3: 16}


def test_tensor_algebra_trivial_cutoff(kron, pA, u01):
    ta = TruncatedTensorAlgebra(kron, u01, 0, resolution=pA)
    assert set(l for (_, l) in ta.table()) == {0}


def test_completion_hilbert_series(kron, pA, u01):
    """e = {0} completion of the Kronecker root is k[x, y]: dim l+1."""
    data = completion(kron, u01, [0], 6, resolution=pA)
    assert data.table == {(0, l): l + 1 for l in range(7)}
    assert data.concentrated_in_degree_zero()


def test_completion_adams_zero_is_corner(kron, pA, u01):
    data = completion(kron, u01, [0, 1], 2, resolution=pA)
    assert data.table[(0, 0)] == 4  # eAe = A for e = all vertices


def test_dynkin_completion_not_rep_infinite():
    a2 = linear_an_algebra(2)
    from cyfold.bimodcx import dual_regular_bimodule

    u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
    data = completion(a2, u, [1, 2], 3)
    assert not data.concentrated_in_degree_zero()


def test_rep_infinite_vacuous_window(kron, pA, u01):
    data = completion(kron, u01, [0], 0, resolution=pA)
    assert data.concentrated_in_degree_zero()


def test_dg_path_cohomology_free_loop():
    # k[t] with one loop of bidegree (-3, 2): dim 1 in bidegrees (-3m, 2m)
    q = Quiver(["v"], [Arrow("t", "v", "v", cdeg=-3, adeg=2)])
    p = DgPathAlgebra(q, {})
    table = dg_path_cohomology(p, 6)
    assert table == {(0, 0): 1, (-3, 2): 1, (-6, 4): 1, (-9, 6): 1}


def test_dg_path_cohomology_kills_square():
    pres = a2n_completion_presentation(1, 1, 1)
    table = dg_path_cohomology(pres, 2)
    assert table == {(0, 0): 1, (-1, 1): 1}


def test_dg_path_not_locally_finite():
    q = Quiver(["v"], [Arrow("l", "v", "v", cdeg=0, adeg=0)])
    with pytest.raises(NotLocallyFinite):
        dg_path_cohomology(DgPathAlgebra(q, {}), 2)


def test_zero_arrow_quiver():
    q = Quiver(["v", "w"], [])
    table = dg_path_cohomology(DgPathAlgebra(q, {}), 3)
    assert table == {(0, 0): 2}


@pytest.mark.parametrize("n", [1, 2])
def test_presentation_comparison(n, request):
    alg = a2n_algebra(n)
    res = standard_hereditary_resolution(alg)
    u = a2n_root(alg, n, d=1, eps=1)
    data = completion(alg, u, list(range(1, n + 1)), 3, resolution=res)
    pres_table = dg_path_cohomology(a2n_completion_presentation(n, 1, 1), 3)
    assert compare_presentation(data.table, pres_table, 3)


def test_presentation_perturbation_detected():
    """Dropping the b^2 term changes ranks and is caught; the bare sign
    flip is rank-invisible and matches (documented companion fact)."""
    alg = a2n_algebra(2)
    res = standard_hereditary_resolution(alg)
    u = a2n_root(alg, 2, d=1, eps=1)
    data = completion(alg, u, [1, 2], 3, resolution=res)
    dropped = dg_path_cohomology(a2n_completion_presentation(2, 1, 0), 3)
    assert not compare_presentation(data.table, dropped, 3)
    flipped = dg_path_cohomology(a2n_completion_presentation(2, 1, -1), 3)
    assert compare_presentation(data.table, flipped, 3)


def test_completion_algebra_is_polynomial(kron, pA, u01):
    pi = completion_algebra(kron, u01, [0], 4, resolution=pA)
    kxy = polynomial_algebra(["x", "y"], 4)
    assert pi.dims() == kxy.dims()
    assert pi.check_associativity(3)


def test_veronese_of_sigma_is_preprojective(kron, pA, u01):
    """Second Veronese of the tensor algebra matches 2-preprojective dims,
    independently computed from Coxeter matrix powers."""
    sig = completion_algebra(kron, u01, [0, 1], 4, resolution=pA)
    ver = veronese(sig, 2, 2)
    assert ver.dims() == {i: _preprojective_dim(i) for i in range(3)}


def _preprojective_dim(i):
    # dim Hom(A, tau^{-i} A) over the Kronecker algebra via dim vectors:
    # tau^{-i} P_0 = (2i+1, 2i), tau^{-i} P_1 = (2i+2, 2i+1); preprojective
    # modules have no higher Ext against projectives, so Hom dims are the
    # total dimensions
    return (2 * i + 1 + 2 * i) + (2 * i + 2 + 2 * i + 1)


def test_segre_with_polynomial(kron, pA, u01):
    sig = completion_algebra(kron, u01, [0, 1], 4, resolution=pA)
    kxy = polynomial_algebra(["x", "y"], 4)
    seg = segre(kxy, sig, 4)
    # (l+1) * 4(l+1), the crepant-resolution quiver dims
    assert seg.dims() == {l: (l + 1) * 4 * (l + 1) for l in range(5)}
    assert seg.check_associativity(2)


def test_segre_unit(kron, pA, u01):
    sig = completion_algebra(kron, u01, [0, 1], 3, resolution=pA)
    unit = _degreewise_unit(3)
    seg = segre(sig, unit, 3)
    assert seg.dims() == sig.dims()


def _degreewise_unit(cutoff):
    # k[t] with deg t = 1 collapses Segre to the identity on dims
    return polynomial_algebra(["t"], cutoff)


def test_veronese_identity(kron, pA, u01):
    sig = completion_algebra(kron, u01, [0, 1], 3, resolution=pA)
    assert veronese(sig, 1, 3).dims() == sig.dims()
    assert quasi_veronese(sig, 1, 3).dims() == sig.dims()


def test_a_segre_with_kt_matches_quasi_veronese():
    # quasi_veronese(kxy, 2, 4) reads kxy up to degree 2 * 4 + 1
    kxy = polynomial_algebra(["x", "y"], 9)
    kt = _adams_a_polynomial(2, 4)
    left = a_segre(kt, kxy, 2, 4)
    # the a-Segre with k[t] (deg t = a) concentrates in multiples of a;
    # dividing the grading is the quasi-Veronese
    qv = quasi_veronese(kxy, 2, 4)
    left_dims = {l: d for l, d in left.dims().items()}
    # nonzero degrees of `left` are the even ones, matching qv after division
    assert all(left_dims.get(2 * i + 1, 0) == 0 for i in range(2))
    assert {i: left_dims.get(2 * i, 0) for i in range(3)} == {
        i: qv.dims()[i] for i in range(3)
    }


def _adams_a_polynomial(a, cutoff):
    # k[t] with Adams degree of t equal to a
    from cyfold.completion import GradedAlgebraData
    from cyfold.exactlin import QQ

    basis = {}
    for l in range(cutoff + 1):
        basis[l] = [("t^%d" % (l // a), "*", "*")] if l % a == 0 else []
    mult = {}
    for l1 in range(cutoff + 1):
        for l2 in range(cutoff + 1 - l1):
            if basis[l1] and basis[l2]:
                mult[((l1, 0), (l2, 0))] = {0: QQ(1)}
    return GradedAlgebraData(["*"], cutoff, basis, mult, {"*": 0}, QQ)


def test_gorenstein_parameters():
    assert graded_gorenstein_check(polynomial_algebra(["x", "y"], 6), 2)[0] == "yes"
    assert graded_gorenstein_check(polynomial_algebra(["x", "y"], 6), 3)[0] == "no"
    assert (
        graded_gorenstein_check(polynomial_algebra(["x0", "x1", "x2"], 6), 3)[0]
        == "yes"
    )


def test_gorenstein_window_short_of_minus_a_is_inconclusive():
    # k[x0, x1, x2] has its last syzygy at shift 3, outside a window of 2
    verdict, detail = graded_gorenstein_check(polynomial_algebra(["x0", "x1", "x2"], 2), 3)
    assert verdict == "inconclusive", detail


def test_constructions_refuse_degrees_past_the_cutoff(kron, pA, u01):
    kxy = polynomial_algebra(["x", "y"], 4)
    with pytest.raises(InsufficientTruncation):
        quasi_veronese(kxy, 2, 2)  # needs degree 5
    with pytest.raises(InsufficientTruncation):
        veronese(kxy, 2, 3)  # needs degree 6
    with pytest.raises(InsufficientTruncation):
        a_segre(kxy, kxy, 2, 4)  # needs degree 5 of the second factor
    with pytest.raises(InsufficientTruncation):
        segre(kxy, polynomial_algebra(["t"], 3), 4)
    assert quasi_veronese(kxy, 2, 1).dims() == {0: 4, 1: 12}
    assert veronese(kxy, 2, 2).dims() == {0: 1, 1: 3, 2: 5}
    # the quasi-Veronese of a cutoff-10 completion once read as "no"
    pi = completion_algebra(kron, u01, [0], 10, resolution=pA)
    with pytest.raises(InsufficientTruncation):
        quasi_veronese(pi, 2, 5)


def test_gorenstein_free_algebra_not_parameter_one():
    # Ext^1(k, Gamma) over the free algebra spreads over all Adams degrees
    # >= -1, so no Gorenstein parameter exists
    verdict, detail = graded_gorenstein_check(free_graded_algebra(["x", "y"], 5), 1)
    assert verdict == "no"


def test_gorenstein_quasi_veronese(kron, pA, u01):
    pi = completion_algebra(kron, u01, [0], 8, resolution=pA)
    qv = quasi_veronese(pi, 2, 3)
    verdict, detail = graded_gorenstein_check(qv, 1)
    assert verdict == "yes", detail


def test_matrix_root_pair_shape_and_roundtrip(kron):
    kxy = polynomial_algebra(["x", "y"], 4)
    A, U, e = matrix_root_pair(kxy, 2)
    assert A.dim == 4 and U.dim == 8 and e == [(0, "*")]
    assert A.check_associativity() and U.check_bimodule()
    res_u = resolve_bimodule(U, len_bound=6)
    kr_idx = {repr(b): b.index for b in kron.basis}
    basis_map = {0: kr_idx["e_0"], 1: kr_idx["x"], 2: kr_idx["y"], 3: kr_idx["e_1"]}
    vertex_map = {(0, "*"): 0, (1, "*"): 1}
    for (i, j), entry in A._mult.items():
        assert {basis_map[k]: c for k, c in entry.items()} == kron.mult(
            basis_map[i], basis_map[j]
        )
    u_prime = relabel_complex(res_u, kron, vertex_map, basis_map)
    assert u_prime.validate() == []
    fmap = find_quasi_iso(u_prime, kronecker_root(kron, 0, 1), 0, trials=16, seed=3)
    assert fmap is not None
    data = completion(A, res_u, e, 4)
    assert data.table == {(0, l): l + 1 for l in range(5)}


def test_matrix_root_pair_a1():
    kxy = polynomial_algebra(["x", "y"], 3)
    A, U, e = matrix_root_pair(kxy, 1)
    assert A.dim == 1
    assert U.dim == 2  # Pi_1 as a bimodule over Pi_0
    assert e == [(0, "*")]


def test_matrix_root_pair_semisimple():
    # Pi = k in degree 0 only: A = k x k, U the off-diagonal nilpotent
    k1 = polynomial_algebra([], 2)
    A, U, e = matrix_root_pair(k1, 2)
    assert A.dim == 2
    assert U.dim == 1  # only the Pi_0 block at (r, c) = (1, 0) survives


def test_matrix_root_pair_insufficient():
    with pytest.raises(InsufficientTruncation):
        matrix_root_pair(polynomial_algebra(["x"], 1), 2)


def test_tensor_algebra_resource_limit(kron, pA, u01):
    from cyfold.completion import ResourceLimit

    with pytest.raises(ResourceLimit) as err:
        TruncatedTensorAlgebra(kron, u01, 8, resolution=pA, summand_limit=10)
    assert (0, 0) in err.value.partial


def test_ordinary_completion_dims(kron, pA):
    """a = 1 with U the shifted dual resolution: the ordinary completion,
    whose degree-l part is Hom(A, tau^{-l} A) = 8l + 4 over the Kronecker
    algebra."""
    from cyfold.bimodcx import bimodule_dual, shift

    u = shift(bimodule_dual(pA), 1)
    data = completion(kron, u, [0, 1], 2)
    assert data.table == {(0, 0): 4, (0, 1): 12, (0, 2): 20}


def _coeffs(entry):
    return [(k, type(c).__name__, c) for k, c in entry.items()]


def _graded_dump(g):
    """Objects as the sorted basis indices of their idempotents, each
    degree's basis with source and target written the same way, then every
    product in dict order with the type of each coefficient."""
    obj = g.idem
    lines = [f"O {sorted(obj.values())!r}"]
    for l, items in sorted(g.basis.items()):
        for i, (label, src, tgt) in enumerate(items):
            lines.append(f"B {l} {i} {label} {obj[src]} {obj[tgt]}")
    for key, entry in g.mult.items():
        lines.append(f"M {key!r} {_coeffs(entry)!r}")
    return "\n".join(lines).encode()


def _root_pair_dump(A, U, e):
    """A's basis (repr, source, target) and structure constants, U's action
    rows and the vertex list e, dicts in order with coefficient types."""
    lines = [f"B {b.index} {b!r} {b.source!r} {b.target!r}" for b in A.basis]
    lines += [f"M {key!r} {_coeffs(entry)!r}" for key, entry in A._mult.items()]
    for side, action in (("L", U.left_action), ("R", U.right_action)):
        for k, rows in enumerate(action):
            lines += [f"{side} {k} {i} {_coeffs(row)!r}" for i, row in enumerate(rows)]
    lines.append(f"E {U.dim} {e!r}")
    return "\n".join(lines).encode()


# sha256 of _root_pair_dump(matrix_root_pair(Pi, a)) per (Pi, a, field
# characteristic), Pi a polynomial ring given by its variables and cutoff.
ROOT_PAIR_DIGESTS = {
    (("x", "y"), 4, 1, 0):
        "db82abfe4a3bdc010677a2657ac519e84e15df6e03fa06f4fcb119d3fb47fd67",
    (("x", "y"), 4, 2, 0):
        "7c2c02df6f9a1799cb5be0bb66515b75bca8436efa2aaf235dc0781720c61aa9",
    (("x0", "x1", "x2"), 4, 3, 0):
        "b7fc736fcd2c9bdb6982cd09eda6956343f42d1565e2949b03b71f50a632d4cb",
    ((), 2, 2, 0):
        "d8fd9fdbe1ec69748df860f16819c69cc4fe58ba46c10c81e45fbcb13d8a88e5",
    (("x", "y"), 4, 1, 2**31 - 1):
        "d6d196f14dff70aae67c224a78a58d3cc69ea9be7308345e26a47a72a0b34b1a",
    (("x", "y"), 4, 2, 2**31 - 1):
        "5caabfcc23b7d75e436754746f01d0fdd55b31dac48fb4dfecc886530f051366",
    (("x0", "x1", "x2"), 4, 3, 2**31 - 1):
        "c4676ca37314da0804d286b55d2ac11ffda8e343286796a811e46d010b543256",
    ((), 2, 2, 2**31 - 1):
        "4adba5027c87743fe797cd673ead11dc83e7804d030c32698af60502fba700bd",
}


@pytest.mark.parametrize("variables,cutoff,a,char", sorted(ROOT_PAIR_DIGESTS))
def test_matrix_root_pair_golden(variables, cutoff, a, char):
    field = Field(char) if char else QQ
    pi = polynomial_algebra(list(variables), cutoff, field)
    digest = hashlib.sha256(_root_pair_dump(*matrix_root_pair(pi, a))).hexdigest()
    assert digest == ROOT_PAIR_DIGESTS[(variables, cutoff, a, char)]


def _quasi_veronese_inputs(field):
    """(name, graded algebra, a, cutoff): k[x, y] at a = 1, 2, 3 and the
    two-object completion of the Kronecker root at a = 2."""
    kxy = polynomial_algebra(["x", "y"], 8, field)
    for a, cutoff in ((1, 3), (2, 3), (3, 2)):
        yield f"kxy a={a}", kxy, a, cutoff
    kron = kronecker_algebra(field)
    sig = completion_algebra(kron, kronecker_root(kron, 0, 1), [0, 1], 5)
    yield "kronecker a=2", sig, 2, 2


# sha256 of _graded_dump(quasi_veronese(...)) over _quasi_veronese_inputs,
# per field characteristic
QUASI_VERONESE_DIGESTS = {
    0: "2fd3c39a8919f2f62b3f1b425c404268d39b6d904086fffbde2faf9f065c6d6a",
    2**31 - 1: "8442c7731f577961d6885834297571b6a5af017ff6ec5c80dee285e929c5f821",
}


@pytest.mark.parametrize("char", sorted(QUASI_VERONESE_DIGESTS))
def test_quasi_veronese_golden(char):
    h = hashlib.sha256()
    for _, x, a, cutoff in _quasi_veronese_inputs(Field(char) if char else QQ):
        h.update(_graded_dump(quasi_veronese(x, a, cutoff)))
    assert h.hexdigest() == QUASI_VERONESE_DIGESTS[char]


# sha256 of _graded_dump(a_segre(k[x, y], k[x, y], 2, 3)) followed by its
# object list, per field characteristic: the products in dict order pin
# segre's pair order
A_SEGRE_DIGESTS = {
    0: "fc91fc236f7d3be5c58672962b67e2498ae935b8f98788bb29e634e650fa4115",
    2**31 - 1: "dd786be07a6e19f4f6206c12a8728d09d5ec71269561a362da54c94ea29adb83",
}


@pytest.mark.parametrize("char", sorted(A_SEGRE_DIGESTS))
def test_a_segre_golden(char):
    kxy = polynomial_algebra(["x", "y"], 4, Field(char) if char else QQ)
    seg = a_segre(kxy, kxy, 2, 3)
    h = hashlib.sha256(_graded_dump(seg))
    h.update(repr(seg.objects).encode())
    assert h.hexdigest() == A_SEGRE_DIGESTS[char]


# sha256 of _graded_dump of each builder's output at cutoffs 0..5, per
# builder, variables and field characteristic: they pin the basis order,
# the labels and the products in dict order
WORD_ALGEBRA_DIGESTS = {
    ("polynomial", ("x",), 0):
        "e52e61ab39d442686050a027bd3a01ad3a5d6a56c4251e4ee00b1058653849a3",
    ("polynomial", ("x",), 2**31 - 1):
        "32c69cb49d538557a4fc67af2bd4a55fbc11845ab7c576bfbf456350cd7eec61",
    ("polynomial", ("x", "y"), 0):
        "4e68d09b12371c328aab03d1c431823e7f87fd822efd14b3be3f0ac822d1a6a0",
    ("polynomial", ("x", "y"), 2**31 - 1):
        "7f91b1199218909b8a50abc5104c1d738778658ecc2f6be75065e305c3749435",
    ("polynomial", ("x", "y", "z"), 0):
        "0a2fae0bfa6d7fa77ad1c787b8ecdcb44542f5614254a5c7323dac39a37dcde4",
    ("polynomial", ("x", "y", "z"), 2**31 - 1):
        "9ef7f1fbfe2c570280870e18e4a95c18a18656b4b8401d81aaa5c5ce0fbed876",
    ("free", ("x",), 0):
        "e52e61ab39d442686050a027bd3a01ad3a5d6a56c4251e4ee00b1058653849a3",
    ("free", ("x",), 2**31 - 1):
        "32c69cb49d538557a4fc67af2bd4a55fbc11845ab7c576bfbf456350cd7eec61",
    ("free", ("x", "y"), 0):
        "c67eec468ce9cfe59d092b7db6346ac27ab34bff2fe73becb5e55be09568e31a",
    ("free", ("x", "y"), 2**31 - 1):
        "2ecb6411077bf66f027b493031aec9466927fdd01f658054884fd91194528ba7",
    ("free", ("x", "y", "z"), 0):
        "79754d8e4ee4ad3118476a9ba757445e2d9c53ce84ca357fb733d2ae41df4f90",
    ("free", ("x", "y", "z"), 2**31 - 1):
        "e327c89cf4960bac4404abbfa58d821defae794e3bdd31da512a71f4d1ae83cb",
}


@pytest.mark.parametrize("kind,variables,char", list(WORD_ALGEBRA_DIGESTS))
def test_word_algebra_golden(kind, variables, char):
    build = polynomial_algebra if kind == "polynomial" else free_graded_algebra
    field = Field(char) if char else QQ
    h = hashlib.sha256()
    for cutoff in range(6):
        h.update(_graded_dump(build(list(variables), cutoff, field)))
    assert h.hexdigest() == WORD_ALGEBRA_DIGESTS[(kind, variables, char)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("a", [2, 3])
def test_a_segre_dims_and_associativity(field, a):
    """dim_l = dim X_l * sum over r, c < a of dim Y_(l+r-c); for
    k[x, y] (x) k[x, y] that is 4(l+1)^2 at a = 2 and 10, 36, 81, ... at
    a = 3."""
    cutoff = 3
    kxy = polynomial_algebra(["x", "y"], cutoff + a - 1, field)
    seg = a_segre(kxy, kxy, a, cutoff)
    expected = {l: (l + 1) * sum(max(l + r - c + 1, 0) for r in range(a) for c in range(a))
                for l in range(cutoff + 1)}
    assert seg.dims() == expected
    if a == 2:
        assert expected == {l: 4 * (l + 1) ** 2 for l in range(cutoff + 1)}
    else:
        assert [expected[l] for l in range(3)] == [10, 36, 81]
    assert seg.check_associativity(3)
