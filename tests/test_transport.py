import hashlib

import pytest
from test_bimodcx import _canonical_dump

from cyfold.bimodcx import (
    BoundExceeded,
    bimodule_dual,
    dual_regular_bimodule,
    find_quasi_iso,
    one_sided,
    resolution_of_algebra,
    resolve_bimodule,
    shift,
    standard_hereditary_resolution,
    tensor_power,
)
from cyfold.exactlin import QQ, Field, Matrix, combine_sparse
from cyfold.presets import a4_mod_longest_algebra, kronecker_algebra, linear_an_algebra
from cyfold.rootpair import RootPairSpec, check_strict_pair, k0_spanning_check
from cyfold.transport import (
    _product,
    algebra_from_endomorphisms,
    coord_complex_of,
    match_basic_algebras,
    resolve_complex,
    transported_pair,
    truncate_smart,
)


@pytest.fixture(scope="module")
def pair():
    a2 = linear_an_algebra(2)
    u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
    return transported_pair(a2, u, a2, u, [1], len_bound=10, seed=1)


def test_resolve_complex_roundtrip():
    kr = kronecker_algebra()
    pa = standard_hereditary_resolution(kr)
    x = coord_complex_of(pa)
    res, _, _ = resolve_complex(x)
    assert res.validate() == []
    assert res.cohomology_dims() == pa.cohomology_dims()


def test_resolve_complex_length_bound():
    # the Kronecker two-term resolution is resolved by itself, in degrees
    # 0 and -1: length 1
    x = coord_complex_of(standard_hereditary_resolution(kronecker_algebra()))
    res, _, _ = resolve_complex(x, len_bound=1)
    assert {p: len(ss) for p, ss in res.terms.items()} == {0: 2, -1: 2}
    with pytest.raises(BoundExceeded):
        resolve_complex(x, len_bound=0)


def test_resolve_complex_two_cohomologies():
    a2 = linear_an_algebra(2)
    dual = bimodule_dual(standard_hereditary_resolution(a2))
    x = coord_complex_of(dual)
    res, _, _ = resolve_complex(x)
    assert res.validate() == []
    assert res.cohomology_dims() == dual.cohomology_dims()


def test_truncate_smart_preserves_cohomology():
    a2 = linear_an_algebra(2)
    dual = bimodule_dual(standard_hereditary_resolution(a2))
    x = coord_complex_of(dual)
    t = truncate_smart(x, 0, 1)
    assert t.cohomology_dims() == x.cohomology_dims()


def test_endomorphism_algebra_is_a4_mod_longest(pair):
    e_alg = pair["algebra"]
    assert e_alg.dim == 9
    assert e_alg.check_associativity() and e_alg.check_unit()
    match = match_basic_algebras(e_alg, a4_mod_longest_algebra())
    assert match is not None
    sigma, lam = match
    # the strict idempotent pair {0, 1} lands on the quiver vertices {1, 2}
    assert {sigma[0], sigma[1]} == {1, 2}


def test_transported_bimodule_validates(pair):
    ue = pair["u"]
    assert ue.validate() == []
    # all one-sided restrictions are modules: the pair is strict
    for v in pair["algebra"].vertices:
        dims = one_sided(ue, [v]).cohomology_dims()
        assert set(dims) <= {0}


def test_transported_root_property(pair):
    e_alg, ue = pair["algebra"], pair["u"]
    res = resolution_of_algebra(e_alg, len_bound=8)
    nu2 = shift(bimodule_dual(res), 2)
    uu = tensor_power(ue, 2)
    assert nu2.cohomology_dims() == uu.cohomology_dims()
    assert find_quasi_iso(nu2, uu, 0, trials=16, seed=7) is not None


def test_transported_strict_pair(pair):
    e_alg, ue = pair["algebra"], pair["u"]
    res = resolution_of_algebra(e_alg, len_bound=8)
    spec = RootPairSpec(e_alg, ue, 2, 2, [0, 1], trials=16, seed=3)
    report = check_strict_pair(spec, resolution=res)
    assert report.passed, report.as_dict()
    assert report.details["add"]["total_top"] == {v: 1 for v in e_alg.vertices}
    assert k0_spanning_check(spec)


# sha256 of the dump of the transported A_2 pair (its terms and
# differential) followed by repr(sorted(hom_dims.items())), per field
# characteristic and lifting seed.  Recorded before the bimodule actions
# became sparse; they pin the whole transport chain value for value.
TRANSPORTED_PAIR_DIGESTS = {
    (0, 0): "a9f96d830988764b71ce6f3e62e6693b8dcabb1365d7ad31f3c43ab57981e778",
    (0, 7): "495a05029a9664890b0c70ff35b86b795ed364df93e7b3ce2b831d53aa54e2cf",
    (0, 123): "744600810246670bc234e1981ef1c916ef9191377eb509b588806932ab5c2b4c",
    (2**31 - 1, 0): "f8ec53c103a4cda9eef9d986b4ea86f6fd9c7b70e0212cc1340d3c77a2206303",
    (2**31 - 1, 7): "7855c19eea706cab13cb937f43efb4a4a7cc6514174c697e0e14dea66ec0f8a3",
    (2**31 - 1, 123): "40345e551651697fb3915e4b2a3f4f615936265791048bef5a3dd433b7ae4121",
}


@pytest.mark.parametrize("char,seed", sorted(TRANSPORTED_PAIR_DIGESTS))
def test_transported_pair_golden(char, seed):
    a2 = linear_an_algebra(2, Field(char) if char else QQ)
    u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
    pair = transported_pair(a2, u, a2, u, [1], seed=seed)
    h = hashlib.sha256(_canonical_dump(pair["u"]))
    h.update(repr(sorted(pair["hom_dims"].items())).encode())
    assert h.hexdigest() == TRANSPORTED_PAIR_DIGESTS[(char, seed)]


@pytest.mark.parametrize("char", [0, 2**31 - 1])
def test_sparse_end_arithmetic_matches_dense(char):
    """End(M) elements are sparse over the n * n matrix entries: their
    products agree with the dense Matrix product, and the primitive
    idempotents are complete and orthogonal."""
    f = Field(char) if char else QQ
    a2 = linear_an_algebra(2, f)
    u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
    module = transported_pair(a2, u, a2, u, [1], seed=1)["module"]
    n = module.dim
    _, chosen, idems = algebra_from_endomorphisms(module, seed=1)

    def dense(x):
        m = Matrix.zero(n, n, f)
        for key, v in x.items():
            m.data[key // n][key % n] = v
        return m

    for x in chosen:
        for y in chosen:
            assert dense(_product(x, y, n, f)) == dense(x).matmul(dense(y))
    one = {i * n + i: f.one() for i in range(n)}
    assert combine_sparse({i: f.one() for i in range(len(idems))}, idems, f) == one
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            assert _product(ei, ej, n, f) == (ei if i == j else {})
