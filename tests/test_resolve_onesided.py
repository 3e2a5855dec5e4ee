import pytest

from cyfold.bimodcx import (
    BimoduleData,
    BoundExceeded,
    HomComplex,
    bimodule_dual,
    dual_regular_bimodule,
    inverse_dualizing,
    one_sided,
    projective_sum,
    regular_bimodule,
    resolution_of_algebra,
    resolve_bimodule,
    shift,
    standard_hereditary_resolution,
    tensor_over_A,
)
from cyfold.presets import (
    a4_mod_longest_algebra,
    kronecker_algebra,
    kronecker_root,
    linear_an_algebra,
)
from cyfold.rootpair import is_cyclically_invariant


@pytest.fixture(scope="module")
def kron():
    return kronecker_algebra()


@pytest.fixture(scope="module")
def a2():
    return linear_an_algebra(2)


def test_resolve_regular_matches_standard(kron):
    std = standard_hereditary_resolution(kron)
    res = resolve_bimodule(regular_bimodule(kron))
    # minimality forces agreement of graded summand counts
    assert {p: len(s) for p, s in res.terms.items()} == {
        p: len(s) for p, s in std.terms.items()
    }
    assert res.validate() == []
    coh = res.cohomology()
    assert coh[0]["total"] == 4 and coh[-1]["total"] == 0


def test_resolve_projective_is_itself(kron):
    # Ae_0 (x) e_1A as a bimodule resolves in one step
    from cyfold.bimodcx import ProjBimodComplex, ProjBimodSummand

    proj = ProjBimodComplex(kron, {0: [ProjBimodSummand(0, 1, 0)]}, {})
    m = _bimodule_from_complex_degree0(kron, proj)
    res = resolve_bimodule(m)
    assert {p: len(s) for p, s in res.terms.items()} == {0: 1}


def test_resolve_dual_of_a2(a2):
    da = dual_regular_bimodule(a2)
    assert da.check_bimodule()
    res = resolve_bimodule(da, len_bound=2)
    assert res.validate() == []
    assert min(res.terms) >= -2
    coh = res.cohomology()
    assert coh[0]["total"] == 3
    assert all(coh[p]["total"] == 0 for p in coh if p != 0)


def test_resolution_of_algebra_with_relations():
    c = a4_mod_longest_algebra()
    res = resolution_of_algebra(c, len_bound=8)
    assert res.validate() == []
    coh = res.cohomology()
    assert coh[0]["total"] == 9
    assert all(coh[p]["total"] == 0 for p in coh if p != 0)


def test_bound_exceeded():
    c = a4_mod_longest_algebra()
    with pytest.raises(BoundExceeded):
        resolve_bimodule(regular_bimodule(c), len_bound=0)


def test_length_bound_admits_a_resolution_of_that_length():
    c = a4_mod_longest_algebra()
    res = resolve_bimodule(regular_bimodule(c), len_bound=2)
    assert sorted(res.terms) == [-2, -1, 0]
    with pytest.raises(BoundExceeded):
        resolve_bimodule(regular_bimodule(c), len_bound=1)


def test_resolve_bimodule_has_no_augmentation(kron):
    # only a resolution of A itself is augmented; an empty augmentation
    # would let hh_class return a zero class and cyclic invariance pass
    res = resolve_bimodule(regular_bimodule(kron))
    assert res.augmentation is None
    u = kronecker_root(kron, 0, -1)
    with pytest.raises(ValueError, match="augmentation"):
        is_cyclically_invariant(kron, u, 2, 1, resolution=res)
    assert is_cyclically_invariant(kron, u, 2, 1)[0] is False


def test_inverse_dualizing_kronecker(kron):
    inv = inverse_dualizing(kron, 0)
    assert inv.cohomology_dims() == {1: 12}
    inv1 = inverse_dualizing(kron, 1)
    assert inv1.cohomology_dims() == {0: 12}


def test_inverse_dualizing_a2(a2):
    # Hom(DA, A) = Hom(P_2 + S_2, P_1 + P_2) is 1-dim, Ext^1(DA, A) = S_2
    # extension class: H^0 = 1 and H^1 = 1 for the unshifted complex
    inv = inverse_dualizing(a2, 0)
    dims = inv.cohomology_dims()
    assert dims == {0: 1, 1: 1}


def test_one_sided_restriction(kron):
    u = kronecker_root(kron, 0, 1)
    e0u = one_sided(u, [0])
    assert e0u.validate() == []
    # e_0 U is the projective e_1A in degree 0
    assert e0u.cohomology_dims() == {0: 3}
    e1u = one_sided(u, [1])
    assert e1u.validate() == []
    assert e1u.cohomology_dims() == {0: 5}  # tau^{-1} P_0 has dimension 5


def test_tensor_right_walks_preprojectives(kron):
    u = kronecker_root(kron, 0, 1)
    p0 = projective_sum(kron, [0])
    p0u = tensor_over_A(p0, u)
    assert p0u.validate() == []
    assert p0u.cohomology_dims() == {0: 3}
    p0uu = tensor_over_A(p0u, u)
    assert p0uu.cohomology_dims() == {0: 5}
    p0u3 = tensor_over_A(p0uu, u)
    assert p0u3.cohomology_dims() == {0: 7}


def test_rhom_projectives(kron):
    # Hom(e_iA, e_jA) = e_jAe_i
    for i in (0, 1):
        for j in (0, 1):
            h = HomComplex(projective_sum(kron, [i]), projective_sum(kron, [j]))
            assert h.cohomology_dim(0) == len(kron.corner_indices(j, i))


def test_rhom_shift(kron):
    p0 = projective_sum(kron, [0])
    sh = shift(p0, 1)
    h = HomComplex(p0, sh)
    assert h.cohomology_dim(0) == 0
    assert h.cohomology_dim(-1) == 1


def _bimodule_from_complex_degree0(alg, cx):
    f = alg.field
    coords = cx.coords(0)
    n = len(coords)
    pos = {c: i for i, c in enumerate(coords)}
    left = []
    right = []
    for k in range(alg.dim):
        lm = [{} for _ in range(n)]
        rm = [{} for _ in range(n)]
        for i, (s_idx, a, b) in enumerate(coords):
            for a2, c in alg.mult(k, a).items():
                j = pos.get((s_idx, a2, b))
                if j is not None:
                    lm[i][j] = f.add(lm[i].get(j, f.zero()), c)
            for b2, c in alg.mult(b, k).items():
                j = pos.get((s_idx, a, b2))
                if j is not None:
                    rm[i][j] = f.add(rm[i].get(j, f.zero()), c)
        left.append([{j: c for j, c in row.items() if c} for row in lm])
        right.append([{j: c for j, c in row.items() if c} for row in rm])
    return BimoduleData(alg, alg, n, left, right)
