import pytest

from cyfold.exactlin import QQ
from cyfold.quiveralg import (
    Arrow,
    NotFiniteDimensional,
    PathBasisAlgebra,
    Quiver,
    Relation,
    build_algebra,
    tensor_product_algebra,
)


def kronecker():
    q = Quiver([0, 1], [Arrow("x", 0, 1), Arrow("y", 0, 1)])
    return build_algebra(q, [], 4)


def linear_quiver(n):
    verts = list(range(1, n + 1))
    arrows = [Arrow(f"a{i}", i, i + 1) for i in range(1, n)]
    return Quiver(verts, arrows)


def a4_mod_longest():
    q = linear_quiver(4)
    rel = Relation([(1, ("a3", "a2", "a1"))])
    return build_algebra(q, [rel], 3)


def test_kronecker_dim():
    a = kronecker()
    assert a.dim == 4
    assert sorted(repr(b) for b in a.basis) == ["e_0", "e_1", "x", "y"]


def test_a4_mod_longest_path_dim():
    a = a4_mod_longest()
    assert a.dim == 9  # 4 vertices + 3 arrows + 2 length-2 paths


def test_loop_not_finite_dimensional():
    q = Quiver(["v"], [Arrow("l", "v", "v")])
    with pytest.raises(NotFiniteDimensional):
        build_algebra(q, [], 5)


def test_associativity_and_unit():
    for a in (kronecker(), a4_mod_longest()):
        assert a.check_associativity()
        assert a.check_unit()


def test_corner_identities():
    a = kronecker()
    assert len(a.corner_indices(1, 0)) == 2  # span{x, y}
    assert len(a.corner_indices(0, 1)) == 0
    for v in (0, 1):
        assert a.idempotent_index(v) in a.corner_indices(v, v)


def test_basis_corner_sandwich():
    a = a4_mod_longest()
    f = a.field
    for b in a.basis:
        et = a.idempotent_index(b.target)
        es = a.idempotent_index(b.source)
        left = a.mult_elements({et: f.one()}, {b.index: f.one()})
        both = a.mult_elements(left, {es: f.one()})
        assert both == {b.index: f.one()}


def test_radical_nilpotent():
    a = a4_mod_longest()
    n = a.radical_nilpotency()
    assert n is not None and n <= a.dim


def test_relation_validation():
    q = Quiver([0, 1], [Arrow("x", 0, 1), Arrow("y", 0, 1)])
    with pytest.raises(ValueError):
        Relation([(1, ("x",)), (1, ("x", "y"))]).validate(q)
    with pytest.raises(ValueError):
        Relation([(1, ("x", "x"))]).validate(q)


def test_commutative_square():
    # kA2 tensor kA2 as a quiver with one commutativity relation
    q = Quiver(
        ["00", "01", "10", "11"],
        [
            Arrow("a0", "00", "10"),
            Arrow("a1", "01", "11"),
            Arrow("b0", "00", "01"),
            Arrow("b1", "10", "11"),
        ],
    )
    rel = Relation([(1, ("b1", "a0")), (-1, ("a1", "b0"))])
    alg = build_algebra(q, [rel], 3)
    assert alg.dim == 9
    assert alg.check_associativity()


def test_tensor_product_algebra_matches_square():
    a2 = build_algebra(linear_quiver(2), [], 2)
    prod, pos = tensor_product_algebra(a2, a2)
    assert prod.dim == 9
    assert prod.check_associativity()
    assert prod.check_unit()


def test_from_structure_constants_roundtrip():
    a = kronecker()
    tagged = [(repr(b), b.source, b.target) for b in a.basis]
    again = PathBasisAlgebra.from_structure_constants([0, 1], tagged, a._mult)
    assert again.dim == 4
    assert again.check_associativity()
