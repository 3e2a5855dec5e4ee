from fractions import Fraction

import pytest

from cyfold.bimodcx import (
    ChainMap,
    bimodule_dual,
    chain_maps,
    find_quasi_iso,
    identity_map,
    shift,
    standard_hereditary_resolution,
    tensor_power,
)
from cyfold.exactlin import combine_sparse
from cyfold.presets import (
    a2n_algebra,
    a2n_root,
    kronecker_algebra,
    kronecker_root,
)
from cyfold.rootpair import (
    CasimirElement,
    ContractedComplex,
    ContractWithA,
    LiftFailed,
    casimir,
    casimir_identity_defect,
    check_peel_identity,
    evaluation_matrix,
    hh_class,
    hom_diff_matrix,
    is_cyclically_invariant,
    peel_map,
    rotate,
)


@pytest.fixture(scope="module")
def kron():
    return kronecker_algebra()


@pytest.fixture(scope="module")
def pA(kron):
    return standard_hereditary_resolution(kron)


def _compose(g, h, field):
    """The sparse columns of g o h, for maps given by sparse columns."""
    from cyfold.exactlin import combine_sparse

    return [combine_sparse(col, g, field) for col in h]


def test_evaluation_is_chain_map(kron, pA):
    dual = bimodule_dual(pA)
    contracted = ContractedComplex(pA, dual)
    f = kron.field
    for r in (-1, 0):
        ev_r, src_r, _ = evaluation_matrix(pA, dual, contracted, r)
        ev_r1, _, _ = evaluation_matrix(pA, dual, contracted, r + 1)
        dcon = contracted.diff_matrix(r)
        dend, _, _ = hom_diff_matrix(pA, pA, r)
        left = _compose(dend, ev_r, f)
        right = _compose(ev_r1, dcon, f)
        assert left == right


def test_casimir_exists_and_certifies(kron, pA):
    cas = casimir(pA)
    defect, _ = casimir_identity_defect(cas)
    # the defect is exact, so after adding the homotopy it is zero by
    # construction of the solve; here check it is a cycle hit by delta
    dend, src, tgt = hom_diff_matrix(pA, pA, -1)
    from cyfold.exactlin import solve_linear

    assert solve_linear(dend, len(tgt), defect, kron.field) is not None


def test_casimir_single_summand(kron):
    from cyfold.bimodcx import ProjBimodComplex, ProjBimodSummand

    single = ProjBimodComplex(kron, {0: [ProjBimodSummand(0, 0, 0)]}, {})
    cas = casimir(single)
    items = list(cas.items())
    assert len(items) == 1
    ((p, s), (q, t), (u, v)), c = items[0]
    assert (p, q) == (0, 0)
    assert u == kron.idempotent_index(0) and v == kron.idempotent_index(0)
    assert c == Fraction(1)


def test_casimir_of_root(kron):
    u = kronecker_root(kron, 0, 1)
    cas = casimir(u)
    assert any(c != 0 for _, c in cas.items())


def _explicit_phi(kron, pA, s, eps):
    """The explicit quasi-isomorphism with the pinned sign conventions."""
    f = kron.field
    dual = bimodule_dual(pA)
    u = kronecker_root(kron, s, eps)
    uu = tensor_power(u, 2)
    e0 = kron.idempotent_index(0)
    e1 = kron.idempotent_index(1)
    x = _path(kron, ("x",))
    y = _path(kron, ("y",))
    sgn = f(1) if s % 2 == 0 else f(-1)
    low = -2 * s - 1
    # locate power summands by trace
    s01 = (-s, 0)
    s10 = (-s - 1, 0)
    t_a = _power_index(uu, low, ((s01, s10), (e1,)))
    t_b = _power_index(uu, low, ((s10, s01), (e0,)))
    t_x = _power_index(uu, low + 1, ((s01, s01), (x,)))
    t_y = _power_index(uu, low + 1, ((s01, s01), (y,)))
    comps = {
        0: {
            (t_a, 0): {(e0, e0): f(eps)},
            (t_b, 1): {(e1, e1): sgn},
        },
        1: {},
    }
    # dual degree-1 summands: index 0 is the x-arrow dual, 1 the y-arrow dual
    comps[1][(t_y, 0)] = {(e0, e1): f(-1)}
    comps[1][(t_x, 1)] = {(e0, e1): f(eps)}
    phi = ChainMap(shift(dual, 0), uu, -2 * s - 1, comps)
    phi = ChainMap(dual, uu, -2 * s - 1, comps)
    return phi, uu, dual


def test_explicit_phi_is_quasi_iso(kron, pA):
    for s in (0, 1):
        for eps in (1, -1):
            phi, uu, dual = _explicit_phi(kron, pA, s, eps)
            assert phi.is_closed()
            from cyfold.bimodcx import is_quasi_iso

            assert is_quasi_iso(phi)


def test_hh_class_explicit_value(kron, pA):
    """Class of phi is eps (e0 chain) + (-1)^s (e1 chain)."""
    for s in (0, 1):
        for eps in (1, -1):
            phi, uu, dual = _explicit_phi(kron, pA, s, eps)
            cas = casimir(pA)
            cls = hh_class(phi, cas, uu)
            assert cls.is_cycle()
            e0 = kron.idempotent_index(0)
            e1 = kron.idempotent_index(1)
            coords = cls.ambient.coords(-2 * s - 1)
            got = {
                coords[i]: c for i, c in cls.vector.items() if c != 0
            }
            s01 = (-s, 0)
            s10 = (-s - 1, 0)
            t_a = _power_index(uu, -2 * s - 1, ((s01, s10), (e1,)))
            t_b = _power_index(uu, -2 * s - 1, ((s10, s01), (e0,)))
            sgn = Fraction(1) if s % 2 == 0 else Fraction(-1)
            assert got == {(t_a, e0): Fraction(eps), (t_b, e1): sgn}


def test_rotation_swaps_summands(kron, pA):
    phi, uu, dual = _explicit_phi(kron, pA, 0, 1)
    cas = casimir(pA)
    cls = hh_class(phi, cas, uu)
    rot = rotate(cls, 2)
    back = rotate(rot, 2)
    assert back.vector == cls.vector
    # for s=0, eps=1 the class is rotation invariant on the nose
    assert rot.vector == cls.vector


def test_rotation_identity_for_single_factor(kron):
    u = kronecker_root(kron, 0, 1)
    power = tensor_power(u, 1)
    amb = ContractWithA(power)
    coords = amb.coords(0)
    f = kron.field
    from cyfold.rootpair import HHClass

    vec = {i: f(i + 1) for i in range(len(coords))}
    cls = HHClass(power, amb, 0, vec)
    assert rotate(cls, 1).vector == vec


def test_cyclic_invariance_verdicts(kron, pA):
    """Invariance holds exactly when eps = (-1)^s, over the full family."""
    for s in (0, 1):
        for eps in (1, -1):
            u = kronecker_root(kron, s, eps)
            verdict, witness = is_cyclically_invariant(
                kron, u, 2, 2 * s + 1, resolution=pA, trials=12, seed=11
            )
            assert verdict == (eps == (-1) ** s)
            if verdict:
                assert witness is not None and witness.is_closed()


def test_homotopy_independence_of_class(kron, pA):
    # perturbing the Casimir representative moves the class by a boundary
    phi, uu, dual = _explicit_phi(kron, pA, 0, 1)
    cls1 = hh_class(phi, casimir(pA), uu)
    cls2 = hh_class(phi, casimir(pA, perturb_seed=3), uu)
    f = kron.field
    diff = combine_sparse({0: f.one(), 1: f.neg(f.one())}, [cls1.vector, cls2.vector], f)
    assert cls1.ambient.boundary_decompose(-1, diff) is not None


def test_peel_and_identity_kronecker(kron, pA):
    for eps in (1, -1):
        phi, uu, dual = _explicit_phi(kron, pA, 0, eps)
        psi = peel_map(phi, kronecker_root(kron, 0, eps), 2, 1, resolution=pA)
        assert psi.is_closed()
        assert check_peel_identity(
            phi, kronecker_root(kron, 0, eps), 2, 1, resolution=pA
        )


def test_peel_identity_zero_map(kron, pA):
    u = kronecker_root(kron, 0, 1)
    uu = tensor_power(u, 2)
    dual = bimodule_dual(pA)
    zero = ChainMap(dual, uu, -1, {})
    assert check_peel_identity(zero, u, 2, 1, resolution=pA)


def test_peel_identity_a2n():
    for n in (1, 2):
        alg = a2n_algebra(n)
        pa = standard_hereditary_resolution(alg)
        u = a2n_root(alg, n, d=1, eps=1)
        dual = bimodule_dual(pa)
        uu = tensor_power(u, 2)
        phi = find_quasi_iso(dual, uu, -3, trials=12, seed=2)
        assert phi is not None
        assert check_peel_identity(phi, u, 2, 3, resolution=pa)


def test_a2n_cyclic_invariance():
    # d = 1 is odd, so the square root is cyclically invariant
    alg = a2n_algebra(1)
    pa = standard_hereditary_resolution(alg)
    u = a2n_root(alg, 1, d=1, eps=1)
    verdict, _ = is_cyclically_invariant(alg, u, 2, 3, resolution=pa, seed=4)
    assert verdict


def _path(alg, path):
    for b in alg.basis:
        if b.path == path:
            return b.index
    raise KeyError(path)


def _power_index(power, deg, trace):
    for i, s in enumerate(power.summands(deg)):
        if s.trace == trace:
            return i
    raise KeyError(trace)


def test_kronecker_strict_pair(kron, pA):
    from cyfold.rootpair import RootPairSpec, check_strict_pair, k0_spanning_check

    u = kronecker_root(kron, 0, 1)
    spec = RootPairSpec(kron, u, 2, 1, [0], trials=12, seed=9)
    report = check_strict_pair(spec, resolution=pA)
    assert report.passed, report.as_dict()
    assert k0_spanning_check(spec)


def test_a1_pair_trivial(kron, pA):
    from cyfold.rootpair import RootPairSpec, check_strict_pair

    u = shift(bimodule_dual(pA), 1)
    spec = RootPairSpec(kron, u, 1, 1, [0, 1], trials=12, seed=9)
    report = check_strict_pair(spec, resolution=pA)
    assert report.passed, report.as_dict()


def test_k0_empty_e_fails(kron):
    from cyfold.rootpair import RootPairSpec, k0_spanning_check

    u = kronecker_root(kron, 0, 1)
    assert not k0_spanning_check(RootPairSpec(kron, u, 2, 1, []))


def test_k0_beilinson_d2_one_vertex_fails():
    from cyfold.presets import beilinson_algebra
    from cyfold.bimodcx import inverse_dualizing
    from cyfold.rootpair import RootPairSpec, k0_spanning_check

    b2 = beilinson_algebra(2)
    assert len(b2.vertices) == 3
    u = inverse_dualizing(b2, 2, len_bound=8)
    spec = RootPairSpec(b2, u, 2, 2, [0])
    assert not k0_spanning_check(spec)


def test_hh_class_zero_map(kron, pA):
    u = kronecker_root(kron, 0, 1)
    uu = tensor_power(u, 2)
    zero = ChainMap(bimodule_dual(pA), uu, -1, {})
    cls = hh_class(zero, casimir(pA), uu)
    assert all(v == 0 for v in cls.vector.values())


def test_hh_class_family_rigid_and_linear(kron, pA):
    # the closed-map family is one-dimensional with no boundaries (the
    # worked example's rigidity), and the class scales linearly, so the
    # invariance verdict does not depend on the chosen representative
    phi, uu, dual = _explicit_phi(kron, pA, 0, 1)
    closed, boundaries, coords = chain_maps(dual, uu, -1)
    assert closed.dim == 1 and boundaries.dim == 0
    cas = casimir(pA)
    c1 = hh_class(phi, cas, uu)
    f = kron.field
    scaled = ChainMap(
        dual, uu, -1,
        {p: {k: {ab: f.mul(f(3), c) for ab, c in e.items()} for k, e in cc.items()}
         for p, cc in phi.components.items()},
    )
    c3 = hh_class(scaled, cas, uu)
    assert c3.vector == {i: f.mul(f(3), v) for i, v in c1.vector.items()}


def test_cyclic_invariance_a1(kron, pA):
    u = shift(bimodule_dual(pA), 1)
    verdict, witness = is_cyclically_invariant(kron, u, 1, 1, resolution=pA, seed=2)
    assert verdict and witness is not None


def test_a2n_strictness_suspension_tradeoff():
    """Strictness on the nose and cyclic invariance hold in different
    suspension normalizations of the type-A square root."""
    from cyfold.presets import a2n_algebra, a2n_root
    from cyfold.rootpair import RootPairSpec, check_strict_pair

    alg = a2n_algebra(2)
    pa = standard_hereditary_resolution(alg)
    verdicts = {}
    for d in (1, 0):
        u = a2n_root(alg, 2, d=d, eps=1)
        spec = RootPairSpec(alg, u, 2, 2 * d + 1, [1, 2], trials=12, seed=5)
        rep = check_strict_pair(spec, resolution=pa)
        cyc, _ = is_cyclically_invariant(
            alg, u, 2, 2 * d + 1, resolution=pa, trials=12, seed=5
        )
        verdicts[d] = (rep.verdicts["root"], rep.verdicts["add"], cyc)
    assert verdicts[1] == (True, False, True)
    assert verdicts[0] == (True, True, False)
