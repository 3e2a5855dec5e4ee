"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Time limits are asserted as stated."""

import time

import pytest

from cyfold.bimodcx import (
    bimodule_dual,
    cone,
    direct_sum,
    dual_regular_bimodule,
    find_quasi_iso,
    identity_map,
    map_from_vector,
    chain_maps,
    minimize,
    one_sided,
    relabel_complex,
    resolution_of_algebra,
    resolve_bimodule,
    shift,
    standard_hereditary_resolution,
    tensor_over_A,
    tensor_power,
)
from cyfold.cluster import (
    build_zq,
    classify_dynkin_roots,
    cluster_tilting_check,
    d_quiver,
    folded_a2n_auto,
    linear_quiver,
    orbit_count,
    serre_check,
    tau_auto,
)
from cyfold.completion import (
    compare_presentation,
    completion,
    completion_algebra,
    dg_path_cohomology,
    graded_gorenstein_check,
    graded_quotient_dims,
    matrix_root_pair,
    polynomial_algebra,
    quasi_veronese,
    segre,
    veronese,
)
from cyfold.exactlin import SplitMix64, random_vector
from cyfold.presets import (
    a2n_algebra,
    a2n_completion_presentation,
    a2n_root,
    a4_mod_longest_algebra,
    beilinson_algebra,
    kronecker_algebra,
    kronecker_root,
    linear_an_algebra,
    sigma_presentation_quiver,
)
from cyfold.quiveralg import Arrow, Quiver, Relation
from cyfold.rootpair import (
    RootPairSpec,
    casimir,
    casimir_identity_defect,
    check_peel_identity,
    check_strict_pair,
    is_cyclically_invariant,
    k0_spanning_check,
)
from cyfold.transport import match_basic_algebras, transported_pair


def _report(label, detail, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"{label}: PASS ({detail}; {elapsed:.2f}s)")
    assert elapsed < limit, f"{label} exceeded {limit}s"


@pytest.fixture(scope="module")
def kron():
    return kronecker_algebra()


@pytest.fixture(scope="module")
def pA(kron):
    return standard_hereditary_resolution(kron)


@pytest.fixture(scope="module")
def a4pair():
    a2 = linear_an_algebra(2)
    u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
    return transported_pair(a2, u, a2, u, [1], len_bound=10, seed=1)


def test_ac01_kronecker_root(kron, pA):
    """find_quasi_iso A^dual[2s+1] -> U^2 for s in {0,1}, eps = +-1."""
    dual = bimodule_dual(pA)
    for s in (0, 1):
        for eps in (1, -1):
            t0 = time.monotonic()
            u = kronecker_root(kron, s, eps)
            fmap = find_quasi_iso(
                shift(dual, 2 * s + 1), tensor_power(u, 2), 0, trials=16, seed=5
            )
            assert fmap is not None and fmap.is_closed()
            _report("AC01", f"s={s} eps={eps}", t0, 5)


def test_ac02_cyclic_invariance(kron, pA):
    """Invariance exactly when eps = (-1)^s, over the full family."""
    t0 = time.monotonic()
    for s in (0, 1):
        for eps in (1, -1):
            u = kronecker_root(kron, s, eps)
            verdict, _ = is_cyclically_invariant(
                kron, u, 2, 2 * s + 1, resolution=pA, trials=12, seed=11
            )
            assert verdict == (eps == (-1) ** s), (s, eps)
    _report("AC02", "4/4 verdicts", t0, 30)


def test_ac03_peel_identity(kron, pA):
    """The Casimir pairing identity holds for every constructed map."""
    t0 = time.monotonic()
    dual = bimodule_dual(pA)
    for eps in (1, -1):
        u = kronecker_root(kron, 0, eps)
        uu = tensor_power(u, 2)
        phi = find_quasi_iso(shift(dual, 0), uu, -1, trials=12, seed=2)
        phi = find_quasi_iso(dual, uu, -1, trials=12, seed=2)
        assert phi is not None
        assert check_peel_identity(phi, u, 2, 1, resolution=pA)
    for n in (1, 2):
        alg = a2n_algebra(n)
        pa = standard_hereditary_resolution(alg)
        u = a2n_root(alg, n, d=1, eps=1)
        phi = find_quasi_iso(
            bimodule_dual(pa), tensor_power(u, 2), -3, trials=12, seed=2
        )
        assert phi is not None
        assert check_peel_identity(phi, u, 2, 3, resolution=pa)
    _report("AC03", "Kronecker both eps + A_2n n=1,2", t0, 120)


def test_ac04_completion_hilbert(kron, pA):
    """Adams-l dimension l+1, concentrated in degree 0, for l <= 6."""
    t0 = time.monotonic()
    u = kronecker_root(kron, 0, 1)
    data = completion(kron, u, [0], 6, resolution=pA)
    assert data.table == {(0, l): l + 1 for l in range(7)}
    bei = beilinson_algebra(1)
    ub = kronecker_root(bei, 0, 1, xname="x0_0", yname="x1_0")
    datb = completion(bei, ub, [0], 6)
    assert datb.table == {(0, l): l + 1 for l in range(7)}
    _report("AC04", "Kronecker + Beilinson d=1, l <= 6", t0, 60)


def test_ac05_presentation_comparison():
    """Completion tables match the dg presentations for (n,d) in
    {(1,1),(2,1)} up to Adams 3; dropping the eps term is detected."""
    t0 = time.monotonic()
    for n in (1, 2):
        alg = a2n_algebra(n)
        res = standard_hereditary_resolution(alg)
        u = a2n_root(alg, n, d=1, eps=1)
        data = completion(alg, u, list(range(1, n + 1)), 3, resolution=res)
        table = dg_path_cohomology(a2n_completion_presentation(n, 1, 1), 3)
        assert compare_presentation(data.table, table, 3), n
        if n == 2:
            perturbed = dg_path_cohomology(a2n_completion_presentation(n, 1, 0), 3)
            assert not compare_presentation(data.table, perturbed, 3)
    _report("AC05", "(1,1) and (2,1), perturbation detected", t0, 120)


def test_ac06_veronese_segre(kron, pA):
    """Second Veronese matches preprojective dims (Adams <= 5); the
    polynomial Segre product matches the crepant-resolution quiver."""
    t0 = time.monotonic()
    u = kronecker_root(kron, 0, 1)
    sigma_dims = {0: 4}
    cur = u
    sigma_dims[1] = sum(cur.cohomology_dims().values())
    for l in range(2, 11):
        cur = minimize(tensor_over_A(cur, u))
        sigma_dims[l] = sum(cur.cohomology_dims().values())
    # path-count oracle for the tensor-algebra quiver
    q, rels = sigma_presentation_quiver()
    oracle = graded_quotient_dims(q, rels, 5)
    assert all(sigma_dims[l] == oracle[l] for l in range(6))
    # preprojective dims via Coxeter dim-vector recursion: tau^{-i} walks
    # (a, b) -> (2b', b') etc.; independent of the bimodule machinery
    prep = _preprojective_dims(10)
    assert all(sigma_dims[2 * i] == prep[i] for i in range(6))
    # Segre with k[x, y]: dims (l+1) * Sigma_l, against the quiver with
    # superpotential relations
    nccr_oracle = _nccr_path_counts(4)
    assert all(
        (l + 1) * sigma_dims[l] == nccr_oracle[l] for l in range(5)
    )
    _report("AC06", "Veronese <= 5 and Segre <= 4", t0, 120)


def _preprojective_dims(imax):
    # dim vectors: tau^{-i} P0 = (2i+1, 2i), tau^{-i} P1 = (2i+2, 2i+1)
    return {i: (2 * i + 1) + (2 * i) + (2 * i + 2) + (2 * i + 1) for i in range(imax)}


def _nccr_path_counts(nmax):
    q = Quiver(
        [0, 1],
        [
            Arrow("u", 0, 1, adeg=0),
            Arrow("v", 0, 1, adeg=0),
            Arrow("p", 1, 0, adeg=1),
            Arrow("q", 1, 0, adeg=1),
        ],
    )
    rels = [
        Relation([(1, ("p", "v", "q")), (-1, ("q", "v", "p"))]),
        Relation([(1, ("v", "q", "u")), (-1, ("u", "q", "v"))]),
        Relation([(1, ("q", "u", "p")), (-1, ("p", "u", "q"))]),
        Relation([(1, ("u", "p", "v")), (-1, ("v", "p", "u"))]),
    ]
    return graded_quotient_dims(q, rels, nmax)


def test_ac07_matrix_round_trip(kron):
    """k[x,y] -> (Kronecker-shaped A, U', e) -> completion reproduces the
    polynomial dims; U' is quasi-isomorphic to the explicit root."""
    t0 = time.monotonic()
    kxy = polynomial_algebra(["x", "y"], 4)
    A, U, e = matrix_root_pair(kxy, 2)
    res_u = resolve_bimodule(U, len_bound=6)
    kr_idx = {repr(b): b.index for b in kron.basis}
    basis_map = {0: kr_idx["e_0"], 1: kr_idx["x"], 2: kr_idx["y"], 3: kr_idx["e_1"]}
    vertex_map = {(0, "*"): 0, (1, "*"): 1}
    for (i, j), entry in A._mult.items():
        assert {basis_map[k]: c for k, c in entry.items()} == kron.mult(
            basis_map[i], basis_map[j]
        )
    u_prime = relabel_complex(res_u, kron, vertex_map, basis_map)
    assert find_quasi_iso(u_prime, kronecker_root(kron, 0, 1), 0, trials=16, seed=3)
    data = completion(A, res_u, e, 4)
    assert data.table == {(0, l): l + 1 for l in range(5)}
    _report("AC07", "round trip through the matrix construction", t0, 120)


def test_ac08_dynkin_classification():
    """Combinatorial a-th roots exist iff a = 2 and type A with even rank."""
    t0 = time.monotonic()
    cases = []
    for n in range(2, 9):
        cases.append(("A", n))
    for n in range(4, 9):
        cases.append(("D", n))
    for n in (6, 7, 8):
        cases.append(("E", n))
    for kind, n in cases:
        for a in (2, 3):
            expected = kind == "A" and a == 2 and n % 2 == 0
            got, _ = classify_dynkin_roots(kind, n, a, window=10)
            assert got == expected, (kind, n, a)
    _report("AC08", "A2-8, D4-8, E6-8, a in {2,3}", t0, 60)


def test_ac09_fundamental_domains():
    """Orbit folding: 16 -> 8 for the D4-type example; 4 and 12 for the
    half-folded type A domains."""
    t0 = time.monotonic()
    sl = build_zq(d_quiver(4), (-12, 12))
    assert orbit_count(sl, tau_auto([1, 2, 3, 4], power=4)) == 16
    assert orbit_count(sl, tau_auto([1, 2, 3, 4], power=2)) == 8
    assert orbit_count(build_zq(linear_quiver(2), (-14, 14)), folded_a2n_auto(1, 1)) == 4
    assert orbit_count(build_zq(linear_quiver(4), (-14, 14)), folded_a2n_auto(2, 1)) == 12
    _report("AC09", "16->8, 4, 12", t0, 60)


def test_ac10_strictness_and_cluster_tilting(a4pair):
    """The transported pair passes strictness; cluster tilting for d = 2;
    Serre symmetry on 10 seeded samples with converged windows."""
    t0 = time.monotonic()
    E, ue = a4pair["algebra"], a4pair["u"]
    res = resolution_of_algebra(E, len_bound=8)
    spec = RootPairSpec(E, ue, 2, 2, [0, 1], trials=16, seed=3)
    report = check_strict_pair(spec, resolution=res)
    assert report.passed, report.as_dict()
    assert k0_spanning_check(spec)
    ok, detail, conv = cluster_tilting_check(E, ue, [0, 1], 2, 8)
    assert ok and conv, detail
    ok2, conv2, rows = serre_check(E, ue, 2, 10, 8, seed=11)
    assert ok2 and conv2, rows
    _report("AC10", "strict + cluster tilting + Serre", t0, 300)


def test_ac11_strict_tensor_instance(a4pair):
    """End of the tensor tilting object has dimension 9 and its structure
    constants match the quiver algebra under a vertex matching."""
    t0 = time.monotonic()
    E = a4pair["algebra"]
    assert E.dim == 9
    match = match_basic_algebras(E, a4_mod_longest_algebra())
    assert match is not None
    sigma, lam = match
    assert {sigma[0], sigma[1]} == {1, 2}
    _report("AC11", f"dim 9, matched via {sigma}", t0, 300)


def test_ac12_gorenstein_parameters(kron, pA):
    """Gorenstein parameter: 2 for k[x,y], 3 for k[x0,x1,x2], and 1 for
    the quasi-Veronese of the Kronecker completion."""
    t0 = time.monotonic()
    v, _ = graded_gorenstein_check(polynomial_algebra(["x", "y"], 6), 2)
    assert v == "yes"
    v, _ = graded_gorenstein_check(polynomial_algebra(["x0", "x1", "x2"], 6), 3)
    assert v == "yes"
    u = kronecker_root(kron, 0, 1)
    pi = completion_algebra(kron, u, [0], 8, resolution=pA)
    qv = quasi_veronese(pi, 2, 3)
    v, detail = graded_gorenstein_check(qv, 1)
    assert v == "yes", detail
    _report("AC12", "a=2, a=3, a=1 verdicts", t0, 300)


def test_ac13_property_suites(kron, pA):
    """d^2 = 0 on generated complexes; cone(identity) acyclic; the Casimir
    element evaluates to the identity up to homotopy; H(pA) is the algebra;
    minimize preserves cohomology; tensor associativity dims over 100
    seeded cases."""
    t0 = time.monotonic()
    assert cone(identity_map(pA)).is_acyclic()
    coh = pA.cohomology()
    assert coh[0]["total"] == 4 and coh[0][(1, 0)] == 2
    cas = casimir(pA)
    defect, _ = casimir_identity_defect(cas)
    from cyfold.rootpair import hom_diff_matrix
    from cyfold.exactlin import solve_linear

    dmat, _, tgt = hom_diff_matrix(pA, pA, -1)
    assert solve_linear(dmat, len(tgt), defect, pA.base.field) is not None
    pieces = [
        pA,
        kronecker_root(kron, 0, 1),
        kronecker_root(kron, 1, -1),
        shift(pA, 1),
    ]
    rng = SplitMix64(17)
    checked = 0
    for case in range(100):
        a = pieces[rng.int_in(0, len(pieces) - 1)]
        b = pieces[rng.int_in(0, len(pieces) - 1)]
        c = pieces[rng.int_in(0, len(pieces) - 1)]
        x = direct_sum(a, b) if case % 3 == 0 else a
        # random cone to vary the differentials
        closed, _, coords = chain_maps(x, x, 0)
        vec = random_vector(closed, rng.next_u64())
        y = cone(map_from_vector(x, x, 0, coords, vec))
        assert y.validate() == []
        left = tensor_over_A(tensor_over_A(y, b), c)
        right = tensor_over_A(y, tensor_over_A(b, c))
        assert {p: len(s) for p, s in left.terms.items()} == {
            p: len(s) for p, s in right.terms.items()
        }
        m = minimize(y)
        assert m.validate() == []
        assert m.cohomology_dims() == y.cohomology_dims()
        checked += 1
    assert checked == 100
    _report("AC13", "invariants over 100 seeded cases", t0, 600)
