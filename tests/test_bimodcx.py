import hashlib
import heapq
import itertools
from fractions import Fraction

import pytest

from cyfold.bimodcx import (
    ChainMap,
    HomComplex,
    NotHereditary,
    ProjBimodComplex,
    ProjBimodSummand,
    RightComplex,
    RightSummand,
    _by_source,
    _by_target,
    _invert,
    _transfer_step,
    bimodule_dual,
    chain_maps,
    compose_entries,
    dual_regular_bimodule,
    cone,
    direct_sum,
    entry_add,
    entry_scale,
    find_quasi_iso,
    hom_diff_matrix,
    identity_map,
    is_quasi_iso,
    map_from_vector,
    minimize,
    one_sided,
    projective_sum,
    regular_bimodule,
    resolution_of_algebra,
    resolve_bimodule,
    shift,
    standard_hereditary_resolution,
    tensor_over_A,
    tensor_power,
)
from cyfold.completion import (
    corner_restricted_cohomology,
    matrix_root_pair,
    polynomial_algebra,
)
from cyfold.exactlin import QQ, Field, SplitMix64, random_vector, solve_linear
from cyfold.presets import (
    a2n_algebra,
    a2n_root,
    a4_mod_longest_algebra,
    beilinson_algebra,
    kronecker_algebra,
    kronecker_root,
    linear_an_algebra,
)
from cyfold.quiveralg import Arrow, PathBasisAlgebra, Quiver, Relation, build_algebra
from cyfold.transport import transported_pair


@pytest.fixture(scope="module")
def kron():
    return kronecker_algebra()


@pytest.fixture(scope="module")
def pA(kron):
    return standard_hereditary_resolution(kron)


def test_resolution_shape(kron, pA):
    assert [s.left for s in pA.summands(-1)] == [1, 1]
    assert [s.right for s in pA.summands(-1)] == [0, 0]
    assert [(s.left, s.right) for s in pA.summands(0)] == [(0, 0), (1, 1)]
    assert pA.validate() == []


def test_resolution_cohomology_is_algebra(kron, pA):
    coh = pA.cohomology()
    assert list(coh) == [-1, 0] or list(coh) == [0, -1]
    assert coh[-1]["total"] == 0
    h0 = coh[0]
    assert h0["total"] == 4
    assert h0[(0, 0)] == 1 and h0[(1, 0)] == 2 and h0[(1, 1)] == 1


def test_not_hereditary_raises():
    with pytest.raises(NotHereditary):
        standard_hereditary_resolution(a4_mod_longest_algebra())


def test_structure_constant_algebra_gets_the_cover_chain():
    # A_2 given by structure constants has no arrows, and its composable
    # products are single basis elements with coefficient 1; it is not
    # semisimple, so the one-term resolution would be wrong
    a2 = PathBasisAlgebra.from_structure_constants(
        [0, 1], [("e0", 0, 0), ("e1", 1, 1), ("a", 0, 1)],
        {(0, 0): {0: 1}, (1, 1): {1: 1}, (2, 0): {2: 1}, (1, 2): {2: 1}})
    with pytest.raises(NotHereditary):
        standard_hereditary_resolution(a2)
    res = resolution_of_algebra(a2)
    assert {p: len(ss) for p, ss in res.terms.items()} == {0: 2, -1: 1}
    assert res.cohomology_dims() == {0: 3}


def test_empty_complex_valid(kron):
    empty = ProjBimodComplex(kron, {}, {})
    assert empty.validate() == []
    assert empty.is_acyclic()


def test_miscornered_entry_reported(kron):
    x = _path(kron, ("x",))
    e0 = kron.idempotent_index(0)
    bad = ProjBimodComplex(
        kron,
        {0: [ProjBimodSummand(0, 0, 0)], 1: [ProjBimodSummand(1, 1, 1)]},
        {0: {(0, 0): {(e0, x): Fraction(1)}}},
    )
    assert any("corner" in e for e in bad.validate())


def test_dangling_and_miscornered_right_entries_reported(kron):
    e0 = kron.idempotent_index(0)
    dangling = RightComplex(kron, {0: [RightSummand(0, 0)]}, {0: {(0, 0): {e0: Fraction(1)}}})
    assert dangling.validate() == ["dangling entry at degree 0: (0,0)"]
    # e_0 is no map e_0A -> e_1A: the entry must lie in e_1Ae_0
    bad = RightComplex(kron, {0: [RightSummand(0, 0)], 1: [RightSummand(1, 1)]},
                       {0: {(0, 0): {e0: Fraction(1)}}})
    assert any("corner" in e for e in bad.validate())


def test_u_validates(kron):
    for s in (0, 1):
        for eps in (1, -1):
            u = kronecker_root(kron, s, eps)
            assert u.validate() == []
            coh = u.cohomology_dims()
            assert coh == {-s: 8}


def test_shift_involution(kron, pA):
    back = shift(shift(pA, 1), -1)
    assert back.terms.keys() == pA.terms.keys()
    for p in pA.diff:
        assert back.diff[p] == pA.diff[p]


def test_cone_of_identity_acyclic(kron, pA):
    c = cone(identity_map(pA))
    assert c.validate() == []
    assert c.is_acyclic()


def test_tensor_square_shape(kron):
    u = kronecker_root(kron, 0, 1)
    uu = tensor_over_A(u, u)
    assert uu.validate() == []
    assert len(uu.summands(-1)) == 2
    assert len(uu.summands(-2)) == 0
    assert len(uu.summands(0)) == 2  # middle corner e_1Ae_0 is 2-dimensional
    flat = tensor_power(u, 2)
    assert flat.validate() == []
    assert {p: len(ss) for p, ss in flat.terms.items()} == {
        p: len(ss) for p, ss in uu.terms.items()
    }
    assert flat.cohomology_dims() == uu.cohomology_dims()


def test_tensor_associativity_dims(kron):
    u = kronecker_root(kron, 0, 1)
    pa = standard_hereditary_resolution(kron)
    left = tensor_over_A(tensor_over_A(u, pa), u)
    right = tensor_over_A(u, tensor_over_A(pa, u))
    assert left.cohomology_dims() == right.cohomology_dims()
    assert {p: len(s) for p, s in left.terms.items()} == {
        p: len(s) for p, s in right.terms.items()
    }


def test_tensor_with_resolution_is_quasi_iso(kron, pA):
    u = kronecker_root(kron, 0, 1)
    pu = tensor_over_A(pA, u)
    assert pu.validate() == []
    assert pu.cohomology_dims() == u.cohomology_dims()


def test_dual_of_resolution_entries(kron, pA):
    dual = bimodule_dual(pA)
    assert dual.validate() == []
    assert [(s.left, s.right) for s in dual.summands(0)] == [(0, 0), (1, 1)]
    assert [(s.left, s.right) for s in dual.summands(1)] == [(0, 1), (0, 1)]
    x = _path(kron, ("x",))
    y = _path(kron, ("y",))
    e0 = kron.idempotent_index(0)
    e1 = kron.idempotent_index(1)
    # e_0 (x) e_0 |-> -e_0 (x) x* (x) x - e_0 (x) y* (x) y
    assert dual.entry(0, 0, 0) == {(e0, x): Fraction(-1)}
    assert dual.entry(0, 1, 0) == {(e0, y): Fraction(-1)}
    # e_1 (x) e_1 |-> x (x) x* (x) e_1 + y (x) y* (x) e_1
    assert dual.entry(0, 0, 1) == {(x, e1): Fraction(1)}
    assert dual.entry(0, 1, 1) == {(y, e1): Fraction(1)}


def test_double_dual_dims(kron, pA):
    dd = bimodule_dual(bimodule_dual(pA))
    assert dd.validate() == []
    assert dd.cohomology_dims() == pA.cohomology_dims()
    assert {p: len(s) for p, s in dd.terms.items()} == {
        p: len(s) for p, s in pA.terms.items()
    }


def test_inverse_dualizing_dims(kron, pA):
    # H(dual pA) is the inverse translate bimodule, total dim 12 in degree 1
    dual = bimodule_dual(pA)
    assert dual.cohomology_dims() == {1: 12}


def test_chain_maps_contains_identity(kron, pA):
    closed, boundaries, coords = chain_maps(pA, pA, 0)
    assert closed.dim >= 1
    ident = identity_map(pA)
    vec = _map_to_vector(pA, pA, 0, coords, ident)
    assert closed.contains(vec)


def test_acyclic_closed_equals_boundaries(kron, pA):
    c = cone(identity_map(pA))
    closed, boundaries, _ = chain_maps(c, c, 0)
    # on an acyclic complex every closed endo of every degree is null-homotopic
    assert closed.dim == boundaries.dim


def test_kronecker_quasi_iso_both_signs(kron, pA):
    # the shifted dual resolution maps quasi-isomorphically onto U (x) U
    dual = bimodule_dual(pA)
    for s in (0, 1):
        for eps in (1, -1):
            u = kronecker_root(kron, s, eps)
            uu = tensor_power(u, 2)
            src = shift(dual, 2 * s + 1)
            fmap = find_quasi_iso(src, uu, 0, trials=12, seed=5)
            assert fmap is not None
            assert fmap.is_closed()
            assert is_quasi_iso(fmap)


def test_quasi_iso_not_found_when_none_exists(kron, pA):
    c = cone(identity_map(pA))  # acyclic
    assert not c.cohomology_dims()
    assert find_quasi_iso(c, pA, 0, trials=6, seed=1) is None


def test_minimize_cone_identity(kron, pA):
    m = minimize(cone(identity_map(pA)))
    assert m.total_summands() == 0


def test_minimize_preserves_cohomology(kron, pA):
    u = kronecker_root(kron, 0, 1)
    big = tensor_over_A(pA, u)
    m = minimize(big)
    assert m.validate() == []
    assert m.cohomology_dims() == big.cohomology_dims()
    assert m.total_summands() <= big.total_summands()


@pytest.mark.parametrize("root,vertices,totals", [
    ((0, 1), [0], [1, 3, 5, 7, 9, 11, 13, 15]),
    ((1, -1), [0, 1], [4, 8, 12, 16, 20, 24, 28, 32]),
])
def test_minimize_on_right_complex_twist_chain(kron, root, vertices, totals):
    # y -> minimize(y (x) U), eight times, as orbit_hom twists
    u = kronecker_root(kron, *root)
    y = projective_sum(kron, vertices)
    got = []
    for _ in totals:
        big = tensor_over_A(y, u)
        y = minimize(big)
        assert type(y) is type(big)
        assert y.validate() == []
        assert y.cohomology_dims() == big.cohomology_dims()
        got.append(sum(len(ss) for ss in y.terms.values()))
    assert got == totals


def test_a2n_root_validates():
    for n in (1, 2):
        alg = a2n_algebra(n)
        u = a2n_root(alg, n, d=1, eps=1)
        assert u.validate() == []
        dual = bimodule_dual(standard_hereditary_resolution(alg))
        uu = tensor_power(u, 2)
        fmap = find_quasi_iso(shift(dual, 3), uu, 0, trials=12, seed=3)
        assert fmap is not None


def test_random_sum_cone_roundtrip(kron, pA):
    # cones over random closed maps stay valid and d^2 = 0 (seeded loop)
    u = kronecker_root(kron, 1, -1)
    closed, _, coords = chain_maps(pA, pA, 0)
    rng = SplitMix64(2)
    for t in range(5):
        vec = random_vector(closed, rng.next_u64())
        fmap = map_from_vector(pA, pA, 0, coords, vec)
        c = cone(fmap)
        assert c.validate() == []
        s = direct_sum(c, u)
        assert s.validate() == []


def _path(alg, path):
    for b in alg.basis:
        if b.path == path:
            return b.index
    raise KeyError(path)


def _map_to_vector(x, y, r, coords, fmap):
    """The sparse vector of a chain map over map coordinates."""
    pos = {c: i for i, c in enumerate(coords)}
    vec = {}
    for p, comps in fmap.components.items():
        for (t, s), entry in comps.items():
            for key, c in entry.items():
                vec[pos[(p, s, t, key)]] = c
    return vec


def _canonical_dump(cx, skip=()):
    """Summands in order with every slot (trace included unless skipped),
    then every entry in order with the type of each coefficient."""
    lines = []
    for p, ss in cx.terms.items():
        for i, s in enumerate(ss):
            slots = tuple(getattr(s, k) for k in type(s).__slots__ if k not in skip)
            lines.append(f"S {p} {i} {type(s).__name__} {slots!r}")
    for p, dd in cx.diff.items():
        for (t, s), entry in dd.items():
            items = [(k, type(v).__name__, v) for k, v in entry.items()]
            lines.append(f"D {p} {t} {s} {items!r}")
    return "\n".join(lines).encode()


# sha256 of the dumps of minimize(U^{(x)l}), l = 1..6, per Kronecker root
# (s, eps).  They pin the pivot order: the first unit entry in dict order,
# degree by degree, with new entries inserted in column-then-row order.
MINIMIZED_POWER_DIGESTS = {
    (0, 1): "2f2d4bdafb98e0bb27c83a46bcb3459174efe2d9ecf86d15afcb8f7420c569ae",
    (0, -1): "eb5124263aa7e5ec191ed64b8088fbdf21cf01f71e2d8ee37c91137097391382",
    (1, 1): "135921121b345f192386eabdcddd1af8a595c826eae4488951c601a2b425886a",
    (1, -1): "247438fffc848bd2aa79b6164a594430f600f1b939bf9d36bd6e8dacebf3b55e",
}

# the same for the eight steps y -> minimize(y (x) U) from P_0
TWIST_CHAIN_DIGESTS = {
    (0, 1): "3a80dedf2716e524bb7b7bb0d6df43c63b3927ba9ebd9c15880eea2b8abb13a6",
    (1, -1): "1354bee357613fbc487c288101f2da2075df9e72b8da63ed208154ba8a7cb89b",
}


@pytest.mark.parametrize("root", sorted(MINIMIZED_POWER_DIGESTS))
def test_minimize_tensor_powers_golden(kron, root):
    u = kronecker_root(kron, *root)
    h = hashlib.sha256()
    for l in range(1, 7):
        h.update(_canonical_dump(minimize(tensor_power(u, l))))
    assert h.hexdigest() == MINIMIZED_POWER_DIGESTS[root]


# the same for minimize(U^{(x)9}) alone, per root and field characteristic
MINIMIZED_POWER_9_DIGESTS = {
    ((0, 1), 0):
        "b24a15f3fa93aeceadf9af0ab7cb8f5ddf3b734ce935296d1c3f0a050eaf3883",
    ((1, -1), 0):
        "49fd0785335b509046f356203feb8a80543a9cde400823e479e556d62d115382",
    ((0, 1), 2**31 - 1):
        "03b8465b077851f502fb9e01e1ded8a7c5cabf229a1a2ffa4ccfe5532abe15b2",
    ((1, -1), 2**31 - 1):
        "bf5ca08c0e6b0ff748d1c3493ab8f115d713eb7dde0096394123dbc230249181",
}


@pytest.mark.parametrize("root,char", list(MINIMIZED_POWER_9_DIGESTS))
def test_minimize_ninth_power_golden(root, char):
    u = _root(("kronecker",) + root, char)
    digest = hashlib.sha256(_canonical_dump(minimize(tensor_power(u, 9)))).hexdigest()
    assert digest == MINIMIZED_POWER_9_DIGESTS[(root, char)]


# sha256 of the dumps of U^{(x)10} and of minimize(U^{(x)10}) for the
# Kronecker root (0, 1), per field characteristic: 4,756 summands and
# 16,308 entries, of which minimize cancels 2,360 pairs
POWER_10_DIGESTS = {
    0: ("8df2e6fc09b0c6a94b5663353d424af18d6075d379b9e62953a050f5bf9a930a",
        "b7d6dea1646c7249bfb39af00ed212a56abf12406c9070e77aeb9e5642e176ea"),
    2**31 - 1: ("786d6e064384abb4ae77ee99b6857a1d3e5367c2c1be47bab729a28a1dd66763",
                "638bb5e398ad870a4deb10efc7aa97f74accc1791532bba5b6e0dcef0156837d"),
}


@pytest.mark.parametrize("char", sorted(POWER_10_DIGESTS))
def test_tenth_power_and_its_minimization_golden(char):
    power = tensor_power(_root(("kronecker", 0, 1), char), 10)
    digests = tuple(hashlib.sha256(_canonical_dump(cx)).hexdigest()
                    for cx in (power, minimize(power)))
    assert digests == POWER_10_DIGESTS[char]


def _zigzags(kron):
    """S, B -> T, D with d = [[1, 1], [1, 2]] at vertex 0, of both kinds:
    cancelling S -> T rewrites the entry B -> D."""
    e0 = kron.idempotent_index(0)

    def zigzag(kind, summand, key):
        one, two = Fraction(1), Fraction(2)
        return kind(kron, {p: [summand(p), summand(p)] for p in (0, 1)},
                    {0: {(0, 0): {key: one}, (1, 0): {key: one},
                         (0, 1): {key: one}, (1, 1): {key: two}}})

    return [zigzag(ProjBimodComplex, lambda p: ProjBimodSummand(0, 0, p), (e0, e0)),
            zigzag(RightComplex, lambda p: RightSummand(0, p), e0)]


@pytest.mark.parametrize("transfer", [False, True])
def test_minimize_leaves_input_alone(kron, transfer):
    u = kronecker_root(kron, 0, 1)
    twisted = projective_sum(kron, [0])
    for _ in range(4):
        twisted = tensor_over_A(twisted, u)  # a right complex, 17 summands
    for x in [tensor_power(u, 4), tensor_power(kronecker_root(kron, 1, -1), 3),
              twisted] + _zigzags(kron):
        before = _canonical_dump(x)
        m = minimize(x, transfer=transfer)
        assert m.total_summands() < x.total_summands()
        assert _canonical_dump(x) == before
        ours = {id(e) for dd in x.diff.values() for e in dd.values()}
        assert not any(id(e) in ours for dd in m.diff.values() for e in dd.values())


@pytest.mark.parametrize("char", [0, 2**31 - 1])
def test_constructions_leave_shared_entries_alone(char):
    """A tensor power holds one dict at many keys, and direct_sum and cone
    hand their inputs' dicts on: no construction may write to one."""
    field = Field(char) if char else QQ
    _, p2, _ = matrix_root_pair(polynomial_algebra(["x0", "x1", "x2"], 4, field), 3)
    # minimize adds corrections to existing entries of the P^2 cube but
    # not of the Kronecker power, so only the cube shows a write-through
    for u, n in [(kronecker_root(kronecker_algebra(field), 0, 1), 4),
                 (resolve_bimodule(p2, len_bound=6), 3)]:
        x = tensor_power(u, n)
        entries = [e for dd in x.diff.values() for e in dd.values()]
        assert len({id(e) for e in entries}) < len(entries)
        before = _canonical_dump(x)
        doubled = direct_sum(x, x)
        outputs = [shift(x, 1), shift(x, 2), doubled, cone(identity_map(x)),
                   tensor_over_A(x, u), tensor_over_A(u, x), one_sided(x, [0]),
                   bimodule_dual(x), minimize(x), minimize(x, transfer=True),
                   minimize(doubled), minimize(cone(identity_map(x)), transfer=True)]
        assert all(cx.validate() == [] for cx in outputs)
        assert _canonical_dump(x) == before


@pytest.mark.parametrize("char", [0, 2**31 - 1])
def test_tensor_power_keeps_one_dict_per_distinct_entry(char):
    x = tensor_power(_root(("kronecker", 0, 1), char), 10)
    entries = [e for dd in x.diff.values() for e in dd.values()]
    assert len(entries) == 16308
    assert len({id(e) for e in entries}) == len({tuple(e.items()) for e in entries}) == 20


@pytest.mark.parametrize("root", sorted(TWIST_CHAIN_DIGESTS))
def test_minimize_twist_chain_golden(kron, root):
    u = kronecker_root(kron, *root)
    y = projective_sum(kron, [0])
    h = hashlib.sha256()
    for _ in range(8):
        y = minimize(tensor_over_A(y, u))
        h.update(_canonical_dump(y))
    assert h.hexdigest() == TWIST_CHAIN_DIGESTS[root]


def _reference_minimize(x, transfer=False):
    """minimize as it was before it indexed each degree in one pass: every
    degree copied up front, the neighbouring degrees indexed on entering
    each one, and every unit entry in one heap."""
    f = x.base.field
    minus = f(-1)
    diff = {p: {k: e for k, e in dd.items() if e} for p, dd in x.diff.items()}
    dead = set()  # (degree, summand id) of cancelled summands
    iota, pi = {}, {}  # only with transfer: columns of iota, rows of pi

    def unit_map(p, i):
        s = x.summands(p)[i]
        return {i: {x._unit_key(s, s): f.one()}}
    # A cancellation at degree p rewrites entries of degree p only and
    # deletes entries at p - 1 and p + 1, so the degrees done before p
    # still hold no unit entry.
    for p, dd in diff.items():
        ss, ts = x.summands(p), x.summands(p + 1)
        s_cls = [x._unit_class(s) for s in ss]
        t_cls = [x._unit_class(t) for t in ts]
        units = {}  # class -> identity key
        for s, c in zip(ss, s_cls):
            if c not in units:
                units[c] = x._unit_key(s, s)
        s_unit = [units[c] for c in s_cls]
        shared = x.diff[p]  # entries of x: copied before a write
        by_src, by_tgt = {}, {}  # s -> {t: entry}, t -> {s: entry}
        rank, heap, tick = {}, [], itertools.count()

        def index(key, entry):
            rank[key] = next(tick)
            by_src.setdefault(key[1], {})[key[0]] = entry
            by_tgt.setdefault(key[0], {})[key[1]] = entry

        for key, entry in dd.items():
            index(key, entry)
            t, s = key
            if s_cls[s] == t_cls[t] and entry.get(s_unit[s]):
                heap.append((rank[key], key, s_unit[s]))
        below = _by_target(diff.get(p - 1, {}))
        above = _by_source(diff.get(p + 1, {}))
        while heap:
            r, key, unit = heapq.heappop(heap)
            entry = dd.get(key)
            if entry is None or rank[key] != r or not entry.get(unit):
                continue
            t_idx, s_idx = key
            col, row = by_src.pop(s_idx), by_tgt.pop(t_idx)  # pivot aside
            del col[t_idx], row[s_idx], dd[key]
            for t in col:
                del dd[(t, s_idx)], by_tgt[t][s_idx]
            for s in row:
                del dd[(t_idx, s)], by_src[s][t_idx]
            inv, inv_row = None, []  # -X and -X o b, X the pivot's inverse
            if (col and row) or (transfer and (col or row)):
                inv = entry_scale(_invert(x, ss[s_idx], entry), minus, f)
                inv_row = [(s2, x._compose(inv, be)) for s2, be in row.items()]
            if transfer:
                _transfer_step(x, iota, pi, unit_map, p, s_idx, t_idx, inv, inv_row, col)
            for t2, ce in col.items():
                for s2, ib in inv_row:
                    corr = x._compose(ce, ib)
                    if not corr:
                        continue
                    k2 = (t2, s2)
                    e = dd.get(k2)
                    if e is None:
                        e = dd[k2] = {}
                        index(k2, e)
                    elif e is shared.get(k2):
                        e = dd[k2] = by_src[s2][t2] = by_tgt[t2][s2] = dict(e)
                    entry_add(e, corr, f)
                    if not e:
                        del dd[k2], by_src[s2][t2], by_tgt[t2][s2]
                    elif s_cls[s2] == t_cls[t2] and e.get(s_unit[s2]):
                        heapq.heappush(heap, (rank[k2], k2, s_unit[s2]))
            for s, _ in below.pop(s_idx, ()):
                del diff[p - 1][(s_idx, s)]
            for t, _ in above.pop(t_idx, ()):
                del diff[p + 1][(t, t_idx)]
            dead.update(((p, s_idx), (p + 1, t_idx)))
    terms = {}
    new_id = {}
    for p, ss in x.terms.items():
        keep = [i for i in range(len(ss)) if (p, i) not in dead]
        new_id[p] = {i: n for n, i in enumerate(keep)}
        terms[p] = [ss[i] for i in keep]
    diff = {
        p: {(new_id[p + 1][t], new_id[p][s]): dict(e) for (t, s), e in dd.items()}
        for p, dd in diff.items()
    }
    m = type(x)(x.base, terms, diff)
    if not transfer:
        return m
    to_m, to_x = {}, {}
    for p, ids in new_id.items():
        for i, n in ids.items():
            for xi, e in (iota.get((p, i)) or unit_map(p, i)).items():
                if e:
                    to_x.setdefault(p, {})[(xi, n)] = e
            for xi, e in (pi.get((p, i)) or unit_map(p, i)).items():
                if e:
                    to_m.setdefault(p, {})[(n, xi)] = e
    m.transfer = (ChainMap(m, x, 0, to_x), ChainMap(x, m, 0, to_m))
    return m


def _minimize_inputs(field):
    """Seeded complexes of both kinds for the minimize oracle: cones of
    random closed maps, their sums and tensors with a root, tensor powers
    of Kronecker and A_2n roots, twisted right projectives, a resolution
    with relations tensored with itself, random two-term complexes over
    k[x]/(x^2), a pivot other than 1 and -1, and a power whose
    differential lists its degrees in decreasing order."""
    kron = kronecker_algebra(field)
    pA = standard_hereditary_resolution(kron)
    u = kronecker_root(kron, 1, -1)
    closed, _, coords = chain_maps(pA, pA, 0)
    rng = SplitMix64(5)
    for _ in range(3):
        c = cone(map_from_vector(pA, pA, 0, coords, random_vector(closed, rng.next_u64())))
        yield c
        yield direct_sum(c, tensor_power(u, 2))
        yield tensor_over_A(c, u)
    for root in ((0, 1), (1, -1)):
        v = kronecker_root(kron, *root)
        yield tensor_power(v, 6)
        y = projective_sum(kron, [0, 1])
        for _ in range(5):
            y = tensor_over_A(y, v)
        yield y
    alg = a2n_algebra(2, field)
    yield tensor_power(a2n_root(alg, 2), 3)
    res = resolution_of_algebra(a4_mod_longest_algebra(field))
    yield tensor_over_A(res, res)
    # over k[x]/(x^2) an entry x is no unit but can gain one from a
    # correction, before unit entries later in dict order
    dual_numbers = build_algebra(Quiver([0], [Arrow("x", 0, 0)]),
                                 [Relation([(1, ("x", "x"))])], 2, field)
    e0, x0 = dual_numbers.idempotent_index(0), _path(dual_numbers, ("x",))
    for _ in range(12):
        dd = {}
        for key in sorted(itertools.product(range(6), repeat=2), key=lambda k: rng.next_u64()):
            entry = {g: field(c) for g, c in ((e0, rng.int_in(-1, 1) * rng.int_in(0, 1)),
                                              (x0, rng.int_in(-2, 2))) if c}
            if entry:
                dd[key] = entry
        yield RightComplex(dual_numbers, {p: [RightSummand(0, p) for _ in range(6)] for p in (0, 1)},
                           {0: dd})
    # S, B -> T, D with the pivot S -> T equal to 2 on the vertex corner
    # e_0Ae_0, which the unit spans, so minimize inverts it by the scalar
    # 1/2; the correction lands on B -> D, whose ends survive
    e0, arrow = kron.idempotent_index(0), kron.corner_indices(1, 0)[0]
    dd = {(0, 0): field(2), (1, 0): field(1), (0, 1): field(3)}
    yield ProjBimodComplex(
        kron, {0: [ProjBimodSummand(0, 0, 0), ProjBimodSummand(0, 0, 0)],
               1: [ProjBimodSummand(0, 0, 1), ProjBimodSummand(0, 1, 1)]},
        {0: {k: {(e0, arrow if k[0] else e0): c} for k, c in dd.items()}})
    yield RightComplex(
        kron, {0: [RightSummand(0, 0), RightSummand(0, 0)],
               1: [RightSummand(0, 1), RightSummand(1, 1)]},
        {0: {k: {arrow if k[0] else e0: c} for k, c in dd.items()}})
    x = tensor_power(kronecker_root(kron, 0, 1), 5)
    yield ProjBimodComplex(kron, x.terms, dict(reversed(x.diff.items())))


def _map_dump(fmap):
    return repr([(p, [(k, [(kk, type(v).__name__, v) for kk, v in e.items()])
                      for k, e in comps.items()])
                 for p, comps in fmap.components.items()]).encode()


@pytest.mark.parametrize("char", [0, 2**31 - 1])
def test_minimize_matches_reference(char):
    inputs = list(_minimize_inputs(Field(char) if char else QQ))
    assert list(inputs[-1].diff) == sorted(inputs[-1].diff, reverse=True)
    cancelled = 0
    for x in inputs:
        for transfer in (False, True):
            got, want = minimize(x, transfer), _reference_minimize(x, transfer)
            assert _canonical_dump(got) == _canonical_dump(want)
            if transfer:
                for g, w in zip(got.transfer, want.transfer):
                    assert _map_dump(g) == _map_dump(w)
        cancelled += x.total_summands() - got.total_summands()
    assert cancelled > 500


# sha256 of the dumps (trace slot left out) of the minimal resolutions of
# the regular and dual-regular bimodules, per algebra and field
# characteristic, and of resolution_of_algebra followed by its augmentation
# with the type of each coefficient.  They pin the resolver value for value.
RESOLUTION_ALGEBRAS = {
    "kronecker": kronecker_algebra,
    "a4_mod_longest": a4_mod_longest_algebra,
    "beilinson2": lambda field: beilinson_algebra(2, field),
}
RESOLUTION_DIGESTS = {
    ("kronecker", "regular", 0):
        "70b275971a004c080222b872ec9971365e3d94c5d024550e797b1a7abc7d32fc",
    ("kronecker", "dual_regular", 0):
        "9a4de75c8bcfc17475a24520cf35e1c59a6b3421875a31e96a29c58ef4639d64",
    ("a4_mod_longest", "regular", 0):
        "bab07dd6d1af67e8caf5e1272900ffc309252210ea652ef4db903f82e066de82",
    ("a4_mod_longest", "dual_regular", 0):
        "ab7a779755593e8560232dc1eb9e71bc43fee8e0bdce6e15461b8af36387d72b",
    ("beilinson2", "regular", 0):
        "a17736777584b444a1bd8391a493fbd9311876299066a29cc95e5366404e1c9a",
    ("beilinson2", "dual_regular", 0):
        "d2d4272a0a66bd6987957c07c112e7a5f63e745ee07aef1c43dadea6a4987835",
    ("kronecker", "regular", 2**31 - 1):
        "0d43a7b6cdc225c7af9004990aadf8d4a36a8480e69647d3070a05ec65690ece",
    ("kronecker", "dual_regular", 2**31 - 1):
        "1924d7a29f898ca3e921e2d9f14012cb52a2d70b891c39dfbc84cf3b04bcd485",
    ("a4_mod_longest", "regular", 2**31 - 1):
        "e81de3430ecd7750bdebeb848ad503671333f055a09d61f7ab918f348ada1873",
    ("a4_mod_longest", "dual_regular", 2**31 - 1):
        "0ceb1e3e9f5df3ebdce2ee2c14ef6add23db827355c1c37f633c4b21f270cce2",
    ("beilinson2", "regular", 2**31 - 1):
        "97f6394ff3150afda7d629717364d487a72d6d9196a33eaba2ea9405a3011ecc",
    ("beilinson2", "dual_regular", 2**31 - 1):
        "dd12ace899391560085e5be270747d71c0088703dcfa27f56439f9d807846a56",
    ("a4_mod_longest", "algebra", 0):
        "a3842d053f2a086a230e831b2dd13deac0bddd625f65f5796d9ca7baffa61ba4",
    ("a4_mod_longest", "algebra", 2**31 - 1):
        "a6dfd380ddfa2d8c448d891246879648e302fdb91e717c2da3faae365039ab66",
}


def _resolution_digest(name, kind, char):
    alg = RESOLUTION_ALGEBRAS[name](Field(char) if char else QQ)
    if kind == "algebra":
        res = resolution_of_algebra(alg)
    else:
        producer = regular_bimodule if kind == "regular" else dual_regular_bimodule
        res = resolve_bimodule(producer(alg))
    h = hashlib.sha256(_canonical_dump(res, skip=("trace",)))
    if kind == "algebra":
        aug = [(g, [(k, type(c).__name__, c) for k, c in elem.items()])
               for g, elem in res.augmentation.items()]
        h.update(repr(aug).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,kind,char", list(RESOLUTION_DIGESTS))
def test_resolution_golden(name, kind, char):
    assert _resolution_digest(name, kind, char) == RESOLUTION_DIGESTS[(name, kind, char)]


def _cohomology_input(name, field):
    if name in RESOLUTION_ALGEBRAS:
        return resolution_of_algebra(RESOLUTION_ALGEBRAS[name](field))
    return tensor_power(kronecker_root(kronecker_algebra(field), 0, 1), int(name[-1]))


def _cohomology_dump(x):
    """ProjBimodComplex.cohomology() in dict order, then the corner
    cohomology of e_v X e_v per vertex v and of X itself."""
    lines = [f"C {x.cohomology()!r}"]
    for v in x.base.vertices:
        lines.append(f"E {v!r} {corner_restricted_cohomology(x, [v])!r}")
    lines.append(f"E None {corner_restricted_cohomology(x)!r}")
    return "\n".join(lines).encode()


# sha256 of _cohomology_dump over the resolutions of three algebras and the
# tensor powers U^(x)l, l = 1..4, of the Kronecker root (s, eps) = (0, 1);
# the dims are integers, so one digest serves both fields.
COHOMOLOGY_DIGESTS = {
    "kronecker": "64233993d4513d7ba66f9cfa7901970f3663f0ff04007dae15f9776fa0298308",
    "a4_mod_longest": "7bbf1c2e2687af6f9241acf63482681cfc4265176ac8b3153a6a2f9600c420bc",
    "beilinson2": "8cbed0e4ea11268b193a8840639a201e552ee90d36e4800b08ccc6169b2f372c",
    "U^1": "91aa36be1926d273c094789e8096f7cf94470d83f1c8fe394e630197b4f4592f",
    "U^2": "c6c44b951fe2c30a849f970dd4441eabea3b0c888091c6023c8620ac6c6d8ba8",
    "U^3": "299fa07cc51b195c1965e968dfedd5deb287038f0fd95cb005f9114cf7f98d7f",
    "U^4": "ccc6c32feef605c2967b4c424b16fcb2436a05264bf106e130eefe201609997c",
}


@pytest.mark.parametrize("char", [0, 2**31 - 1])
@pytest.mark.parametrize("name", list(COHOMOLOGY_DIGESTS))
def test_cohomology_golden(name, char):
    x = _cohomology_input(name, Field(char) if char else QQ)
    assert hashlib.sha256(_cohomology_dump(x)).hexdigest() == COHOMOLOGY_DIGESTS[name]


@pytest.mark.parametrize("name", list(COHOMOLOGY_DIGESTS))
def test_corner_dims_add_up_to_total(name):
    x = _cohomology_input(name, QQ)
    coh = x.cohomology()
    assert coh and list(coh) == x.degrees()
    for p, per in coh.items():
        assert sum(d for uv, d in per.items() if uv != "total") == per["total"]
    assert {p: per["total"] for p, per in coh.items() if per["total"]} == (
        x.cohomology_dims())


# sha256 of the dumps of tensor_power(u, l), l = 1..6, per root and field
# characteristic: the summands with their traces, then the differential
# entries in dict order with the type of each coefficient.  They pin the
# flattened power itself, not only what minimize makes of it.
TENSOR_POWER_DIGESTS = {
    (("kronecker", 0, 1), 0):
        "86c4d7964523b773115f205b5e88cc70e80a39640bcfc9441fc858a84acef944",
    (("kronecker", 0, -1), 0):
        "0bb80d8879127164e56e0bc515917b2c7667dd1509ecca48cd2095047694c259",
    (("kronecker", 1, 1), 0):
        "f30a03f3e89141a44a68c05f63c1201247b18cad25ac9ebe299055c45651728f",
    (("kronecker", 1, -1), 0):
        "6fe7fb65b36a795da0786df025aa50624022542773ef0441b312e8ab1798d616",
    (("a2n", 1), 0):
        "ffc234eb91c2ec88c8c119180dbcfac984df21ffbec963c07cbd220d4d6c4794",
    (("a2n", 2), 0):
        "23d1c995ac95bdc19008a8b03e671a853c6ddceb86004a052c5f304fbd9764b5",
    (("kronecker", 0, 1), 2**31 - 1):
        "684b7e5884a64af90c59e343d402bd3d85dddb3206e319abaeb963b8e6bf3981",
    (("kronecker", 0, -1), 2**31 - 1):
        "da019f751264eb3dfe34902382658dcbdbde9bf8df3f9cf5136052f45b68c688",
    (("kronecker", 1, 1), 2**31 - 1):
        "b23f15c4abddcb8c1f32d232c93e8c6e0f2d5a844f2d3728cd37c5353c88085e",
    (("kronecker", 1, -1), 2**31 - 1):
        "b0d7fde1e168e8de733a2b6a4d2dc4fdb3208c373bf75a09bfcbc18bcc58e4dc",
    (("a2n", 1), 2**31 - 1):
        "bbcf565eaeea39d4c396029ee6c0d66bc536ec620b08b876a017ab8f2286ae53",
    (("a2n", 2), 2**31 - 1):
        "9b3c37869a747e11a7c744ce91adf4519c0b47329d0c925cf1f2231f127f5c7b",
}


def _root(name, char):
    field = Field(char) if char else QQ
    if name[0] == "kronecker":
        return kronecker_root(kronecker_algebra(field), *name[1:])
    n = name[1]
    return a2n_root(a2n_algebra(n, field), n)


@pytest.mark.parametrize("name,char", list(TENSOR_POWER_DIGESTS))
def test_tensor_power_golden(name, char):
    u = _root(name, char)
    h = hashlib.sha256()
    for l in range(1, 7):
        h.update(_canonical_dump(tensor_power(u, l)))
    assert h.hexdigest() == TENSOR_POWER_DIGESTS[(name, char)]


def _reference_tensor_power(u, n):
    """tensor_power as it was before it placed a target chain by offsets:
    every target built as a flat tuple and looked up by its hash.

    Summand traces are (summand_keys, middle_keys): summand_keys a tuple of
    (cdeg, idx) into u, middle_keys a tuple of algebra basis indices with
    middles[t] in e_{right(S_t)} A e_{left(S_{t+1})}.

    The image of d at position t of a chain depends only on the factor
    S_t, the middles on either side of it (none at an end) and the parity
    of the degrees before it, so each such local pattern is worked out
    once per call, and a factor without an outgoing differential is
    skipped.
    """
    alg = u.base
    f = alg.field
    if n == 0:
        raise ValueError("use the resolution of A for the 0-th power")
    # a chain is the flat tuple (S_0, m_0, S_1, ..., m_{n-2}, S_{n-1}) of
    # factor ids (positions in keys) and middles
    keys = [(p, i) for p, ss in u.terms.items() for i in range(len(ss))]
    fid = {key: k for k, key in enumerate(keys)}
    factor = [u.terms[p][i] for p, i in keys]
    # the (middle, factor, added degree, added Adams degree) after each factor
    succ = [
        [
            (m, k2, keys[k2][0], alg.basis[m].adeg + s2.adeg)
            for k2, s2 in enumerate(factor)
            for m in alg.corner_indices(s.right, s2.left)
        ]
        for s in factor
    ]
    chains = [((k,), keys[k][0], s.adeg) for k, s in enumerate(factor)]
    for _ in range(n - 1):
        chains = [
            (flat + (m, k2), deg + dp, adeg + da)
            for flat, deg, adeg in chains
            for m, k2, dp, da in succ[flat[-1]]
        ]
    terms = {}
    index = {}  # flat chain -> its index in its degree
    for flat, deg, adeg in chains:
        ts = terms.setdefault(deg, [])
        index[flat] = len(ts)
        ts.append(ProjBimodSummand(
            factor[flat[0]].left, factor[flat[-1]].right, deg, adeg,
            trace=(tuple(map(keys.__getitem__, flat[::2])), flat[1::2]),
        ))
    out = {p: _by_source(dd) for p, dd in u.diff.items()}
    has_d = [bool(out.get(p, {}).get(si)) for p, si in keys]  # d leaves factor k
    patterns = {}

    def pattern(k, lm, rm):
        """d on factor k between the middles lm and rm (None at an end):
        (the factor and middles it puts in place of k and its neighbouring
        middles, a component, b component, (coefficient, its negation) or
        None when the coefficient is 0), a component None for the chain's
        left idempotent and b component None for its right one."""
        p, si = keys[k]
        pats = []
        for t2, entry in out.get(p, {}).get(si, ()):
            k2 = fid.get((p + 1, t2))
            if k2 is None:
                continue
            for (alpha, beta), c in entry.items():
                # absorb alpha to the left, beta to the right
                left_opts = [((k2,), alpha, c)] if lm is None else [
                    ((m2, k2), None, f.mul(c, cm))
                    for m2, cm in alg.mult(lm, alpha).items()
                ]
                for mid, a, c1 in left_opts:
                    right_opts = [(mid, beta, c1)] if rm is None else [
                        (mid + (m2,), None, f.mul(c1, cm))
                        for m2, cm in alg.mult(beta, rm).items()
                    ]
                    for repl, b, c2 in right_opts:
                        pats.append((repl, a, b, (c2, f.neg(c2)) if c2 else None))
        return pats

    e_left = [alg.idempotent_index(s.left) for s in factor]
    e_right = [alg.idempotent_index(s.right) for s in factor]
    odd_deg = [p & 1 for p, _ in keys]
    last = 2 * n - 2
    diff = {}
    for flat, deg, _ in chains:
        s_idx = index[flat]
        e_first, e_last = e_left[flat[0]], e_right[flat[-1]]
        dd = diff.get(deg)
        odd = 0  # parity of the cohomological degree of the factors before k
        for pos in range(0, last + 1, 2):
            k = flat[pos]
            if not has_d[k]:
                odd ^= odd_deg[k]
                continue
            lo = pos - 1 if pos else pos
            hi = pos + 2 if pos < last else pos + 1
            pk = (k, flat[lo] if pos else None, flat[pos + 1] if pos < last else None)
            pats = patterns.get(pk)
            if pats is None:
                pats = patterns[pk] = pattern(*pk)
            head, tail = flat[:lo], flat[hi:]
            for repl, a, b, cs in pats:
                t_idx = index.get(head + repl + tail)
                if t_idx is None:
                    continue
                if dd is None:
                    dd = diff[deg] = {}
                e = dd.get((t_idx, s_idx))
                if e is None:
                    e = dd[(t_idx, s_idx)] = {}
                if cs is None:
                    continue
                key = (e_first if a is None else a, e_last if b is None else b)
                old = e.get(key)
                if old is None:
                    e[key] = cs[odd]
                    continue
                val = f.add(old, cs[odd])
                if val == 0:
                    del e[key]
                else:
                    e[key] = val
            odd ^= odd_deg[k]
    return ProjBimodComplex(alg, terms, diff)


# U^{(x)6} of the P^2 root has 269,532 summands and 1.3 M entries; the
# fifth power (31,098 summands) already crosses every factor pattern
P2_TOP = 5


def _power_roots(field):
    """(name, U, highest power checked): the four Kronecker roots, the A_2
    and A_4 roots with d = 1 and 3, and the P^2 root, resolved."""
    kron = kronecker_algebra(field)
    for s in (0, 1):
        for eps in (1, -1):
            yield f"kronecker s={s} eps={eps}", kronecker_root(kron, s, eps), 6
    for n in (1, 2):
        alg = a2n_algebra(n, field)
        for d in (1, 3):
            yield f"A_{2 * n} d={d}", a2n_root(alg, n, d=d), 6
    _, u, _ = matrix_root_pair(polynomial_algebra(["x0", "x1", "x2"], 4, field), 3)
    yield "P^2", resolve_bimodule(u, len_bound=6), P2_TOP


@pytest.mark.parametrize("char", [0, 2**31 - 1])
def test_tensor_power_matches_reference(char):
    for name, u, top in _power_roots(Field(char) if char else QQ):
        for l in range(1, top + 1):
            got, want = tensor_power(u, l), _reference_tensor_power(u, l)
            assert _canonical_dump(got) == _canonical_dump(want), (name, l)


def _flat(coord):
    """A coordinate as a flat tuple of ints, however it nests."""
    out = []
    for c in coord:
        out.extend(_flat(c) if isinstance(c, tuple) else (c,))
    return tuple(out)


def _matrix_dump(cols, src, tgt):
    """Source and target coordinates, flattened, then each column sorted."""
    lines = [repr([_flat(c) for c in src]), repr([_flat(c) for c in tgt])]
    lines += [repr(sorted(col.items())) for col in cols]
    return "\n".join(lines).encode()


# sha256 of the Hom differentials, degrees -8 .. 7, of (pA^dual, U^{(x)2}),
# (U^{(x)3}, U^{(x)3}), (X, X) and (X, e_0A + e_1A) with
# X = (e_0A + e_1A) (x) U^{(x)3}, per root and field characteristic:
# coordinates flattened to tuples of ints, then every column as sorted
# (row, value) pairs.
HOM_DIFF_DIGESTS = {
    (("kronecker", 0, 1), 0):
        "6534dc5ca0ff93fdccb84d6e3ae76119775a3a5036e540ebc3e4043764f2db01",
    (("kronecker", 1, -1), 0):
        "c58c0491f60955dd0931d634e9e984cf56c7e62ef5268c15f668bfd51cabd65c",
    (("a2n", 1), 0):
        "50c09ff01b4c225baeddf475f2f112ee441276255458b984b5590b8c5d3841d1",
    (("kronecker", 0, 1), 2**31 - 1):
        "58801737cb891265d52d8a0ede25be6aa477a9559de3619efdc172a347689d97",
}


@pytest.mark.parametrize("name,char", list(HOM_DIFF_DIGESTS))
def test_hom_differentials_golden(name, char):
    u = _root(name, char)
    alg = u.base
    power = tensor_power(u, 3)
    p = projective_sum(alg, alg.vertices)
    x = p
    for _ in range(3):
        x = tensor_over_A(x, u)
    pairs = [(bimodule_dual(resolution_of_algebra(alg)), tensor_power(u, 2)),
             (power, power)]
    homs = [HomComplex(x, x), HomComplex(x, p)]
    h = hashlib.sha256()
    for r in range(-8, 8):
        for a, b in pairs:
            h.update(_matrix_dump(*hom_diff_matrix(a, b, r)))
        for hom in homs:
            h.update(_matrix_dump(*hom.diff_matrix(r)))
    assert h.hexdigest() == HOM_DIFF_DIGESTS[(name, char)]


# sha256 of the dumps of shifts by -1 and 2 of the minimized twist chain
# P_0 (x) U^{(x)3}, and of its direct sums with e_0A + e_1A on either side,
# per Kronecker root (s, eps)
RIGHT_SHIFT_SUM_DIGESTS = {
    (0, 1): "8b6f5d3ae52ba844d7c81e07012b9b9ab059ec470001c301eea31af4041a908d",
    (1, -1): "c494c94e13dd2ceefabcbf3deb89864278b506fe2e819916631a60814f57530a",
}


@pytest.mark.parametrize("root", sorted(RIGHT_SHIFT_SUM_DIGESTS))
def test_right_shift_and_sum_golden(kron, root):
    u = kronecker_root(kron, *root)
    y = projective_sum(kron, [0])
    for _ in range(3):
        y = minimize(tensor_over_A(y, u))
    p = shift(projective_sum(kron, kron.vertices), -1)
    h = hashlib.sha256()
    for cx in (shift(y, -1), shift(y, 2), direct_sum(y, p),
               direct_sum(p, y)):
        h.update(_canonical_dump(cx))
    assert h.hexdigest() == RIGHT_SHIFT_SUM_DIGESTS[root]


# sha256 of the summands of e_v U^{(x)l}, l = 1..4, as sorted
# (vertex, cdeg, adeg) triples, per root and position of v among the
# vertices
ONE_SIDED_DIGESTS = {
    (("kronecker", 0, 1), 0):
        "8392c9e9c2b52225e6ea785f9e95facc696c923081d32852f6aec94c24d7fe01",
    (("kronecker", 0, 1), 1):
        "1296f9c051b65ce5d800958707a783110bcdfd75d78e3fd41b955a07005910af",
    (("kronecker", 1, -1), 0):
        "5fb8849d45f2a98fa92a95b315e22e8b5a30ae08ac2f6da766005decfb79fb34",
    (("kronecker", 1, -1), 1):
        "37d0a4e9979a3929b1011e2c8aa9cf9bb742249599395aa109c5b6eec1148937",
    (("a2n", 1), 0):
        "ce6f8b84039dbf4af9605d54d49d2e11b414085113b11b5cbbde0fff1af27d59",
    (("a2n", 1), 1):
        "6f3398693e841dedc79466994f6d4e73869773dfe7323cd6e1acd94b90495c06",
}


@pytest.mark.parametrize("name,i", list(ONE_SIDED_DIGESTS))
def test_one_sided_summands_golden(name, i):
    u = _root(name, 0)
    v = u.base.vertices[i]
    h = hashlib.sha256()
    for l in range(1, 5):
        e_u = one_sided(tensor_power(u, l), [v])
        h.update(repr(sorted((t.vertex, t.cdeg, t.adeg)
                             for ts in e_u.terms.values() for t in ts)).encode())
    assert h.hexdigest() == ONE_SIDED_DIGESTS[(name, i)]


def test_kronecker_power_11_reach(kron):
    # one class per vertex pair and tensor position: 4 * (l + 1) in degree 0
    m = minimize(tensor_power(kronecker_root(kron, 0, 1), 11))
    assert m.cohomology_dims() == {0: 48}


def _compose_entries_oracle(alg, g_entry, f_entry):
    """compose_entries as the plain nested loop over both entries."""
    f = alg.field
    out = {}
    for (a1, b1), c1 in f_entry.items():
        for (a2, b2), c2 in g_entry.items():
            aa = alg.mult(a1, a2)
            if not aa:
                continue
            bb = alg.mult(b2, b1)
            if not bb:
                continue
            c = f.mul(c1, c2)
            for ai, ca in aa.items():
                for bi, cb in bb.items():
                    k = (ai, bi)
                    val = f.add(out.get(k, f.zero()), f.mul(c, f.mul(ca, cb)))
                    if val == 0:
                        out.pop(k, None)
                    else:
                        out[k] = val
    return out


def _changed_basis(alg, rng):
    """The algebra in a new basis: each radical basis element becomes a
    random nonzero multiple of itself plus random multiples of the radical
    elements before it, so products spread over several basis elements
    with coefficients other than 1.  The new elements leave their corners,
    which compose_entries does not read."""
    f = alg.field
    rad = alg.radical_indices()
    cols = [{i: f.one()} for i in range(alg.dim)]  # new basis in the old one
    for pos, i in enumerate(rad):
        cols[i] = {i: f(rng.int_in(1, 5), rng.int_in(1, 3))}
        for j in rad[:pos]:
            c = rng.int_in(-2, 2)
            if c:
                cols[i][j] = f(c)
    mult = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = {}
            for k, ck in cols[i].items():
                for l, cl in cols[j].items():
                    for m, cm in alg.mult(k, l).items():
                        prod[m] = f.add(prod.get(m, f.zero()), f.mul(f.mul(ck, cl), cm))
            prod = {m: c for m, c in prod.items() if c}
            if prod:
                mult[(i, j)] = solve_linear(cols, alg.dim, prod, f)
    return PathBasisAlgebra(alg.quiver, alg.basis, mult, alg.idempotents, f)


@pytest.mark.parametrize("char", [0, 2**31 - 1])
def test_compose_entries_matches_nested_loop(char):
    field = Field(char) if char else QQ
    a2 = linear_an_algebra(2, field)
    u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
    e = transported_pair(a2, u, a2, u, [1], seed=1)["algebra"]
    assert e.dim == 9
    rng = SplitMix64(11)
    alg = _changed_basis(e, rng)
    assert alg.check_associativity() and alg.check_unit()
    constants = [c for prod in alg._mult.values() for c in prod.values()]
    assert any(c != 1 for c in constants)
    assert any(len(prod) > 1 for prod in alg._mult.values())

    def random_entry():
        return {(rng.int_in(0, alg.dim - 1), rng.int_in(0, alg.dim - 1)):
                field(rng.int_in(-9, 9) or 1, rng.int_in(1, 4))
                for _ in range(rng.int_in(1, 12))}

    nonzero = 0
    for _ in range(300):
        g, f_ = random_entry(), random_entry()
        got = compose_entries(alg, g, f_)
        want = _compose_entries_oracle(alg, g, f_)
        assert [(k, type(v), v) for k, v in got.items()] == [
            (k, type(v), v) for k, v in want.items()]
        nonzero += bool(want)
    assert nonzero > 100


@pytest.mark.parametrize("old,new,names", [
    ("bimodcx", "complexes",
     ["ProjBimodSummand", "RightSummand", "entry_scale", "entry_add", "compose_entries",
      "assemble", "_by_source", "_by_target", "_Complex", "ProjBimodComplex", "RightComplex"]),
    ("quiveralg", "quiver", ["Arrow", "Quiver"]),
], ids=["complexes", "quiver"])
def test_moved_names_stay_importable_from_their_old_module(old, new, names):
    import importlib

    old_mod = importlib.import_module(f"cyfold.{old}")
    new_mod = importlib.import_module(f"cyfold.{new}")
    for name in names:
        assert getattr(old_mod, name) is getattr(new_mod, name), name
        assert getattr(new_mod, name).__module__ == new_mod.__name__, name
