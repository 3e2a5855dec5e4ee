import random

import pytest

from cyfold import cluster
from cyfold.bimodcx import dual_regular_bimodule, resolve_bimodule, shift
from cyfold.cluster import (
    NonFreeAction,
    QuiverAuto,
    WindowTooSmall,
    build_zq,
    check_combinatorial_root,
    classify_dynkin_roots,
    cluster_tilting_check,
    d_quiver,
    dynkin_quiver,
    folded_a2n_auto,
    graph_automorphisms,
    identity_auto,
    linear_quiver,
    orbit_count,
    orbit_hom,
    orbit_quiver,
    serre_check,
    shift_functor_auto,
    tau_auto,
    type_a_flip_family,
)
from cyfold.presets import kronecker_algebra, kronecker_root, linear_an_algebra
from cyfold.rootpair import projective_sum


def test_build_zq_counts():
    sl = build_zq(linear_quiver(2), (0, 2))
    assert len(sl.vertices) == 6
    # mesh arrows: (m,1)->(m,2) and (m,2)->(m+1,1)
    assert ((0, 1), (0, 2)) in sl.arrows
    assert ((0, 2), (1, 1)) in sl.arrows
    sl0 = build_zq(linear_quiver(3), (5, 5))
    assert len(sl0.vertices) == 3
    assert all(src[0] == tgt[0] for src, tgt in sl0.arrows)


def test_tau_inverse_identity():
    sl = build_zq(linear_quiver(3), (-4, 4))
    t = tau_auto([1, 2, 3], power=1)
    tinv = tau_auto([1, 2, 3], power=-1)
    comp = t.compose(tinv)
    assert comp.equals_on(identity_auto([1, 2, 3]), sl.interior(1))


def test_a4_flip_is_square_root():
    sl = build_zq(linear_quiver(4), (-10, 10))
    flip = type_a_flip_family(4, -2)
    assert flip.preserves_arrows(sl)
    assert check_combinatorial_root(flip, 2, sl)


def test_tau_inverse_is_first_root():
    sl = build_zq(linear_quiver(3), (-6, 6))
    assert check_combinatorial_root(tau_auto([1, 2, 3], power=-1), 1, sl)


def test_a3_has_no_square_root():
    sl = build_zq(linear_quiver(3), (-16, 16))
    for off in range(-4, 4):
        f = type_a_flip_family(3, off)
        assert not check_combinatorial_root(f, 2, sl)


def test_window_too_small():
    sl = build_zq(linear_quiver(4), (0, 1))
    with pytest.raises(WindowTooSmall):
        check_combinatorial_root(type_a_flip_family(4, -2), 2, sl)


@pytest.mark.parametrize(
    "kind,n,a,expected",
    [
        ("A", 2, 2, True),
        ("A", 3, 2, False),
        ("A", 4, 2, True),
        ("A", 5, 2, False),
        ("A", 6, 2, True),
        ("A", 4, 3, False),
        ("D", 4, 2, False),
        ("D", 4, 3, False),
        ("D", 5, 2, False),
        ("E", 6, 2, False),
        ("E", 7, 2, False),
    ],
)
def test_classification(kind, n, a, expected):
    got, witness = classify_dynkin_roots(kind, n, a, window=10)
    assert got == expected
    if expected:
        sl = build_zq(linear_quiver(n), (-10, 10))
        assert check_combinatorial_root(witness, a, sl)


def test_orbit_fold_d4():
    sl = build_zq(d_quiver(4), (-12, 12))
    assert orbit_count(sl, tau_auto([1, 2, 3, 4], power=4)) == 16
    assert orbit_count(sl, tau_auto([1, 2, 3, 4], power=2)) == 8


def test_orbit_fold_a2n():
    for n, d, expected in [(1, 1, 4), (2, 1, 12), (1, 3, 10)]:
        sl = build_zq(linear_quiver(2 * n), (-14, 14))
        assert orbit_count(sl, folded_a2n_auto(n, d)) == expected


def test_orbit_identity_returns_input():
    sl = build_zq(linear_quiver(2), (0, 2))
    oq = orbit_quiver(sl, identity_auto([1, 2]))
    assert len(oq.vertices) == len(sl.vertices)


def test_orbit_nonfree_rejected():
    sl = build_zq(d_quiver(4), (-6, 6))
    swap = QuiverAuto({1: 1, 2: 2, 3: 4, 4: 3}, {v: 0 for v in [1, 2, 3, 4]})
    with pytest.raises(NonFreeAction):
        orbit_quiver(sl, swap)


def test_dot_output():
    sl = build_zq(linear_quiver(2), (-6, 6))
    oq = orbit_quiver(sl, tau_auto([1, 2], power=2))
    dot = oq.dot("fold")
    assert dot.startswith("digraph fold {")
    assert "cluster_domain" in dot
    assert dot.count("->") == len(oq.arrows)


def test_shift_functor_composition():
    # [2] = tau^{-(k+1)} on ZA_k
    for k in (2, 3, 4):
        s = shift_functor_auto("A", k)
        sl = build_zq(linear_quiver(k), (-12, 12))
        target = tau_auto(list(range(1, k + 1)), power=-(k + 1))
        assert s.power(2).equals_on(target, sl.interior(6))


def test_orbit_hom_zero_complex():
    kr = kronecker_algebra()
    u = kronecker_root(kr, 0, 1)
    from cyfold.bimodcx import RightComplex

    zero = RightComplex(kr, {}, {})
    p = projective_sum(kr, [0])
    dim, conv = orbit_hom(kr, u, zero, p, 3)
    assert dim == 0 and conv


def test_orbit_hom_kronecker_endomorphisms():
    # the window sums grow with the polynomial completion and never
    # converge; the i = 0 term is dim eAe = 1
    kr = kronecker_algebra()
    u = kronecker_root(kr, 0, 1)
    p = projective_sum(kr, [0])
    dim, conv = orbit_hom(kr, u, p, p, 4)
    assert dim == sum(i + 1 for i in range(5))
    assert not conv
    # a negative window sums nothing, which shows no convergence
    assert orbit_hom(kr, u, p, p, -1) == (0, False)


def test_cluster_tilting_vacuous_d1():
    kr = kronecker_algebra()
    u = kronecker_root(kr, 0, 1)
    ok, detail, _ = cluster_tilting_check(kr, u, [0], 1, 3)
    assert ok and detail == {}


def test_serre_on_a2_pair():
    a2 = linear_an_algebra(2)
    u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
    ok, conv, detail = serre_check(a2, u, 1, 10, 12, seed=5)
    assert ok and conv
    # symmetric verdict when swapping sample roles with adjusted shift
    ok2, conv2, _ = serre_check(a2, u, 1, 10, 12, seed=99)
    assert ok2 and conv2


def test_make_root_auto_and_markings():
    q = linear_quiver(4)
    flip = type_a_flip_family(4, -2)
    sl = build_zq(q, (-10, 10))
    assert check_combinatorial_root(flip, 2, sl)
    tw = tau_auto([1, 2, 3, 4], power=-1).compose(flip)
    assert not check_combinatorial_root(tw, 2, sl)
    # markings render as distinguished nodes in DOT
    oq = orbit_quiver(sl, tau_auto([1, 2, 3, 4], power=2), markings={(0, 1)})
    dot = oq.dot()
    assert "doublecircle" in dot


def test_hom_table_csv():
    from cyfold.cluster import HomTable

    t = HomTable(4)
    t.record(("P0", "P1"), 3, True)
    text = t.csv()
    assert text.splitlines()[0] == "x,y,dim,converged,window"
    assert "P0,P1,3,True,4" in text


# The window loops that preserves_arrows and check_combinatorial_root replaced
# with closed forms; they serve as oracles.
def _preserves_arrows_loop(F, sl):
    vertices, arrows = set(sl.vertices), set(sl.arrows)
    for (src, tgt) in sl.arrows:
        fs, ft = F.apply(src), F.apply(tgt)
        if fs in vertices and ft in vertices and (fs, ft) not in arrows:
            return False
    return True


def _check_root_loop(F, a, sl):
    margin = 0
    for s in F.shifts.values():
        margin = max(margin, abs(s))
    interior = sl.interior(margin * a)
    if not interior:
        raise WindowTooSmall("window cannot absorb the composed shifts")
    return F.power(a).equals_on(tau_auto(list(F.rho), power=-1), interior)


def _answer(check, *args):
    try:
        return check(*args)
    except WindowTooSmall:
        return "too small"


DYNKIN_TYPES = ([("A", n) for n in range(1, 10)] + [("D", n) for n in range(4, 10)]
                + [("E", n) for n in (6, 7, 8)])


def _random_auto(rng, kind, n):
    """A random vertex permutation with random shifts, or a candidate of
    the root search with its shifts perturbed at a few vertices, so that
    both answers of each check occur."""
    verts = list(range(1, n + 1))
    if rng.random() < 0.4:
        perm = verts[:]
        rng.shuffle(perm)
        return QuiverAuto(dict(zip(verts, perm)),
                          {v: rng.randint(-3, 3) for v in verts})
    pool = [identity_auto(verts)] + graph_automorphisms(kind, n)
    if kind == "A":
        pool.append(type_a_flip_family(n, rng.randint(-n - 2, 1)))
    g = tau_auto(verts, power=rng.randint(-2, 2)).compose(rng.choice(pool))
    shifts = dict(g.shifts)
    for _ in range(rng.choice((0, 0, 1, 2))):
        shifts[rng.choice(verts)] += rng.choice((-1, 1))
    return QuiverAuto(g.rho, shifts)


def test_closed_forms_match_window_loops():
    rng = random.Random(14)
    for kind, n in DYNKIN_TYPES:
        quiver = dynkin_quiver(kind, n)
        for w in range(13):
            c = rng.randint(-2, 2)
            sl = build_zq(quiver, (c - w, c + w))
            for a in range(1, 5):
                for _ in range(6):
                    F = _random_auto(rng, kind, n)
                    assert F.preserves_arrows(sl) == _preserves_arrows_loop(F, sl)
                    assert (_answer(check_combinatorial_root, F, a, sl)
                            == _answer(_check_root_loop, F, a, sl))



def test_preserves_arrows_rejects_a_combinatorial_root():
    """On A4, rho = (1 2)(3 4) with shifts (-1, 2, -1, 2) squares to
    tau^-1, so check_combinatorial_root accepts it at a = 2, but it sends
    the arrow (m, 1) -> (m, 2) to (m - 1, 2) -> (m + 2, 1), which is no
    arrow of ZA4."""
    sl = build_zq(linear_quiver(4), (-10, 10))
    F = QuiverAuto({1: 2, 2: 1, 3: 4, 4: 3}, {1: -1, 2: 2, 3: -1, 4: 2})
    assert check_combinatorial_root(F, 2, sl)
    assert not F.preserves_arrows(sl)
    assert not _preserves_arrows_loop(F, sl)

@pytest.mark.parametrize("window", [4, 10, 12])
def test_classification_matches_window_loops(monkeypatch, window):
    def search():
        out = []
        for kind, n in DYNKIN_TYPES:
            for a in (2, 3, 4):
                got, F = classify_dynkin_roots(kind, n, a, window)
                out.append((got, F and (F.rho, F.shifts, F.name)))
        return out

    closed = search()
    monkeypatch.setattr(QuiverAuto, "preserves_arrows", _preserves_arrows_loop)
    monkeypatch.setattr(cluster, "check_combinatorial_root", _check_root_loop)
    assert search() == closed
    if window < 10:
        return  # A6 and A8 need more room for their flip
    # the flip is the square root on A2n; no other type has a root
    assert [got for got, _ in closed] == [
        kind == "A" and n % 2 == 0 and a == 2
        for kind, n in DYNKIN_TYPES for a in (2, 3, 4)]


def _classify_arrows_first(kind, n, a, window, too_small):
    """classify_dynkin_roots as it was before it ran the root test first:
    preserves_arrows, then check_combinatorial_root on each candidate.
    Appends to too_small each candidate the window was too small for."""
    quiver = dynkin_quiver(kind, n)
    slice_ = build_zq(quiver, (-window, window))
    verts = list(quiver.vertices)
    candidates = []
    for m in range(-window // 2, window // 2 + 1):
        candidates.append(tau_auto(verts, power=-m, name=f"tau^{m}"))
        for g in graph_automorphisms(kind, n):
            candidates.append(tau_auto(verts, power=-m).compose(g))
    if kind == "A":
        for off in range(-window, window):
            candidates.append(type_a_flip_family(n, off))
    for F in candidates:
        if not F.preserves_arrows(slice_):
            continue
        try:
            if check_combinatorial_root(F, a, slice_):
                return True, F
        except WindowTooSmall:
            too_small.append(F)
            continue
    return False, None


def test_classification_matches_arrows_first_order():
    too_small = []
    types = ([("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
             + [("E", n) for n in (6, 7, 8)])
    for kind, n in types:
        for a in range(1, 5):
            for window in (4, 8, 12):
                got, F = classify_dynkin_roots(kind, n, a, window)
                want, G = _classify_arrows_first(kind, n, a, window, too_small)
                assert (got, F and (F.rho, F.shifts, F.name)) == (
                    want, G and (G.rho, G.shifts, G.name)), (kind, n, a, window)
    assert too_small  # the sweep reaches candidates the window cannot test
