"""Invariants of the complex constructions on random small acyclic quivers.

Path algebras of quivers with at most three vertices and three arrows
(arrows only run from a lower to a higher vertex, so every quiver is
acyclic), built with build_algebra, without relations and with zero
relations on paths of length two.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cyfold.bimodcx import (
    chain_maps,
    cone,
    inverse_dualizing,
    map_from_vector,
    minimize,
    resolution_of_algebra,
    tensor_over_A,
    tensor_power,
)
from cyfold.completion import completion, corner_restricted_cohomology
from cyfold.exactlin import SplitMix64, random_vector
from cyfold.quiveralg import Arrow, Quiver, Relation, build_algebra


def _quivers(draw):
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return Quiver(list(range(n)), [Arrow(f"a{k}", i, j) for k, (i, j) in enumerate(ends)])


@st.composite
def path_algebras(draw):
    return build_algebra(_quivers(draw), [], 3)


@st.composite
def bound_path_algebras(draw):
    """Path algebras modulo a drawn set of zero relations b a = 0."""
    q = _quivers(draw)
    paths = [(b.name, a.name) for a in q.arrows for b in q.arrows if a.target == b.source]
    zero = draw(st.lists(st.sampled_from(paths), unique=True)) if paths else []
    return build_algebra(q, [Relation([(1, p)]) for p in zero], 3)


def _unit_entries(cx):
    out = []
    for p, dd in cx.diff.items():
        ss, ts = cx.summands(p), cx.summands(p + 1)
        for (t, s), entry in dd.items():
            unit = cx._unit_key(ss[s], ts[t])
            if unit is not None and entry.get(unit):
                out.append((p, t, s))
    return out


def _term_dims(cx):
    return {p: len(cx.coords(p)) for p in cx.degrees()}


def _check_minimize(cx):
    m = minimize(cx)
    assert m.validate() == []
    assert m.cohomology_dims() == cx.cohomology_dims()
    assert _unit_entries(m) == []


@settings(max_examples=25, deadline=None)
@given(path_algebras())
def test_resolution_is_algebra(alg):
    res = resolution_of_algebra(alg)
    assert res.validate() == []
    assert res.cohomology_dims() == {0: len(alg.basis)}


@settings(max_examples=25, deadline=None)
@given(path_algebras())
def test_minimize_tensor_keeps_cohomology(alg):
    res = resolution_of_algebra(alg)
    _check_minimize(tensor_over_A(res, res))
    _check_minimize(tensor_over_A(tensor_over_A(res, res), res))


@settings(max_examples=25, deadline=None)
@given(path_algebras(), st.integers(0, 2**32))
def test_minimize_cone_keeps_cohomology(alg, seed):
    res = resolution_of_algebra(alg)
    closed, _, coords = chain_maps(res, res, 0)
    vec = random_vector(closed, SplitMix64(seed).next_u64())
    _check_minimize(cone(map_from_vector(res, res, 0, coords, vec)))


@settings(max_examples=25, deadline=None)
@given(path_algebras())
def test_tensor_term_dims_associative(alg):
    res = resolution_of_algebra(alg)
    rr = tensor_over_A(res, res)
    left = tensor_over_A(rr, res)
    right = tensor_over_A(res, rr)
    assert _term_dims(left) == _term_dims(right)


@settings(max_examples=15, deadline=None)
@given(bound_path_algebras(), st.data())
def test_iterated_tables_match_flattened(alg, data):
    """Corner tables of the minimal powers of U = Theta[1], Theta the inverse
    dualizing complex, against those of the flattened powers."""
    e = data.draw(st.lists(st.sampled_from(alg.vertices), min_size=1, unique=True))
    u = inverse_dualizing(alg, 1)
    flat = {
        (p, l): d
        for l in (1, 2, 3)
        for p, d in corner_restricted_cohomology(tensor_power(u, l), e).items()
    }
    table = completion(alg, u, e, 3).table
    assert {k: d for k, d in table.items() if k[1]} == flat
