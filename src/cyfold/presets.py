"""Built-in generators for the standard instances.

These are the inputs every golden test and the CLI `gen` subcommand use,
so formulas are written down exactly once.
"""

from .complexes import ProjBimodComplex, ProjBimodSummand
from .exactlin import QQ
from .quiver import Arrow, Quiver
from .quiveralg import Relation, build_algebra


def kronecker_algebra(field=QQ):
    """Path algebra of 0 => 1 with arrows x, y."""
    q = Quiver([0, 1], [Arrow("x", 0, 1), Arrow("y", 0, 1)])
    return build_algebra(q, [], 3, field)


def kronecker_root(alg, s=0, eps=1, xname="x", yname="y", src_v=0, tgt_v=1):
    """Square-root bimodule on a two-vertex double-arrow algebra.

    Two-term complex Ae_1(x)e_0A -> Ae_0(x)e_1A in degrees -s-1, -s with
    e_1(x)e_0 mapping to (-1)^s (x(x)y - eps y(x)x).
    """
    f = alg.field
    x = _path_index(alg, (xname,))
    y = _path_index(alg, (yname,))
    sgn = f(1) if s % 2 == 0 else f(-1)
    terms = {
        -s - 1: [ProjBimodSummand(tgt_v, src_v, -s - 1)],
        -s: [ProjBimodSummand(src_v, tgt_v, -s)],
    }
    diff = {
        -s - 1: {
            (0, 0): {(x, y): sgn, (y, x): f.mul(f(-eps), sgn)},
        }
    }
    return ProjBimodComplex(alg, terms, diff)


def a2n_algebra(n, field=QQ):
    """Type A_{2n} path algebra with arrows x_i: i -> n+i, y_i: i -> n+i+1."""
    verts = list(range(1, 2 * n + 1))
    arrows = [Arrow(f"x{i}", i, n + i) for i in range(1, n + 1)]
    arrows += [Arrow(f"y{i}", i, n + i + 1) for i in range(1, n)]
    return build_algebra(Quiver(verts, arrows), [], 2, field)


def a2n_root(alg, n, d=1, eps=1):
    """Square root of the (2d+1)-shifted inverse dualizing bimodule on A_{2n}.

    Degrees -d-1 and -d; the generator at (2n+1-i, i) maps to
    (-1)^d (x_{n+1-i}(x)x_i + eps y_{n-i}(x)y_i), with y_0 = y_n = 0.
    """
    f = alg.field
    lower = [ProjBimodSummand(2 * n + 1 - i, i, -d - 1) for i in range(1, n + 1)]
    upper = [ProjBimodSummand(i, 2 * n + 1 - i, -d) for i in range(1, n + 1)]
    upper_pos = {s.left: k for k, s in enumerate(upper)}
    sgn = f(1) if d % 2 == 0 else f(-1)
    diff = {-d - 1: {}}
    for k, i in enumerate(range(1, n + 1)):
        entry_targets = {}
        xi = _path_index(alg, (f"x{i}",))
        xn1i = _path_index(alg, (f"x{n + 1 - i}",))
        t_idx = upper_pos[n + 1 - i]
        entry_targets.setdefault(t_idx, {})[(xn1i, xi)] = sgn
        if 1 <= n - i:
            yi = _path_index(alg, (f"y{i}",))
            yni = _path_index(alg, (f"y{n - i}",))
            t2 = upper_pos[n - i]
            entry_targets.setdefault(t2, {})[(yni, yi)] = f.mul(f(eps), sgn)
        for t_idx2, entry in entry_targets.items():
            diff[-d - 1][(t_idx2, k)] = entry
    return ProjBimodComplex(alg, terms={-d - 1: lower, -d: upper}, diff=diff)


def beilinson_algebra(d, field=QQ):
    """d-Beilinson algebra: d+1 vertices, d+1 parallel arrow bundles,
    commutativity relations.  d=1 is the Kronecker algebra."""
    verts = list(range(d + 1))
    arrows = []
    for k in range(d):
        for i in range(d + 1):
            arrows.append(Arrow(f"x{i}_{k}", k, k + 1))
    return build_algebra(Quiver(verts, arrows), beilinson_relations(d), d + 1, field)


def beilinson_relations(d):
    """The commutativity relations x_{i,k+1} x_{j,k} = x_{j,k+1} x_{i,k}
    of the d-Beilinson algebra, i < j."""
    rels = []
    for k in range(d - 1):
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                rels.append(
                    Relation(
                        [
                            (1, (f"x{i}_{k + 1}", f"x{j}_{k}")),
                            (-1, (f"x{j}_{k + 1}", f"x{i}_{k}")),
                        ]
                    )
                )
    return rels


def a4_mod_longest_algebra(field=QQ):
    """Linear A_4 quiver modulo its longest path; dimension 9."""
    q = Quiver(
        [1, 2, 3, 4],
        [Arrow("a1", 1, 2), Arrow("a2", 2, 3), Arrow("a3", 3, 4)],
    )
    return build_algebra(q, a4_mod_longest_relations(), 3, field)


def a4_mod_longest_relations():
    """The one relation a3 a2 a1 = 0 of a4_mod_longest_algebra."""
    return [Relation([(1, ("a3", "a2", "a1"))])]


def linear_an_algebra(n, field=QQ):
    q = Quiver(
        list(range(1, n + 1)),
        [Arrow(f"a{i}", i, i + 1) for i in range(1, n)],
    )
    return build_algebra(q, [], n, field)


def _path_index(alg, path):
    for b in alg.basis:
        if b.path == path:
            return b.index
    raise KeyError(path)


def a2n_completion_presentation(n, d=1, eps=1, field=QQ):
    """Dg path-algebra presentation of the square-root completion on A_{2n}.

    n vertices in the order n, 1, n-1, 2, ...; consecutive vertices joined
    by arrow pairs with letters alternating a, b; a degree (-2d-1, 2) loop
    t on every vertex with dt = a^2 + eps b^2; the last vertex carries one
    extra letter loop (a for n odd, b for n even).
    """
    from .completion import DgPathAlgebra

    order = []
    for p in range(1, n + 1):
        order.append(n - (p - 1) // 2 if p % 2 == 1 else p // 2)
    arrows = []
    letters = {}
    for k in range(n - 1):
        letter = "a" if k % 2 == 0 else "b"
        fwd = f"{letter}{k}f"
        bwd = f"{letter}{k}b"
        arrows.append(Arrow(fwd, order[k], order[k + 1], cdeg=-d, adeg=1))
        arrows.append(Arrow(bwd, order[k + 1], order[k], cdeg=-d, adeg=1))
        letters[fwd] = letter
        letters[bwd] = letter
    last_letter = "a" if n % 2 == 1 else "b"
    loop = f"{last_letter}loop"
    arrows.append(Arrow(loop, order[-1], order[-1], cdeg=-d, adeg=1))
    letters[loop] = last_letter
    tees = []
    for v in order:
        t = f"t{v}"
        arrows.append(Arrow(t, v, v, cdeg=-2 * d - 1, adeg=2))
        tees.append((v, t))
    quiver = Quiver(order, arrows)
    sgn_eps = field(eps)
    differential = {}
    for v, t in tees:
        terms = []
        for x in arrows:
            if letters.get(x.name) is None or x.source != v:
                continue
            for y in arrows:
                if letters.get(y.name) is None:
                    continue
                if y.source != x.target or y.target != v:
                    continue
                if letters[x.name] != letters[y.name]:
                    continue
                coeff = field(1) if letters[x.name] == "a" else sgn_eps
                terms.append((coeff, (y.name, x.name)))
        differential[t] = terms
    return DgPathAlgebra(quiver, differential, field)


def sigma_presentation_quiver():
    """Graded quiver of the Kronecker tensor algebra: u, v forward, t back,
    with the single relation u t v = v t u."""
    q = Quiver(
        [0, 1],
        [
            Arrow("u", 0, 1, cdeg=0, adeg=0),
            Arrow("v", 0, 1, cdeg=0, adeg=0),
            Arrow("t", 1, 0, cdeg=0, adeg=1),
        ],
    )
    rel = Relation([(1, ("u", "t", "v")), (-1, ("v", "t", "u"))])
    return q, [rel]
