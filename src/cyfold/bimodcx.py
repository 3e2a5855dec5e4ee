"""Constructions on bounded complexes of projective bimodules and of
right projectives over a path-basis algebra.

The complex classes, their summands, the entry encoding, validate and
cohomology_dims are in complexes; every name there is re-exported here.

Shifts, sums, cones, tensor products with a bimodule complex, Hom
complexes, chain maps and minimize are written once for both kinds; each
complex class supplies the few hooks listed on complexes._Complex.

Sign conventions (pinned by golden tests):
  * shift: d_{X[n]} = (-1)^n d_X, with X[n]^p = X^{n+p};
  * tensor: d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy;
  * dual: an entry at target degree q dualizes to -(-1)^q times the
    component swap, and a degree-r map f is closed when
    d_Y f = (-1)^r f d_X.
"""

import heapq
import itertools

from . import Inconclusive
from .complexes import (  # noqa: F401  compose_entries and _Complex are re-exported
    ProjBimodComplex,
    ProjBimodSummand,
    RightComplex,
    RightSummand,
    _by_source,
    _by_target,
    _Complex,
    assemble,
    compose_entries,
    entry_add,
    entry_scale,
)
from .exactlin import (
    IncrementalSpan,
    PreparedSolver,
    Subspace,
    cohomology_dim,
    combine_sparse,
    derive_seed,
    kernel_basis,
    random_vector,
    solve_linear,
    sparse_transpose,
)


def projective_sum(alg, vertices) -> RightComplex:
    """The right complex e_{v_1}A + ... + e_{v_n}A in degree 0."""
    return RightComplex(alg, {0: [RightSummand(v, 0) for v in vertices]}, {})


def shift(x, n: int):
    """X[n] with X[n]^p = X^{p+n} and differential (-1)^n d."""
    f = x.base.field
    sgn = f(1) if n % 2 == 0 else f(-1)
    terms = {p - n: [s.at(p - n) for s in ss] for p, ss in x.terms.items()}
    diff = {
        p - n: {key: entry_scale(entry, sgn, f) for key, entry in dd.items()}
        for p, dd in x.diff.items()
    }
    return type(x)(x.base, terms, diff)


def direct_sum(x, y):
    terms = {}
    offsets = {}
    for p in sorted(set(x.terms) | set(y.terms)):
        xs = x.summands(p)
        terms[p] = xs + y.summands(p)
        offsets[p] = len(xs)
    diff = {p: dict(dd) for p, dd in x.diff.items()}
    for p, dd in y.diff.items():
        off_s = offsets.get(p, 0)
        off_t = offsets.get(p + 1, 0)
        for (t, s), entry in dd.items():
            diff.setdefault(p, {})[(t + off_t, s + off_s)] = entry
    return type(x)(x.base, terms, diff)


class ChainMap:
    """Degree-r map of complexes: components[p] maps X^p -> Y^{p+r}."""

    def __init__(self, source, target, degree, components):
        self.source = source
        self.target = target
        self.degree = degree
        self.components = {p: dict(c) for p, c in components.items() if c}

    def entry(self, p, t_idx, s_idx):
        return self.components.get(p, {}).get((t_idx, s_idx), {})

    def is_closed(self):
        """d_Y f = (-1)^r f d_X on every degree."""
        x = self.source
        f = x.base.field
        sgn = f(1) if self.degree % 2 == 0 else f(-1)
        for p in x.degrees():
            acc = {}
            y_out = _by_source(self.target.diff.get(p + self.degree, {}))
            for (m, s), e0 in self.components.get(p, {}).items():
                for t, e1 in y_out.get(m, ()):
                    entry_add(acc.setdefault((t, s), {}), x._compose(e1, e0), f)
            f_out = _by_source(self.components.get(p + 1, {}))
            for (m, s), e0 in x.diff.get(p, {}).items():
                for t, e1 in f_out.get(m, ()):
                    entry_add(acc.setdefault((t, s), {}),
                              entry_scale(x._compose(e1, e0), f.neg(sgn), f), f)
            for entry in acc.values():
                if entry:
                    return False
        return True


def cone(fmap: ChainMap):
    """Mapping cone of a closed degree-0 map: C^p = Y^p + X^{p+1}."""
    if fmap.degree != 0:
        raise ValueError("cone expects a degree-0 map")
    x, y = fmap.source, fmap.target
    f = x.base.field
    terms = {}
    yoff = {}
    for p in sorted(set(y.terms) | {q - 1 for q in x.terms}):
        ys = y.summands(p)
        terms[p] = ys + [s.at(p) for s in x.summands(p + 1)]
        yoff[p] = len(ys)
    diff = {p: dict(dd) for p, dd in y.diff.items()}
    for p, dd in x.diff.items():
        # X-part at cone degree p-1 mapping to cone degree p
        off_s = yoff.get(p - 1, 0)
        off_t = yoff.get(p, 0)
        for (t, s), entry in dd.items():
            diff.setdefault(p - 1, {})[(t + off_t, s + off_s)] = entry_scale(
                entry, f(-1), f
            )
    for p, comps in fmap.components.items():
        # f: X^p -> Y^p sits as cone degree p-1 -> p
        off_s = yoff.get(p - 1, 0)
        for (t, s), entry in comps.items():
            diff.setdefault(p - 1, {})[(t, s + off_s)] = entry
    return type(x)(x.base, terms, diff)


class NotHereditary(Exception):
    pass


def standard_hereditary_resolution(alg):
    """Two-term projective bimodule resolution of a relation-free path algebra."""
    quiver = alg.quiver
    if quiver is None:
        raise NotHereditary("algebra has no quiver presentation")
    if not quiver.arrows and alg.radical_indices():
        # structure constants without arrows: no path length tells a
        # relation-free algebra apart
        raise NotHereditary("radical not presented by arrows; use resolve_bimodule")
    for bi in alg.basis:
        for bj in alg.basis:
            if bj.target != bi.source:
                continue
            prod = alg.mult(bi.index, bj.index)
            expected_len = len(bi.path) + len(bj.path)
            single = len(prod) == 1 and all(
                c == alg.field.one() and len(alg.basis[k].path) == expected_len
                for k, c in prod.items()
            )
            if not single:
                raise NotHereditary("relations present; use resolve_bimodule")
    arrows = quiver.arrows
    terms = {
        -1: [ProjBimodSummand(a.target, a.source, -1, 0, trace=a.name) for a in arrows],
        0: [ProjBimodSummand(v, v, 0, 0, trace=v) for v in quiver.vertices],
    }
    vpos = {v: i for i, v in enumerate(quiver.vertices)}
    f = alg.field
    path_idx = {}
    for b in alg.basis:
        path_idx[(b.source, b.path)] = b.index
    diff = {-1: {}}
    for a_idx, a in enumerate(arrows):
        x = path_idx[(a.source, (a.name,))]
        es = alg.idempotent_index(a.source)
        et = alg.idempotent_index(a.target)
        # x (x) e_s  into  (s, s)
        diff[-1][(vpos[a.source], a_idx)] = {(x, es): f.one()}
        # -e_t (x) x  into  (t, t)
        diff[-1][(vpos[a.target], a_idx)] = {(et, x): f.neg(f.one())}
    aug = {
        vpos[v]: {alg.idempotent_index(v): f.one()} for v in quiver.vertices
    }
    cx = ProjBimodComplex(alg, terms, diff, augmentation=aug)
    return cx


def tensor_over_A(x, u: ProjBimodComplex):
    """x (x)_A u for a complex x of either kind and a bimodule complex u.

    A summand S of x and T of u spread over e_{right(S)}Ae_{left(T)}: each
    basis element m gives S with right vertex right(T), traced
    ((p, s_idx), m, (q, t_idx)).
    """
    if x.base is not u.base:
        raise ValueError("tensor requires a common base algebra")
    alg = x.base
    f = alg.field
    terms = {}
    index = {}
    for p, xs in x.terms.items():
        for q, us in u.terms.items():
            for si, s in enumerate(xs):
                for ti, t in enumerate(us):
                    for m in alg.corner_indices(s.right, t.left):
                        deg = p + q
                        key = ((p, si), m, (q, ti))
                        ts = terms.setdefault(deg, [])
                        index[key] = len(ts)
                        ts.append(s.with_right(
                            t.right, deg, s.adeg + t.adeg + alg.basis[m].adeg, key))
    diff = {}
    x_out = {p: _by_source(dd) for p, dd in x.diff.items()}
    u_out = {q: _by_source(dd) for q, dd in u.diff.items()}
    split, join = x._split, x._join

    def add(deg, t_idx, s_idx, k, v):
        e = diff.setdefault(deg, {}).setdefault((t_idx, s_idx), {})
        old = e.get(k)
        if old is None:
            if v:
                e[k] = v
            return
        val = f.add(old, v)
        if val == 0:
            del e[k]
        else:
            e[k] = val

    for key, s_idx in index.items():
        (p, si), m, (q, ti) = key
        deg = p + q
        # d_x (x) 1: the right part of an entry joins the middle
        e_l = alg.idempotent_index(u.terms[q][ti].right)
        for t2, entry in x_out.get(p, {}).get(si, ()):
            for k, c in entry.items():
                left, beta = split(k)
                for m2, cm in alg.mult(beta, m).items():
                    add(deg, index[((p + 1, t2), m2, (q, ti))], s_idx,
                        join(left, e_l), c if cm == 1 else f.mul(c, cm))
        # (-1)^p 1 (x) d_u: the left part alpha of an entry joins the middle
        e_i = x._left_unit(x.terms[p][si])
        for t2, entry in u_out.get(q, {}).get(ti, ()):
            for (alpha, beta), c in entry.items():
                for m2, cm in alg.mult(m, alpha).items():
                    c1 = c if cm == 1 else f.mul(c, cm)
                    add(deg, index[((p, si), m2, (q + 1, t2))], s_idx,
                        join(e_i, beta), f.neg(c1) if p % 2 else c1)
    return type(x)(alg, terms, diff)


def one_sided(x: ProjBimodComplex, e_vertices) -> RightComplex:
    """e X = eA (x)_A X for the idempotent e summing e_vertices, a complex
    of right projectives: each summand (i, j) of X gives one e_jA per
    basis element of eAe_i."""
    return tensor_over_A(projective_sum(x.base, e_vertices), x)


def tensor_power(u: ProjBimodComplex, n: int) -> ProjBimodComplex:
    """n-fold tensor power with flattened chain labels.

    Summand traces are (summand_keys, middle_keys): summand_keys a tuple of
    (cdeg, idx) into u, middle_keys a tuple of algebra basis indices with
    middles[t] in e_{right(S_t)} A e_{left(S_{t+1})}.

    The image of d at position t of a chain depends only on the factor
    S_t, the middles on either side of it (none at an end) and the parity
    of the degrees before it, and a factor without an outgoing
    differential is skipped.  A chain's place in the enumeration is a sum
    of offsets, one per factor, each fixed by the factor before it, the
    successor chosen and the number of factors left, so d at position t
    moves a chain by an amount fixed by t, the factors on either side of
    S_t and the local pattern.  Each such move, with its entries for both
    parities, is worked out once per call and per pair of end vertices.

    Equal entries are one dict: every key whose entry has the same items
    in the same order holds the same object, so U^(x)10 of a Kronecker
    root keeps 20 entry dicts for its 16,308 keys.  Like every entry (see
    complexes), they are read-only; code that writes to one copies it
    first.
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

    def extend(chains):
        return ((flat + (m, k2), deg + dp, adeg + da)
                for flat, deg, adeg in chains
                for m, k2, dp, da in succ[flat[-1]])

    # (flat chain, degree, Adams degree) in enumeration order.  The chains
    # one factor short are kept, and each of the two passes below extends
    # them afresh, so the longest chains are never all held at once.
    heads = [((k,), keys[k][0], s.adeg) for k, s in enumerate(factor)]
    for _ in range(n - 2):
        heads = list(extend(heads))

    def chains():
        return extend(heads) if n > 1 else heads

    out = {p: _by_source(dd) for p, dd in u.diff.items()}
    has_d = [bool(out.get(p, {}).get(si)) for p, si in keys]  # d leaves factor k
    e_left = [alg.idempotent_index(s.left) for s in factor]
    e_right = [alg.idempotent_index(s.right) for s in factor]
    local = {}  # (e_first, e_last, factor position) -> {window: moves}

    def plan(fseq):
        """What the chains with factors fseq share: the keys of their
        factors, their end vertices and, per factor with a differential,
        its position in the flat chain, the parity of the degrees before
        it and the cache of its moves."""
        ef, el = e_left[fseq[0]], e_right[fseq[-1]]
        steps = []
        odd = 0
        for i, k in enumerate(fseq):
            if has_d[k]:
                steps.append((2 * i, odd, local.setdefault((ef, el, i), {})))
            odd ^= keys[k][0] & 1
        return (tuple(map(keys.__getitem__, fseq)), factor[fseq[0]].left,
                factor[fseq[-1]].right, ef, el, steps)

    terms = {}
    place = []  # each chain's index in its degree, in enumeration order
    plans, chain_plan = {}, []
    for flat, deg, adeg in chains():
        fseq = flat[::2]
        pl = plans.get(fseq)
        if pl is None:
            pl = plans[fseq] = plan(fseq)
        chain_plan.append(pl)
        ts = terms.setdefault(deg, [])
        place.append(len(ts))
        ts.append(ProjBimodSummand(pl[1], pl[2], deg, adeg, trace=(pl[0], flat[1::2])))
    # the enumeration puts chain (k_0, c_1, ..., c_{n-1}), c_i the choice of
    # (m_{i-1}, k_i) in succ[k_{i-1}], at first[k_0] + the sum over i of
    # before[i][k_{i-1}][c_i], the chains under the choices ahead of c_i
    choice = [{(m, k2): c for c, (m, k2, _, _) in enumerate(opts)} for opts in succ]
    below = [1] * len(factor)  # chains under each factor at factor i
    before = [None] * n
    for i in range(n - 1, 0, -1):
        before[i] = [list(itertools.accumulate((below[k2] for _, k2, _, _ in opts), initial=0))
                     for opts in succ]
        below = [acc[-1] for acc in before[i]]
    first = list(itertools.accumulate(below, initial=0))

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
                    ((m2, k2), None, c if cm == 1 else f.mul(c, cm))
                    for m2, cm in alg.mult(lm, alpha).items()
                ]
                for mid, a, c1 in left_opts:
                    right_opts = [(mid, beta, c1)] if rm is None else [
                        (mid + (m2,), None, c1 if cm == 1 else f.mul(c1, cm))
                        for m2, cm in alg.mult(beta, rm).items()
                    ]
                    for repl, b, c2 in right_opts:
                        pats.append((repl, a, b, (c2, f.neg(c2)) if c2 else None))
        return pats

    patterns = {}  # an entry's items, in order -> the one dict holding them

    def intern(entry):
        return patterns.setdefault(tuple(entry.items()), entry)

    def moves(i, window, e_first, e_last):
        """d at factor i of the chains around window = (factor i-1, its
        middle, factor i, its middle, factor i+1), None off the ends: a
        list of (move in the enumeration, its entry for an even and for an
        odd degree before factor i), one per target chain, in the order
        the targets are first met."""
        kp, lm, k, rm, kn = window
        out_of_k = first[k] if i == 0 else before[i][kp][choice[kp][(lm, k)]]
        if i < n - 1:
            out_of_k += before[i + 1][k][choice[k][(rm, kn)]]
        targets = {}
        j = 0 if lm is None else 1  # where the new factor sits in repl
        for repl, a, b, cs in pattern(k, lm, rm):
            k2 = repl[j]
            if i == 0:
                into = first[k2]
            else:
                c2 = choice[kp].get((repl[0], k2))
                if c2 is None:  # not a chain
                    continue
                into = before[i][kp][c2]
            if i < n - 1:
                c2 = choice[k2].get((repl[j + 1], kn))
                if c2 is None:
                    continue
                into += before[i + 1][k2][c2]
            t = targets.get(repl)
            if t is None:
                t = targets[repl] = (into - out_of_k, {}, {})
            if cs is None:
                continue
            key = (e_first if a is None else a, e_last if b is None else b)
            for e, v in zip(t[1:], cs):
                entry_add(e, {key: v}, f)
        return [(move, (intern(even), intern(odd))) for move, even, odd in targets.values()]

    ends = (None, None)
    diff = {}
    for g, (flat, deg, _) in enumerate(chains()):
        _, _, _, ef, el, steps = chain_plan[g]
        if not steps:
            continue
        s_idx = place[g]
        padded = ends + flat + ends
        dd = diff.get(deg)
        for pos, odd, cache in steps:
            window = padded[pos:pos + 5]
            mv = cache.get(window)
            if mv is None:
                mv = cache[window] = moves(pos >> 1, window, ef, el)
            if mv:
                if dd is None:
                    dd = diff[deg] = {}
                for move, entries in mv:
                    dd[(place[g + move], s_idx)] = entries[odd]
    return ProjBimodComplex(alg, terms, diff)


def bimodule_dual(x: ProjBimodComplex) -> ProjBimodComplex:
    """Hom into the enveloping algebra: (i,j) at p becomes (j,i) at -p."""
    f = x.base.field
    terms = {}
    for p, ss in x.terms.items():
        terms[-p] = [
            ProjBimodSummand(s.right, s.left, -p, -s.adeg, trace=("dual", s.trace))
            for s in ss
        ]
    diff = {}
    for p, dd in x.diff.items():
        # f: X^p -> X^{p+1} dualizes to (X^{p+1})* -> (X^p)*, degrees -p-1 -> -p
        sgn = f(-1) if (p + 1) % 2 == 0 else f(1)  # -(-1)^q with q = p+1
        for (t_idx, s_idx), entry in dd.items():
            swapped = {(beta, alpha): f.mul(sgn, c) for (alpha, beta), c in entry.items()}
            entry_add(
                diff.setdefault(-p - 1, {}).setdefault((s_idx, t_idx), {}),
                swapped,
                f,
            )
    return ProjBimodComplex(x.base, terms, diff)



def hom_coords(x, y, r):
    """Coordinates of the degree-r maps x -> y: (p, s_idx, t_idx, key) for
    each entry key of x._hom_basis from summand s_idx of X^p to summand
    t_idx of Y^{p+r}."""
    out = []
    for p in x.degrees():
        ys = y.summands(p + r)
        if not ys:
            continue
        for s_idx, s in enumerate(x.summands(p)):
            for t_idx, t in enumerate(ys):
                out.extend((p, s_idx, t_idx, key) for key in x._hom_basis(s, t))
    return out


def hom_diff_matrix(x, y, r):
    """Sparse columns of the Hom-complex differential
    delta f = d_Y f - (-1)^r f d_X from degree-r to degree-(r+1) map
    coordinates: (columns, src, tgt)."""
    f = x.base.field
    one = f.one()
    y_out = {q: _by_source(dd) for q, dd in y.diff.items()}
    x_in = {p: _by_target(dd) for p, dd in x.diff.items()}

    def image(coord):
        p, s_idx, t_idx, key = coord
        g = {key: one}
        # d_Y o f: lands in Y^{p+r+1}
        for t2, entry in y_out.get(p + r, {}).get(t_idx, ()):
            for k, c in x._compose(entry, g).items():
                yield (p, s_idx, t2, k), c
        # -(-1)^r f o d_X: from X^{p-1}
        for s2, entry in x_in.get(p - 1, {}).get(s_idx, ()):
            for k, c in x._compose(g, entry).items():
                yield (p - 1, s2, t_idx, k), c if r % 2 else f.neg(c)

    src = hom_coords(x, y, r)
    tgt = hom_coords(x, y, r + 1)
    return assemble(src, tgt, image, f), src, tgt


class HomComplex:
    """Hom complex of two complexes of one kind, on hom_coords."""

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def diff_matrix(self, r):
        return hom_diff_matrix(self.x, self.y, r)

    def cohomology_dim(self, r):
        d, src, _ = self.diff_matrix(r)
        return cohomology_dim(len(src), d, self.diff_matrix(r - 1)[0], self.x.base.field)


def closed_maps(x, y, r: int):
    """Degree-r closed maps x -> y: (the kernel of delta_r as a Subspace of
    the coordinate space, coordinates hom_coords(x, y, r))."""
    delta, coords, tgt = hom_diff_matrix(x, y, r)
    return kernel_basis(delta, len(tgt), x.base.field), coords


def chain_maps(x, y, r: int):
    """Degree-r maps x -> y: (closed subspace, boundary subspace, coordinates).

    Coordinates are hom_coords(x, y, r); both subspaces live in that
    coordinate space.  The closed maps are closed_maps(x, y, r), the
    boundaries spanned by independent columns of delta_{r-1}.
    """
    f = x.base.field
    closed, coords = closed_maps(x, y, r)
    span = IncrementalSpan(f)
    boundaries = [col for col in hom_diff_matrix(x, y, r - 1)[0] if span.add(col)]
    return closed, Subspace(len(coords), boundaries, f), coords


def h0_representatives(diff_matrix, field):
    """Cocycles whose classes are a basis of H^0 of a complex, given its
    diff_matrix(p) -> (columns, src, tgt).  The cycles are ker d^0, every
    coordinate when d^0 is empty, and the nonzero columns of d^{-1} seed
    the span that picks the representatives.  Returns (degree-0
    coordinates, representatives, a PreparedSolver writing a cocycle over
    the representatives followed by the boundaries, None when both are
    empty)."""
    d0, coords, tgt = diff_matrix(0)
    bounds = [col for col in diff_matrix(-1)[0] if col]
    span = IncrementalSpan(field)
    for col in bounds:
        span.add(col)
    reps = [z for z in kernel_basis(d0, len(tgt), field).basis if span.add(z)]
    cols = reps + bounds
    return coords, reps, PreparedSolver(cols, len(coords), field) if cols else None


def map_from_vector(x, y, r, coords, vec) -> ChainMap:
    """The chain map of a sparse vector over map coordinates, built in
    coordinate order."""
    f = x.base.field
    comps = {}
    for i in sorted(vec):
        p, s_idx, t_idx, key = coords[i]
        entry = comps.setdefault(p, {}).setdefault((t_idx, s_idx), {})
        entry[key] = f.add(entry.get(key, f.zero()), vec[i])
    return ChainMap(x, y, r, comps)


def identity_map(x) -> ChainMap:
    one = x.base.field.one()
    comps = {}
    for p, ss in x.terms.items():
        for i, s in enumerate(ss):
            comps.setdefault(p, {})[(i, i)] = {x._unit_key(s, s): one}
    return ChainMap(x, x, 0, comps)


def is_quasi_iso(fmap: ChainMap) -> bool:
    if fmap.degree == 0:
        return cone(fmap).is_acyclic()
    shifted = shift(fmap.source, -fmap.degree)
    comps = {p + fmap.degree: c for p, c in fmap.components.items()}
    g = ChainMap(shifted, fmap.target, 0, comps)
    return cone(g).is_acyclic()


def find_quasi_iso(x, y, r, trials=24, seed=0):
    """Random search for a degree-r quasi-isomorphism x -> y.

    Returns a closed ChainMap whose cone is acyclic, or None after the
    given number of seeded trials (absence is not a proof).
    """
    closed, coords = closed_maps(x, y, r)
    if closed.dim == 0:
        return None
    for t in range(trials):
        vec = random_vector(closed, derive_seed(seed, t))
        if not vec:
            continue
        fmap = map_from_vector(x, y, r, coords, vec)
        if is_quasi_iso(fmap):
            return fmap
    return None


def minimize(x, transfer=False):
    """Strip contractible pairs by Gaussian elimination on unit entries.

    Serves ProjBimodComplex and RightComplex and returns the same type.
    The complex supplies what differs between the two: the class of a
    summand (``_unit_class``) and its identity's key (``_unit_key``), the
    entry keys of a summand's endomorphisms (``_hom_basis(s, s)``) and the
    entry product g o f (``_compose``).  x is never changed, and the
    result shares no entry dict with it: an entry is copied when a
    correction first writes to it, and the survivors when the result is
    built.

    Pivot order, on which the output and its order depend: degree by
    degree in dict order, the pair cancelled next is the first unit entry
    of d^p in dict order, and its corrections are added column entry by
    row entry, each in dict order.  Summands keep their ids while pairs
    are cancelled and are renumbered once, at the end.

    Each cancellation costs only the entries it touches.  The cancelled
    summand ids are kept per degree.  On entering degree p, one pass over
    x's d^p, skipping the entries with a cancelled source or target (the
    degrees of x.diff need not come in increasing order), builds the
    working d^p, its indexes by source and by target summand (dicts that
    see the same inserts and deletes as d^p, so they keep its relative
    order), the insertion ranks and the list of unit entries.  An entry is
    a unit entry when its source and target summands have the same class
    and it holds the source's identity key; each summand's class is worked
    out once, and the identity key once per class.  Unit entries are taken
    in rank order, which is dict order: a cursor walks the listed ones,
    merged with a min-heap that holds only the entries that gain their
    unit later.  A key deleted and re-created
    gets a new rank, and stale items are skipped.  The entries that a
    later degree's cancellation leaves with a cancelled end are dropped
    once, when the result is built.

    A pivot c u + ... (u the identity key) is inverted by the scalar 1/c
    when its summand's endomorphism corner is one-dimensional, as every
    vertex corner of a path algebra of an acyclic quiver is; -X o beta is
    then beta scaled, and only other corners go through ``_invert``.  A
    correction that lands on no entry becomes the entry as it is.

    With ``transfer=True`` the returned complex m also carries
    ``m.transfer = (iota, pi)``: chain maps iota: m -> x and pi: x -> m
    with pi iota = 1 and iota pi homotopic to 1, the deformation retract
    of Gaussian elimination (Skoldberg 2006, Crainic 2004).  Cancelling
    b: S -> T with inverse X, beta = d|B->T and gamma = d|S->D for the
    other summands B, D of the two degrees, gives iota(B) = B - X beta(B),
    pi(S) = 0, pi(T) = -gamma X and the identity elsewhere; both maps are
    updated pair by pair, iota by columns and pi by rows, keyed by
    (degree, summand id).
    """
    f = x.base.field
    one, minus = f.one(), f(-1)
    compose = x._compose
    diff = {}
    dead = {}  # degree -> ids of its cancelled summands
    iota, pi = {}, {}  # only with transfer: columns of iota, rows of pi
    classes = {}  # summand class -> (class id, identity key, corner is 1-dim)
    summand_class = {}  # degree -> class id of each summand

    def class_ids(p):
        ids = summand_class.get(p)
        if ids is None:
            ids = summand_class[p] = []
            for s in x.summands(p):
                c = x._unit_class(s)
                got = classes.get(c)
                if got is None:
                    unit = x._unit_key(s, s)
                    got = classes[c] = (len(classes), unit, len(x._hom_basis(s, s)) == 1)
                ids.append(got[0])
        return ids

    def unit_map(p, i):
        s = x.summands(p)[i]
        return {i: {x._unit_key(s, s): f.one()}}
    # A cancellation at degree p rewrites entries of degree p only and
    # kills summands that entries at p - 1 and p + 1 touch, so the degrees
    # done before p still hold no unit entry.
    for p, shared in x.diff.items():  # shared: entries of x, copied before a write
        ss = x.summands(p)
        s_cls, t_cls = class_ids(p), class_ids(p + 1)
        info = list(classes.values())  # by class id
        s_unit = [info[c][1] for c in s_cls]
        s_dead, t_dead = dead.setdefault(p, set()), dead.setdefault(p + 1, set())
        dd = diff[p] = {}
        by_src = [{} for _ in ss]  # s -> {t: entry}
        by_tgt = [{} for _ in t_cls]  # t -> {s: entry}
        rank, pending, heap = {}, [], []
        tick = 0
        for key, entry in shared.items():
            t, s = key
            if not entry or s in s_dead or t in t_dead:
                continue
            dd[key] = entry
            rank[key] = tick
            by_src[s][t] = entry
            by_tgt[t][s] = entry
            if s_cls[s] == t_cls[t] and entry.get(s_unit[s]):
                pending.append((tick, key, s_unit[s]))
            tick += 1
        nxt = 0  # cursor into pending
        while True:
            if heap and (nxt == len(pending) or heap[0][0] < pending[nxt][0]):
                r, key, unit = heapq.heappop(heap)
            elif nxt < len(pending):
                r, key, unit = pending[nxt]
                nxt += 1
            else:
                break
            entry = dd.get(key)
            if entry is None or rank[key] != r or not entry.get(unit):
                continue
            t_idx, s_idx = key
            col, row = by_src[s_idx], by_tgt[t_idx]  # pivot aside
            by_src[s_idx] = by_tgt[t_idx] = None
            del col[t_idx], row[s_idx], dd[key]
            for t in col:
                del dd[(t, s_idx)], by_tgt[t][s_idx]
            for s in row:
                del dd[(t_idx, s)], by_src[s][t_idx]
            inv, inv_row = None, []  # -X and -X o b, X the pivot's inverse
            if (col and row) or (transfer and (col or row)):
                if info[s_cls[s_idx]][2]:  # X = 1/c, so -X o b is b scaled
                    c = entry[unit]
                    if c == minus:
                        inv, inv_row = {unit: one}, list(row.items())
                    elif c == one:
                        inv = {unit: minus}
                        inv_row = [(s2, {k: f.neg(v) for k, v in be.items()})
                                   for s2, be in row.items()]
                    else:
                        c = f.mul(minus, f.inv(c))
                        inv = {unit: c}
                        inv_row = [(s2, entry_scale(be, c, f)) for s2, be in row.items()]
                else:
                    inv = entry_scale(_invert(x, ss[s_idx], entry), minus, f)
                    inv_row = [(s2, compose(inv, be)) for s2, be in row.items()]
            if transfer:
                _transfer_step(x, iota, pi, unit_map, p, s_idx, t_idx, inv, inv_row, col)
            for t2, ce in col.items():
                for s2, ib in inv_row:
                    corr = compose(ce, ib)
                    if not corr:
                        continue
                    k2 = (t2, s2)
                    e = dd.get(k2)
                    if e is None:  # corr is a new dict without zeros
                        e = dd[k2] = by_src[s2][t2] = by_tgt[t2][s2] = corr
                        rank[k2] = tick
                        tick += 1
                    else:
                        if e is shared.get(k2):
                            e = dd[k2] = by_src[s2][t2] = by_tgt[t2][s2] = dict(e)
                        entry_add(e, corr, f)
                        if not e:
                            del dd[k2], by_src[s2][t2], by_tgt[t2][s2]
                            continue
                    if s_cls[s2] == t_cls[t2] and e.get(s_unit[s2]):
                        heapq.heappush(heap, (rank[k2], k2, s_unit[s2]))
            s_dead.add(s_idx)
            t_dead.add(t_idx)
    terms = {}
    new_id = {}
    for p, ss in x.terms.items():
        gone = dead.get(p, ())
        keep = [i for i in range(len(ss)) if i not in gone]
        new_id[p] = {i: n for n, i in enumerate(keep)}
        terms[p] = [ss[i] for i in keep]
    for p, dd in diff.items():  # drop the entries with a cancelled end
        s_ids, t_ids = new_id.get(p, {}), new_id.get(p + 1, {})
        diff[p] = {(t_ids[t], s_ids[s]): dict(e) for (t, s), e in dd.items()
                   if s in s_ids and t in t_ids}
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


def _transfer_step(x, iota, pi, unit_map, p, s_idx, t_idx, inv, inv_row, col):
    """Compose minimize's transfer maps with those of one cancelled pair
    S = (p, s_idx) -> T = (p + 1, t_idx): iota(B) -= iota(S) X beta(B) and
    pi(D) -= gamma(D) X pi(T), then S and T leave both maps.  inv is -X and
    inv_row holds the -X beta(B)."""
    f = x.base.field
    s_col = iota.pop((p, s_idx), None) or unit_map(p, s_idx)
    for s2, step in inv_row:
        dst = iota.get((p, s2)) or iota.setdefault((p, s2), unit_map(p, s2))
        for xi, e in s_col.items():
            entry_add(dst.setdefault(xi, {}), x._compose(e, step), f)
    t_row = pi.pop((p + 1, t_idx), None) or unit_map(p + 1, t_idx)
    for t2, ce in col.items():
        step = x._compose(ce, inv)
        dst = pi.get((p + 1, t2)) or pi.setdefault((p + 1, t2), unit_map(p + 1, t2))
        for xi, e in t_row.items():
            entry_add(dst.setdefault(xi, {}), x._compose(step, e), f)
    iota.pop((p + 1, t_idx), None)
    pi.pop((p, s_idx), None)


def _invert(x, summand, entry):
    """X with entry o X = 1 in the endomorphism corner of a summand, for an
    entry whose unit coefficient is invertible.  minimize calls it only
    when the corner is more than the unit's multiples."""
    f = x.base.field
    basis = x._hom_basis(summand, summand)
    pos = {b: k for k, b in enumerate(basis)}
    cols = [{pos[b2]: c for b2, c in x._compose(entry, {b: f.one()}).items()}
            for b in basis]
    unit = {pos[x._unit_key(summand, summand)]: f.one()}
    sol = solve_linear(cols, len(basis), unit, f)
    if sol is None:
        raise ValueError("entry is not invertible")
    return {basis[k]: c for k, c in sol.items()}


class BoundExceeded(Inconclusive):
    pass


class BimoduleData:
    """(A, B)-bimodule by sparse action rows on a coordinate space.

    left_action[k][i] = {j: coeff of m_j in a_k * m_i};
    right_action[k][i] = {j: coeff of m_j in m_i * b_k};
    each row holds its nonzeros only.  Vectors in and out of the actions
    are sparse too, {i: coeff}, so an action costs what its support
    touches.
    """

    def __init__(self, left_alg, right_alg, dim, left_action, right_action):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_action = left_action
        self.right_action = right_action

    @property
    def field(self):
        return self.left_alg.field

    def left_act(self, k, vec):
        return combine_sparse(vec, self.left_action[k], self.field)

    def right_act(self, k, vec):
        return combine_sparse(vec, self.right_action[k], self.field)

    def corner_project(self, u, v, vec):
        eu = self.left_alg.idempotent_index(u)
        ev = self.right_alg.idempotent_index(v)
        return self.right_act(ev, self.left_act(eu, vec))

    def check_bimodule(self):
        one = self.field.one()
        A, B = self.left_alg, self.right_alg
        for i in range(self.dim):
            vec = {i: one}
            for ka in range(A.dim):
                for kb in range(B.dim):
                    lr = self.right_act(kb, self.left_act(ka, vec))
                    rl = self.left_act(ka, self.right_act(kb, vec))
                    if lr != rl:
                        return False
        return True


def regular_bimodule(alg) -> BimoduleData:
    n = alg.dim
    left = [[{t: c for t, c in alg.mult(k, i).items() if c} for i in range(n)]
            for k in range(n)]
    right = [[{t: c for t, c in alg.mult(i, k).items() if c} for i in range(n)]
             for k in range(n)]
    return BimoduleData(alg, alg, n, left, right)


def dual_regular_bimodule(alg) -> BimoduleData:
    """D(A) = Homk(A, k) with (a.f)(m) = f(ma), (f.a)(m) = f(am)."""
    n = alg.dim
    left = [[{} for _ in range(n)] for _ in range(n)]
    right = [[{} for _ in range(n)] for _ in range(n)]
    # a_k . delta_i = sum_j <delta_i, m_j a_k> delta_j, and on the right
    # delta_i . a_k = sum_j <delta_i, a_k m_j> delta_j: each product m_j a_k
    # with a nonzero coefficient c at m_i puts c at (i, j)
    for k in range(n):
        for j in range(n):
            for i, c in alg.mult(j, k).items():
                if c:
                    left[k][i][j] = c
            for i, c in alg.mult(k, j).items():
                if c:
                    right[k][i][j] = c
    return BimoduleData(alg, alg, n, left, right)


class CoverStep:
    """One projective cover: generators tagged (u, v) plus generator lifts."""

    def __init__(self, generators, lifts):
        self.generators = generators  # list of (u, v)
        self.lifts = lifts  # list of sparse vectors in the covered space

    def coords(self, left_alg, right_alg):
        out = []
        for g, (u, v) in enumerate(self.generators):
            for a in (b.index for b in left_alg.basis if b.source == u):
                for bb in (b.index for b in right_alg.basis if b.target == v):
                    out.append((g, a, bb))
        return out

    def generator_columns(self, cols, left_alg, right_alg):
        """The columns of cols, one per coordinate, at the generators
        (g, e_u, e_v) themselves."""
        col_of = {c: i for i, c in enumerate(self.coords(left_alg, right_alg))}
        return [cols[col_of[(g, left_alg.idempotent_index(u), right_alg.idempotent_index(v))]]
                for g, (u, v) in enumerate(self.generators)]


def _top_generators(m: BimoduleData):
    """Corner-tagged lifts of a basis of M / (rad M + M rad)."""
    f = m.field
    A, B = m.left_alg, m.right_alg
    span = IncrementalSpan(f)
    for r in A.radical_indices():
        for row in m.left_action[r]:
            span.add(row)
    for r in B.radical_indices():
        for row in m.right_action[r]:
            span.add(row)
    gens = []
    one = f.one()
    for i in range(m.dim):
        unit = {i: one}
        if span.contains(unit):
            continue
        for u in A.vertices:
            for v in B.vertices:
                w = m.corner_project(u, v, unit)
                if w and span.add(w):
                    gens.append(((u, v), w))
    return gens


def cover_images(m: BimoduleData, step, coords):
    """The images in m of the coordinates (g, a, b) = a . lift_g . b of the
    free bimodule on a cover step, as sparse vectors."""
    return [m.right_act(bb, m.left_act(a, step.lifts[g])) for (g, a, bb) in coords]


def _free_bimodule(A, B, step: CoverStep) -> BimoduleData:
    coords = step.coords(A, B)
    pos = {c: i for i, c in enumerate(coords)}
    # distinct products land on distinct coordinates, so no entry repeats
    left = [[{pos[(g, a2, bb)]: c for a2, c in A.mult(k, a).items() if (g, a2, bb) in pos}
             for (g, a, bb) in coords] for k in range(A.dim)]
    right = [[{pos[(g, a, b2)]: c for b2, c in B.mult(bb, k).items() if (g, a, b2) in pos}
              for (g, a, bb) in coords] for k in range(B.dim)]
    return BimoduleData(A, B, len(coords), left, right)


def _sub_bimodule(m: BimoduleData, rows):
    """Restrict the actions to the span of independent sparse rows, an
    action-stable subspace; returns (sub data, the rows as its inclusion)."""
    solver = PreparedSolver(rows, m.dim, m.field)

    def restrict(act):
        images = [solver.solve(combine_sparse(r, act, m.field)) for r in rows]
        if None in images:
            raise ValueError("subspace is not action-stable")
        return images

    sub = BimoduleData(m.left_alg, m.right_alg, len(rows),
                       [restrict(act) for act in m.left_action],
                       [restrict(act) for act in m.right_action])
    return sub, rows


def _direct_sum_bimodule(xk, p):
    """X + P, block diagonal: the rows of X, then those of P shifted by
    dim X."""
    if xk is None:
        return p
    xdim = xk.dim

    def blocks(x_rows, p_rows):
        return x_rows + [{xdim + j: v for j, v in row.items()} for row in p_rows]

    return BimoduleData(
        p.left_alg, p.right_alg, xdim + p.dim,
        [blocks(xa, pa) for xa, pa in zip(xk.left_action, p.left_action)],
        [blocks(xa, pa) for xa, pa in zip(xk.right_action, p.right_action)],
    )


class CoordComplex:
    """Bounded complex of (A, B)-bimodules in coordinates; a bimodule is
    the complex with one term in degree 0."""

    def __init__(self, left_alg, right_alg, modules, diffs):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.modules = dict(modules)  # degree -> BimoduleData
        self.diffs = dict(diffs)  # degree p -> sparse columns of X^p -> X^{p+1}

    def degrees(self):
        return sorted(self.modules)

    def diff(self, p):
        return self.diffs.get(p)

    def cohomology_dims(self):
        out = {}
        for p in self.degrees():
            d = cohomology_dim(self.modules[p].dim, self.diffs.get(p), self.diffs.get(p - 1),
                               self.left_alg.field)
            if d:
                out[p] = d
        return out


def _pullback_module(x, k, prev_free, q_upper, d_upper, f):
    """Submodule of X^k + P_{k+1} of the pairs (xv, pv) with d_X xv = q(pv)
    and d_P pv = 0; q_upper and d_upper hold the images of the coordinates
    of P_{k+1} in X^{k+1} and in P_{k+2}."""
    xk = x.modules.get(k)
    xdim = xk.dim if xk is not None else 0
    # one equation per coordinate of X^{k+1} and per coordinate of P_{k+2}
    eqs = {}
    dxk = x.diffs.get(k)
    if dxk is not None:
        for i, row in enumerate(sparse_transpose(dxk, x.modules[k + 1].dim)):
            if row:
                eqs[("x", i)] = row
    for c, col in enumerate(q_upper):
        for i, v in col.items():
            eqs.setdefault(("x", i), {})[xdim + c] = f.neg(v)
    for c, col in enumerate(d_upper or ()):
        for i, v in col.items():
            eqs.setdefault(("p", i), {})[xdim + c] = v
    ncols = xdim + prev_free.dim
    ker = kernel_basis(sparse_transpose(list(eqs.values()), ncols), len(eqs), f).basis
    return _sub_bimodule(_direct_sum_bimodule(xk, prev_free), ker)


def resolution_steps(x: CoordComplex, len_bound):
    """Cover steps of a surjective quasi-isomorphism P -> X from a complex
    of free (A, B)-bimodules, for any two algebras.

    Built from the top degree t of X down: each stage covers the pullback
    of the previous stage's cycles against the incoming differential.  P
    stays in degrees t - len_bound .. t; BoundExceeded means a nonzero
    pullback remains below that.  Returns (steps, q, d), keyed by degree
    from the top down: q[k] and d[k] hold the images of the coordinates of
    P_k in X^k and in P_{k+1} (no d at the top), as sparse vectors.
    """
    A, B = x.left_alg, x.right_alg
    f = A.field
    steps, q_maps, d_maps = {}, {}, {}
    degs = x.degrees()
    if not degs:
        return steps, q_maps, d_maps
    bottom, top = degs[0], degs[-1]
    target, incl = x.modules[top], None
    k = top
    while target.dim or k >= bottom:
        if target.dim and top - k > len_bound:
            raise BoundExceeded(f"a nonzero syzygy remains past length {len_bound}")
        gens = _top_generators(target)
        step = CoverStep([g for g, _ in gens], [w for _, w in gens])
        images = cover_images(target, step, step.coords(A, B))
        if incl is None:
            q_maps[k] = images
        else:
            # split each image in X^k + P_{k+1} into its two components
            xdim = x.modules[k].dim if k in x.modules else 0
            q_maps[k], d_maps[k] = [], []
            for vec in images:
                amb = combine_sparse(vec, incl, f)
                q_maps[k].append({j: v for j, v in amb.items() if j < xdim})
                d_maps[k].append({j - xdim: v for j, v in amb.items() if j >= xdim})
        steps[k] = step
        # V = {(xv, pv) : d_X xv = q(pv), d_P pv = 0}
        target, incl = _pullback_module(
            x, k - 1, _free_bimodule(A, B, step), q_maps[k], d_maps.get(k), f)
        k -= 1
    return steps, q_maps, d_maps


def resolve_complex(x: CoordComplex, len_bound=16):
    """Surjective quasi-isomorphism from a complex of projective bimodules,
    for equal algebras on both sides (see resolution_steps, which also
    says what len_bound bounds).

    Returns (ProjBimodComplex, cover steps, q), with q[k] the images in X^k
    of the coordinates of P_k as sparse vectors.
    """
    A = x.left_alg
    if A is not x.right_alg:
        raise ValueError("projective complexes need equal algebras both sides")
    steps, q_maps, d_maps = resolution_steps(x, len_bound)
    terms = {
        deg: [ProjBimodSummand(u, v, deg, 0, trace=("res", deg, g))
              for g, (u, v) in enumerate(step.generators)]
        for deg, step in steps.items()
    }
    diff = {}
    for deg, cols in d_maps.items():
        upper = steps[deg + 1].coords(A, A)
        dd = {}
        for g2, vec in enumerate(steps[deg].generator_columns(cols, A, A)):
            for ridx, c in sorted(vec.items()):
                g, a, bb = upper[ridx]
                dd.setdefault((g, g2), {})[(a, bb)] = c
        diff[deg] = dd
    return ProjBimodComplex(A, terms, diff), steps, q_maps


def resolve_bimodule(m: BimoduleData, len_bound=12) -> ProjBimodComplex:
    """Minimal projective bimodule resolution, as a complex in degrees
    0 .. -len_bound, without augmentation.

    Requires left and right algebras equal; raises BoundExceeded when a
    nonzero syzygy remains past length len_bound.
    """
    return resolve_complex(CoordComplex(m.left_alg, m.right_alg, {0: m}, {}), len_bound)[0]


def resolution_of_algebra(alg, len_bound=12) -> ProjBimodComplex:
    """Projective bimodule resolution of A itself, with augmentation.

    Uses the standard two-term resolution for relation-free path algebras
    and the minimal resolution of the regular bimodule otherwise, augmented
    by the images of its degree-0 generators.
    """
    try:
        return standard_hereditary_resolution(alg)
    except NotHereditary:
        pass
    cx, steps, q = resolve_complex(CoordComplex(alg, alg, {0: regular_bimodule(alg)}, {}),
                                   len_bound)
    cx.augmentation = {g: dict(sorted(vec.items()))
                       for g, vec in enumerate(steps[0].generator_columns(q[0], alg, alg))}
    return cx


def inverse_dualizing(alg, d=0, len_bound=12) -> ProjBimodComplex:
    """Shifted dual of a projective resolution of the regular bimodule."""
    return shift(bimodule_dual(resolution_of_algebra(alg, len_bound)), d)


def relabel_complex(x: ProjBimodComplex, target_alg, vertex_map, basis_map) -> ProjBimodComplex:
    """Move a complex across an algebra isomorphism given by index maps.

    vertex_map takes base vertices to target vertices; basis_map takes base
    basis indices to target basis indices (structure constants must agree,
    which the caller is responsible for checking).
    """
    terms = {}
    for p, ss in x.terms.items():
        terms[p] = [
            ProjBimodSummand(vertex_map[s.left], vertex_map[s.right], p, s.adeg, s.trace)
            for s in ss
        ]
    diff = {}
    for p, dd in x.diff.items():
        diff[p] = {
            key: {(basis_map[a], basis_map[b]): c for (a, b), c in entry.items()}
            for key, entry in dd.items()
        }
    aug = None
    if x.augmentation is not None:
        aug = {
            g: {basis_map[k]: c for k, c in elem.items()}
            for g, elem in x.augmentation.items()
        }
    return ProjBimodComplex(target_alg, terms, diff, augmentation=aug)


def outer_tensor(x: ProjBimodComplex, y: ProjBimodComplex, product_alg, pair_index):
    """(X over A) boxtimes (Y over B) as a complex over A (x) B.

    pair_index maps (a_basis, b_basis) to the product algebra's basis.
    """
    f = product_alg.field
    terms = {}
    index = {}
    for p, xs in x.terms.items():
        for q, ys in y.terms.items():
            for si, s in enumerate(xs):
                for ti, t in enumerate(ys):
                    deg = p + q
                    idx = len(terms.setdefault(deg, []))
                    terms[deg].append(
                        ProjBimodSummand(
                            (s.left, t.left),
                            (s.right, t.right),
                            deg,
                            s.adeg + t.adeg,
                            trace=((p, si), (q, ti)),
                        )
                    )
                    index[((p, si), (q, ti))] = (deg, idx)
    diff = {}
    ea = {v: x.base.idempotent_index(v) for v in x.base.vertices}
    eb = {v: y.base.idempotent_index(v) for v in y.base.vertices}
    for key, (deg, s_idx) in index.items():
        (p, si), (q, ti) = key
        s = x.terms[p][si]
        t = y.terms[q][ti]
        for (s2, m), entry in x.diff.get(p, {}).items():
            if m != si:
                continue
            tgt = index[((p + 1, s2), (q, ti))][1]
            conv = {}
            for (alpha, beta), c in entry.items():
                pa = pair_index[(alpha, eb[t.left])]
                pb = pair_index[(beta, eb[t.right])]
                conv[(pa, pb)] = c
            entry_add(
                diff.setdefault(deg, {}).setdefault((tgt, s_idx), {}), conv, f
            )
        sgn = f(1) if p % 2 == 0 else f(-1)
        for (t2, m), entry in y.diff.get(q, {}).items():
            if m != ti:
                continue
            tgt = index[((p, si), (q + 1, t2))][1]
            conv = {}
            for (alpha, beta), c in entry.items():
                pa = pair_index[(ea[s.left], alpha)]
                pb = pair_index[(ea[s.right], beta)]
                conv[(pa, pb)] = f.mul(sgn, c)
            entry_add(
                diff.setdefault(deg, {}).setdefault((tgt, s_idx), {}), conv, f
            )
    return ProjBimodComplex(product_alg, terms, diff)
