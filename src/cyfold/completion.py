"""Adams-truncated tensor algebras, Calabi-Yau completions, dg path-algebra
cohomology, Segre-family constructions, the graded-algebra <-> matrix
correspondence, and Gorenstein-parameter checks.

The quasi-Veronese, the a-Segre product and the matrix root pair all read
one a x a block matrix algebra over a graded algebra (_matrix_blocks).

All graded computations are windowed by an explicit Adams cutoff N, and
every verdict carries that window.
"""

from . import Inconclusive
from .bimodcx import (
    BimoduleData,
    ProjBimodComplex,
    _by_source,
    assemble,
    compose_entries,
    entry_add,
    h0_representatives,
    minimize,
    resolution_of_algebra,
    tensor_over_A,
)
from .complexes import cohomology_table
from .exactlin import QQ, IncrementalSpan, cohomology_dim, kernel_basis, rank
from .quiveralg import PathBasisAlgebra, Quiver


class NotLocallyFinite(Exception):
    pass


class ResourceLimit(Inconclusive):
    """Raised when a truncated computation explodes; carries the partial
    table computed so far."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class InsufficientTruncation(Exception):
    pass


def _require_degree(g, degree):
    """A construction reading g up to Adams degree `degree` must not
    silently drop what lies past g's cutoff."""
    if g.cutoff < degree:
        raise InsufficientTruncation(
            f"need components up to degree {degree}, have {g.cutoff}"
        )


def corner_restricted_cohomology(x: ProjBimodComplex, e_vertices=None):
    """Dims of H^p(e X e) per cohomological degree p; e_vertices=None
    takes every corner, so the dims are those of H^p(X)."""
    filt = None if e_vertices is None else {(u, v) for u in e_vertices for v in e_vertices}
    return cohomology_table(lambda p: x.diff_matrix(p, filt), x.degrees(), x.base.field)


class TruncatedTensorAlgebra:
    """Minimal models of the tensor powers of U up to an Adams cutoff, with
    the cohomology table of their e-corners (every corner when e_vertices
    is None).

    components[l] is M_l, with M_1 = minimize(U) and
    M_l = minimize(M_(l-1) (x)_A U).  Tensoring complexes of projective
    bimodules over A preserves homotopy equivalence, so M_l is homotopy
    equivalent to U^(x)l and has its cohomology in every corner, while
    staying a few summands per Adams degree where U^(x)l grows
    geometrically.  With transfer=True, transfer[l] holds (X_l, iota_l,
    pi_l): X_l = M_(l-1) (x)_A U (U itself for l = 1) and minimize's
    transfer maps iota_l: M_l -> X_l, pi_l: X_l -> M_l.  ResourceLimit,
    with the partial table, is raised when an X_l exceeds summand_limit.
    """

    def __init__(self, algebra, u, cutoff, resolution=None, summand_limit=40000,
                 e_vertices=None, transfer=False):
        self.algebra = algebra
        self.u = u
        self.cutoff = cutoff
        self.resolution = resolution or resolution_of_algebra(algebra)
        self.components = {0: self.resolution}
        self.transfer = {}
        self.cohomology_table = {
            (p, 0): d
            for p, d in corner_restricted_cohomology(self.resolution, e_vertices).items()
        }
        for l in range(1, cutoff + 1):
            x = u if l == 1 else tensor_over_A(self.components[l - 1], u)
            if x.total_summands() > summand_limit:
                raise ResourceLimit(
                    f"power {l} has {x.total_summands()} summands",
                    dict(self.cohomology_table),
                )
            power = minimize(x, transfer=transfer)
            if transfer:
                self.transfer[l] = (x,) + power.transfer
            self.components[l] = power
            for p, dim in corner_restricted_cohomology(power, e_vertices).items():
                self.cohomology_table[(p, l)] = dim

    def table(self):
        return dict(self.cohomology_table)


class CompletionData:
    """Bidegree dims of H^p(e U^l e) for l <= cutoff, plus the window."""

    def __init__(self, algebra, e_vertices, cutoff, table):
        self.algebra = algebra
        self.e_vertices = list(e_vertices)
        self.cutoff = cutoff
        self.table = table  # {(cdeg, adeg): dim}

    def concentrated_in_degree_zero(self):
        return all(p == 0 for (p, _), d in self.table.items() if d)


def completion(algebra, u, e_vertices, cutoff, resolution=None) -> CompletionData:
    """Idempotent-truncated completion table H^p(e U^(x)l e), l <= cutoff,
    read off the minimal powers of U."""
    ta = TruncatedTensorAlgebra(algebra, u, cutoff, resolution, e_vertices=e_vertices)
    return CompletionData(algebra, e_vertices, cutoff, ta.table())


class DgPathAlgebra:
    """Graded quiver with a differential on arrows, extended by Leibniz."""

    def __init__(self, quiver: Quiver, differential, field=None):
        self.quiver = quiver
        self.field = field or QQ
        self.differential = {
            name: [(self.field(c) if not hasattr(c, "denominator") else c, tuple(p)) for c, p in terms]
            for name, terms in differential.items()
        }
        for name, terms in self.differential.items():
            arr = quiver.arrow_by_name[name]
            for _, path in terms:
                arrows = [quiver.arrow_by_name[nm] for nm in path]
                cdeg = sum(x.cdeg for x in arrows)
                adeg = sum(x.adeg for x in arrows)
                if cdeg != arr.cdeg + 1 or adeg != arr.adeg:
                    raise ValueError(
                        f"differential of {name} breaks bidegrees"
                    )
                if arrows and (arrows[-1].source != arr.source or arrows[0].target != arr.target):
                    raise ValueError(f"differential of {name} is not parallel")

    def d_path(self, path):
        """Leibniz differential of a path (tuple of arrow names)."""
        f = self.field
        out = {}
        for t in range(len(path)):
            name = path[t]
            terms = self.differential.get(name)
            if not terms:
                continue
            sign_exp = sum(
                self.quiver.arrow_by_name[path[s]].cdeg for s in range(t)
            )
            sgn = f(1) if sign_exp % 2 == 0 else f(-1)
            for c, repl in terms:
                new = path[:t] + repl + path[t + 1:]
                val = f.add(out.get(new, f.zero()), f.mul(sgn, c))
                if val == 0:
                    out.pop(new, None)
                else:
                    out[new] = val
        return out


def _enumerate_graded_paths(quiver, adams_max, field):
    """Paths with total Adams degree <= adams_max, grouped by that degree.

    Requires the Adams-degree-0 arrow subquiver to be acyclic.
    """
    zero_arrows = [a for a in quiver.arrows if a.adeg == 0]
    sub = Quiver(quiver.vertices, zero_arrows)
    if not sub.is_acyclic():
        raise NotLocallyFinite("Adams-degree-0 arrows contain a cycle")
    paths = {0: [((), v, v, 0) for v in quiver.vertices]}
    frontier = list(paths[0])
    all_paths = list(frontier)
    while frontier:
        nxt = []
        for path, src, tgt, adeg in frontier:
            for a in quiver.arrows:
                if a.source != tgt:
                    continue
                ad = adeg + a.adeg
                if ad > adams_max:
                    continue
                item = ((a.name,) + path, src, a.target, ad)
                nxt.append(item)
                all_paths.append(item)
        frontier = nxt
    by_adeg = {}
    for item in all_paths:
        by_adeg.setdefault(item[3], []).append(item)
    return by_adeg


def dg_path_cohomology(p: DgPathAlgebra, adams_max) -> dict:
    """Cohomology dims of the path complex per (cdeg, adeg <= window)."""
    quiver = p.quiver
    f = p.field
    by_adeg = _enumerate_graded_paths(quiver, adams_max, f)

    def image(coord):
        path, src = coord
        for new, c in p.d_path(path).items():
            yield (new, src), c

    table = {}
    for l, items in sorted(by_adeg.items()):
        by_cdeg = {}
        for path, src, tgt, _ in items:
            cdeg = sum(quiver.arrow_by_name[nm].cdeg for nm in path)
            by_cdeg.setdefault(cdeg, []).append((path, src))
        mats = {
            cdeg: assemble(plist, by_cdeg.get(cdeg + 1, []), image, f)
            for cdeg, plist in by_cdeg.items()
        }
        for cdeg, plist in sorted(by_cdeg.items()):
            d = cohomology_dim(len(plist), mats.get(cdeg), mats.get(cdeg - 1), f)
            if d:
                table[(cdeg, l)] = d
    return table


def compare_presentation(table_a: dict, table_b: dict, adams_max) -> bool:
    """Equality of bidegree dim tables for Adams degrees <= adams_max."""
    keys = {k for k in table_a if k[1] <= adams_max}
    keys |= {k for k in table_b if k[1] <= adams_max}
    return all(table_a.get(k, 0) == table_b.get(k, 0) for k in keys)


class GradedAlgebraData:
    """Adams-graded algebra on a finite object set, truncated at a cutoff.

    basis[l] is a list of (label, src, tgt); mult maps
    ((l1, i1), (l2, i2)) to {i3: coeff} inside degree l1 + l2.  Degree 0
    carries one idempotent per object.
    """

    def __init__(self, objects, cutoff, basis, mult, idem, field):
        self.objects = list(objects)
        self.cutoff = cutoff
        self.basis = {l: list(b) for l, b in basis.items()}
        self.mult = mult
        self.idem = idem  # object -> index into basis[0]
        self.field = field

    def dim(self, l):
        return len(self.basis.get(l, []))

    def dims(self):
        return {l: self.dim(l) for l in range(self.cutoff + 1)}

    def product(self, l1, i1, l2, i2):
        return self.mult.get(((l1, i1), (l2, i2)), {})

    def check_associativity(self, max_degree=None):
        top = max_degree if max_degree is not None else self.cutoff
        f = self.field
        for l1 in range(top + 1):
            for l2 in range(top + 1 - l1):
                for l3 in range(top + 1 - l1 - l2):
                    for i1 in range(self.dim(l1)):
                        for i2 in range(self.dim(l2)):
                            for i3 in range(self.dim(l3)):
                                left = {}
                                for m, c in self.product(l1, i1, l2, i2).items():
                                    for t, c2 in self.product(l1 + l2, m, l3, i3).items():
                                        left[t] = f.add(left.get(t, f.zero()), f.mul(c, c2))
                                right = {}
                                for m, c in self.product(l2, i2, l3, i3).items():
                                    for t, c2 in self.product(l1, i1, l2 + l3, m).items():
                                        right[t] = f.add(right.get(t, f.zero()), f.mul(c, c2))
                                left = {t: c for t, c in left.items() if c != 0}
                                right = {t: c for t, c in right.items() if c != 0}
                                if left != right:
                                    return False
        return True


def _word_algebra(varnames, cutoff, field, normal):
    """One object, generators in Adams degree 1, and a basis of words in
    their normal form: degree l lists the forms of w + (v,) over degree
    l - 1 and the generators, in order of first appearance."""
    f = field or QQ
    obj = "*"
    words = {0: [()]}
    index = {(0, ()): 0}
    for l in range(1, cutoff + 1):
        ws = words[l] = []
        for w in words[l - 1]:
            for v in varnames:
                nw = normal(w + (v,))
                if (l, nw) not in index:
                    index[(l, nw)] = len(ws)
                    ws.append(nw)
    basis = {l: [("".join(w) or "1", obj, obj) for w in ws] for l, ws in words.items()}
    mult = {}
    for l1, ws1 in words.items():
        for l2, ws2 in words.items():
            if l1 + l2 > cutoff:
                continue
            for i1, w1 in enumerate(ws1):
                for i2, w2 in enumerate(ws2):
                    mult[((l1, i1), (l2, i2))] = {index[(l1 + l2, normal(w1 + w2))]: f.one()}
    return GradedAlgebraData([obj], cutoff, basis, mult, {obj: 0}, f)


def polynomial_algebra(varnames, cutoff, field=None):
    """Commutative polynomial ring, all generators in Adams degree 1."""
    return _word_algebra(varnames, cutoff, field, lambda w: tuple(sorted(w)))


def free_graded_algebra(varnames, cutoff, field=None):
    """Free associative algebra, generators in Adams degree 1."""
    return _word_algebra(varnames, cutoff, field, lambda w: w)


def completion_algebra(algebra, u, e_vertices, cutoff, resolution=None):
    """The completion as a graded algebra: H^0(e M_l e) over the minimal
    powers M_l of U (TruncatedTensorAlgebra), multiplied at chain level
    through minimize's transfer maps (_PowerProducts).

    Requires the completion window to be concentrated in degree 0.
    """
    alg = algebra
    f = alg.field
    ta = TruncatedTensorAlgebra(alg, u, cutoff, resolution, e_vertices=e_vertices,
                                transfer=True)
    if any(p != 0 for (p, l) in ta.table() if l):
        raise ValueError(
            "completion not concentrated in degree 0; no algebra structure"
        )
    powers = ta.components
    # degree 0: the corner algebra eAe
    zero_basis = []
    zero_index = {}
    for v in e_vertices:
        for w in e_vertices:
            for k in alg.corner_indices(v, w):
                zero_index[k] = len(zero_basis)
                zero_basis.append((repr(alg.basis[k]), w, v))
    objects = list(e_vertices)
    idem = {v: zero_index[alg.idempotent_index(v)] for v in e_vertices}

    reps = {}
    coords_of = {}
    solvers = {}
    for l in range(1, cutoff + 1):
        reps[l], coords_of[l], solvers[l] = _h0_corner_reps(powers[l], e_vertices)

    basis = {0: zero_basis}
    for l in range(1, cutoff + 1):
        basis[l] = [(f"h{l}", src, tgt) for _, (src, tgt) in reps[l]]

    mult = {}
    for k1, i1 in zero_index.items():
        for k2, i2 in zero_index.items():
            prod = alg.mult(k1, k2)
            entry = {zero_index[k3]: c for k3, c in prod.items() if k3 in zero_index}
            if entry:
                mult[((0, i1), (0, i2))] = entry
    for l in range(1, cutoff + 1):
        power = powers[l]
        coords = coords_of[l]
        # action of the corner algebra on H^0 reps, both sides
        for k0, i0 in zero_index.items():
            for j, (vec, st) in enumerate(reps[l]):
                left = _corner_act(power, coords, vec, k0, side="left")
                entry = _express_with_solver(solvers[l], len(reps[l]), left)
                if entry:
                    mult[((0, i0), (l, j))] = entry
                right = _corner_act(power, coords, vec, k0, side="right")
                entry = _express_with_solver(solvers[l], len(reps[l]), right)
                if entry:
                    mult[((l, j), (0, i0))] = entry
    products = _PowerProducts(ta)
    chains = {
        l: [{coords_of[l][i]: vec[i] for i in sorted(vec)} for vec, _ in reps[l]]
        for l in reps
    }
    for l1 in range(1, cutoff + 1):
        for l2 in range(1, cutoff + 1 - l1):
            row = {c: i for i, c in enumerate(coords_of[l1 + l2])}
            for j1, z1 in enumerate(chains[l1]):
                for j2, z2 in enumerate(chains[l2]):
                    prod = products.cycles(l1, z1, l2, z2)
                    vec = {row[c]: v for c, v in prod.items() if v and c in row}
                    entry = _express_with_solver(solvers[l1 + l2], len(reps[l1 + l2]), vec)
                    if entry:
                        mult[((l1, j1), (l2, j2))] = entry
    return GradedAlgebraData(objects, cutoff, basis, mult, idem, f)


class _PowerProducts:
    """Chain maps m_{l1,l2}: M_l1 (x)_A M_l2 -> M_(l1+l2) between the
    minimal powers of a TruncatedTensorAlgebra built with transfer maps:

        m_{l,1} = pi_(l+1) o (1 (x) iota_1)
        m_{l1,l2} = pi_(l1+l2) o (m_{l1,l2-1} (x) 1_U) o (1 (x) iota_l2)

    With Phi_l = (Phi_(l-1) (x) 1) o iota_l: M_l -> U^(x)l, induction on
    l2 gives Phi o m ~ Phi (x) Phi, so on cohomology m is the
    concatenation product of tensor powers, up to a change of cocycle
    representatives.  Every map is degree 0, so no Koszul signs arise.
    """

    def __init__(self, ta):
        self.alg = ta.algebra
        self.powers = ta.components
        self.built = {l: x for l, (x, _, _) in ta.transfer.items()}
        self.index = {l: x.trace_index() for l, x in self.built.items() if l > 1}
        self.iota = {l: {p: _by_source(c) for p, c in iota.components.items()}
                     for l, (_, iota, _) in ta.transfer.items()}
        self.pi = {l: {p: _by_source(c) for p, c in pi.components.items()}
                   for l, (_, _, pi) in ta.transfer.items()}
        self.memo = {}

    def generator(self, l1, l2, s1, mid, s2):
        """m_{l1,l2} on the generator of the summand (s1, mid, s2) of
        M_l1 (x)_A M_l2, s1 and s2 given as (degree, index): a map
        {target index: entry} into degree s1[0] + s2[0] of M_(l1+l2)."""
        key = (l1, l2, s1, mid, s2)
        if key in self.memo:
            return self.memo[key]
        alg = self.alg
        f = alg.field
        (p, i), (q, j) = s1, s2
        e_left = alg.idempotent_index(self.powers[l1].summands(p)[i].left)
        index = self.index[l1 + l2]
        chain = {}  # the image in X_(l1+l2) = M_(l1+l2-1) (x)_A U, by summand

        def add(trace, entry):
            entry_add(chain.setdefault(index[trace][1], {}), entry, f)

        for t, entry in self.iota[l2].get(q, {}).get(j, ()):
            for (a, b), c in entry.items():
                for m2, cm in alg.mult(mid, a).items():
                    c1 = f.mul(c, cm)
                    if l2 == 1:  # t is a summand of U
                        add(((p, i), m2, (q, t)), {(e_left, b): c1})
                        continue
                    (pp, s), m3, tail = self.built[l2].summands(q)[t].trace
                    for t2, e2 in self.generator(l1, l2 - 1, s1, m2, (pp, s)).items():
                        for (a2, b2), c2 in e2.items():
                            for m4, cm4 in alg.mult(b2, m3).items():
                                add(((p + pp, t2), m4, tail),
                                    {(a2, b): f.mul(c1, f.mul(c2, cm4))})
        out = {}
        pi = self.pi[l1 + l2].get(p + q, {})
        for k, entry in chain.items():
            for t, pe in pi.get(k, ()):
                entry_add(out.setdefault(t, {}), compose_entries(alg, pe, entry), f)
        out = {t: e for t, e in out.items() if e}
        self.memo[key] = out
        return out

    def cycles(self, l1, z1, l2, z2):
        """m_{l1,l2}(z1 (x) z2) for degree-0 chains of M_l1 and M_l2 given
        as {(summand, a, b): coeff}, in the same form over M_(l1+l2)."""
        alg = self.alg
        f = alg.field
        out = {}
        for (i1, a1, b1), c1 in z1.items():
            for (i2, a2, b2), c2 in z2.items():
                c12 = f.mul(c1, c2)
                for mid, cm in alg.mult(b1, a2).items():
                    c0 = f.mul(c12, cm)
                    for t, entry in self.generator(l1, l2, (0, i1), mid, (0, i2)).items():
                        for (al, be), c in entry.items():
                            for a3, ca in alg.mult(a1, al).items():
                                for b3, cb in alg.mult(be, b2).items():
                                    k = (t, a3, b3)
                                    out[k] = f.add(out.get(k, f.zero()),
                                                   f.mul(c0, f.mul(c, f.mul(ca, cb))))
        return out


def _h0_corner_reps(power, e_vertices):
    """Cocycle representatives of a basis of H^0(e X e), tagged with their
    corner; the degree-0 corner coordinates; and a PreparedSolver that
    writes a cocycle over (representatives + boundaries), None when both
    are empty."""
    alg = power.base
    filt = {(u, v) for u in e_vertices for v in e_vertices}
    coords, reps, solver = h0_representatives(
        lambda p: power.diff_matrix(p, filt), alg.field)
    return [(z, _coord_corner(alg, coords, z)) for z in reps], coords, solver


def _coord_corner(alg, coords, vec):
    _, a, b = coords[min(vec)]
    return alg.basis[b].source, alg.basis[a].target


def _corner_act(power, coords, vec, k0, side):
    """Multiply a sparse H^0 representative by a corner element of eAe."""
    alg = power.base
    f = alg.field
    pos = {c: i for i, c in enumerate(coords)}
    out = {}
    for i in sorted(vec):
        v = vec[i]
        s_idx, a, b = coords[i]
        if side == "left":
            for a2, c in alg.mult(k0, a).items():
                j = pos.get((s_idx, a2, b))
                if j is not None:
                    out[j] = f.add(out.get(j, f.zero()), f.mul(v, c))
        else:
            for b2, c in alg.mult(b, k0).items():
                j = pos.get((s_idx, a, b2))
                if j is not None:
                    out[j] = f.add(out.get(j, f.zero()), f.mul(v, c))
    return {j: c for j, c in out.items() if c}


def _express_with_solver(solver, nreps, vec):
    """The coefficients on the representatives of a sparse cocycle."""
    if not vec:
        return {}
    sol = solver.solve(vec) if solver is not None else None
    if sol is None:
        raise ValueError("cycle not expressible; H^0 bookkeeping broken")
    return {i: c for i, c in sorted(sol.items()) if i < nreps}


def _products_by_left(x: GradedAlgebraData, cutoff):
    """x's nonzero products of degree at most cutoff by left element:
    {(l1, i1, l2): [(i2, product)]}, i2 increasing."""
    out = {}
    for ((l1, i1), (l2, i2)), entry in x.mult.items():
        if entry and l1 + l2 <= cutoff:
            out.setdefault((l1, i1, l2), []).append((i2, entry))
    for products in out.values():
        products.sort(key=lambda item: item[0])
    return out


def segre(x: GradedAlgebraData, y: GradedAlgebraData, cutoff) -> GradedAlgebraData:
    """Degreewise product: degree i is X_i (x) Y_i."""
    _require_degree(x, cutoff)
    _require_degree(y, cutoff)
    f = x.field
    objects = [(ox, oy) for ox in x.objects for oy in y.objects]
    basis = {}
    index = {}
    for l in range(cutoff + 1):
        items = []
        for i, (lx, sx, tx) in enumerate(x.basis.get(l, [])):
            for j, (ly, sy, ty) in enumerate(y.basis.get(l, [])):
                index[(l, i, j)] = len(items)
                items.append((f"{lx}#{ly}", (sx, sy), (tx, ty)))
        basis[l] = items
    x_right, y_right = _products_by_left(x, cutoff), _products_by_left(y, cutoff)
    mult = {}
    for l1 in range(cutoff + 1):
        for l2 in range(cutoff + 1 - l1):
            for i1 in range(x.dim(l1)):
                xs = x_right.get((l1, i1, l2))
                if not xs:
                    continue
                for j1 in range(y.dim(l1)):
                    ys = y_right.get((l1, j1, l2), ())
                    for i2, px in xs:
                        for j2, py in ys:
                            entry = {}
                            for i3, cx in px.items():
                                for j3, cy in py.items():
                                    entry[index[(l1 + l2, i3, j3)]] = (
                                        cy if cx == 1 else cx if cy == 1 else f.mul(cx, cy))
                            mult[((l1, index[(l1, i1, j1)]), (l2, index[(l2, i2, j2)]))] = entry
    idem = {
        (ox, oy): index[(0, x.idem[ox], y.idem[oy])]
        for ox in x.objects
        for oy in y.objects
    }
    return GradedAlgebraData(objects, cutoff, basis, mult, idem, f)


def a_segre(x: GradedAlgebraData, y: GradedAlgebraData, a, cutoff) -> GradedAlgebraData:
    """Degree i is X_i (x) the a x a block matrix with (r, c) entry Y_{i+r-c}:
    the Segre product with _matrix_blocks(y, a, 1, cutoff), so objects are
    (ox, (r, oy))."""
    return segre(x, _matrix_blocks(y, a, 1, cutoff), cutoff)


def veronese(x: GradedAlgebraData, a, cutoff) -> GradedAlgebraData:
    """Degree i is X_{a i}; objects unchanged."""
    _require_degree(x, a * cutoff)
    basis = {l: list(x.basis.get(a * l, [])) for l in range(cutoff + 1)}
    mult = {}
    for l1 in range(cutoff + 1):
        for l2 in range(cutoff + 1 - l1):
            for i1 in range(len(basis[l1])):
                for i2 in range(len(basis[l2])):
                    entry = x.product(a * l1, i1, a * l2, i2)
                    if entry:
                        mult[((l1, i1), (l2, i2))] = dict(entry)
    return GradedAlgebraData(x.objects, cutoff, basis, mult, dict(x.idem), x.field)


def _matrix_blocks(x: GradedAlgebraData, a, step, cutoff) -> GradedAlgebraData:
    """The a x a block matrix algebra over x: degree l has X_{step l + r - c}
    in block (r, c), and blocks multiply as matrices.  Objects are (r, o);
    an element of block (r, c) goes from (c, src) to (r, tgt).  Degree 0
    is the Beilinson algebra of x, and step a gives the quasi-Veronese."""
    _require_degree(x, step * cutoff + a - 1)
    pos = {}  # (l, r, c, i) -> index in basis[l]
    rows = {}  # (l, r) -> [(index in basis[l], c, i)]
    basis = {}
    for l in range(cutoff + 1):
        items = basis[l] = []
        for r in range(a):
            for c in range(a):
                for i, (label, src, tgt) in enumerate(x.basis.get(step * l + r - c, [])):
                    pos[(l, r, c, i)] = len(items)
                    rows.setdefault((l, r), []).append((len(items), c, i))
                    items.append((f"{label}[{r},{c}]", (c, src), (r, tgt)))
    mult = {}
    for (l1, r1, c1, i1), p1 in pos.items():
        for l2 in range(cutoff + 1 - l1):
            for p2, c2, i2 in rows.get((l2, c1), ()):
                prod = x.product(step * l1 + r1 - c1, i1, step * l2 + c1 - c2, i2)
                if prod:
                    mult[((l1, p1), (l2, p2))] = {
                        pos[(l1 + l2, r1, c2, i3)]: c for i3, c in prod.items()}
    objects = [(r, o) for r in range(a) for o in x.objects]
    idem = {(r, o): pos[(0, r, r, x.idem[o])] for r, o in objects}
    return GradedAlgebraData(objects, cutoff, basis, mult, idem, x.field)


def quasi_veronese(x: GradedAlgebraData, a, cutoff) -> GradedAlgebraData:
    """Degree i is the a x a block matrix with (r, c) entry X_{a i + r - c};
    objects are (r, o)."""
    return _matrix_blocks(x, a, a, cutoff)


def matrix_root_pair(pi: GradedAlgebraData, a):
    """Lower-triangular matrix algebra and bimodule from a graded algebra:
    A and U are degrees 0 and 1 of _matrix_blocks(pi, a, 1, 1), and U's
    actions are its products 0 . 1 and 1 . 0.

    Returns (algebra, U as BimoduleData, e vertex list); requires the
    components up to degree a.
    """
    m = _matrix_blocks(pi, a, 1, 1)
    zero = {(i1, i2): entry for ((l1, i1), (l2, i2)), entry in m.mult.items()
            if l1 == l2 == 0}
    alg = PathBasisAlgebra.from_structure_constants(m.objects, m.basis[0], zero, pi.field)
    n = m.dim(1)
    left = [[dict(m.product(0, k, 1, i)) for i in range(n)] for k in range(alg.dim)]
    right = [[dict(m.product(1, i, 0, k)) for i in range(n)] for k in range(alg.dim)]
    e_vertices = [(0, o) for o in pi.objects]
    return alg, BimoduleData(alg, alg, n, left, right), e_vertices


def _free_piece_basis(g: GradedAlgebraData, vertex_obj, degree):
    """Basis indices of (e_v Gamma)_degree: elements with target object v."""
    return [
        i for i, (_, src, tgt) in enumerate(g.basis.get(degree, [])) if tgt == vertex_obj
    ]


def _free_coords(g, gens, d):
    """Coordinates (generator, degree, basis index) of the degree-d piece of
    the free module on gens, a list of (object, shift)."""
    return [(gi, d - s, bi) for gi, (obj, s) in enumerate(gens)
            for bi in _free_piece_basis(g, obj, d - s)]


def graded_gorenstein_check(g: GradedAlgebraData, a):
    """Verdict on the Gorenstein parameter: "yes", "no", or "inconclusive".

    Builds the minimal graded free resolution of the degree-0 block within
    the window N = g.cutoff, at most 8 steps long, dualizes termwise, and
    reports "yes" exactly when the dual cohomology concentrates in Adams
    degree -a.  Returns (verdict, detail).
    A generator of shift s contributes to Adams degree -a only when
    s >= a, and the window shows shifts up to N, so a > N is
    "inconclusive": the resolution would look terminated before the
    syzygy at shift a, and the answer would always be "no".
    """
    f = g.field
    N = g.cutoff
    if a > N:
        return "inconclusive", {"reason": "window does not reach Adams degree -a",
                                "window": N}
    # free modules are lists of (object, shift); module pieces are coord
    # spaces over such frees
    frees = [[(o, 0) for o in g.objects]]
    diffs = []  # diffs[k]: generator of F_{k+1} -> vector over F_k coords

    # kernel of F_0 -> Gamma_0 is Gamma_{>=1} restricted to the window
    kernels = {}
    gens0 = frees[0]
    for d in range(N + 1):
        coords = _free_coords(g, gens0, d)
        if d == 0:
            kernels[d] = []
        else:
            kernels[d] = [{i: f.one()} for i in range(len(coords))]
    current_gens = frees[0]
    current_kernel = kernels
    terminated = False
    for _ in range(8):
        if all(not v for v in current_kernel.values()):
            terminated = True
            break
        new_gens, diff_vectors, next_kernel = _graded_cover_step(
            g, current_gens, current_kernel, N, f
        )
        if not new_gens:
            # kernel nonzero but no generators visible in the window
            return "inconclusive", {"reason": "window too small", "window": N}
        frees.append(new_gens)
        diffs.append(diff_vectors)
        current_gens = new_gens
        current_kernel = next_kernel
    if not terminated:
        return "inconclusive", {"reason": "resolution too long", "window": N}
    # dualize: Hom(F_k, Gamma) has coordinates (gi, m, bi) with bi a basis
    # index of (Gamma e_{v_gi})_m at Adams degree t = m - s_gi
    detail = {"lengths": [len(fr) for fr in frees], "window": N}
    bad = {}
    max_shift = max((s for fr in frees for (_, s) in fr), default=0)
    for t in range(-max_shift - a - 1, N - max_shift + 1):
        dims = _dual_cohomology_at(g, frees, diffs, t, N, f)
        for k, dim in dims.items():
            if dim and t != -a:
                bad[(k, t)] = dim
    ok_at_minus_a = any(
        _dual_cohomology_at(g, frees, diffs, -a, N, f).values()
    )
    detail["off_target"] = bad
    detail["hits_minus_a"] = ok_at_minus_a
    if bad:
        return "no", detail
    if not ok_at_minus_a:
        return "no", detail
    return "yes", detail


def _graded_cover_step(g, gens, kernel, N, f):
    """Minimal generators of a graded submodule given per degree, the cover
    differential, and the next kernel."""
    new_gens = []
    gen_vectors = []  # (degree, vector over F coords, object)
    covered = {d: [] for d in range(N + 1)}
    for d in range(N + 1):
        kd = kernel.get(d, [])
        if not kd:
            continue
        coords_d = _free_coords(g, gens, d)
        # span of already chosen generators at this degree
        span = IncrementalSpan(f)
        for vec in covered[d]:
            span.add(vec)
        for vec in kd:
            if span.contains(vec):
                continue
            # split by right object and add as generators
            for obj in g.objects:
                comp = _right_object_component(g, coords_d, vec, obj)
                if not span.add(comp):
                    continue
                new_gens.append((obj, d))
                gen_vectors.append((d, comp, obj))
                # propagate the new generator's multiples upward
                for d2 in range(d + 1, N + 1):
                    coords_d2 = _free_coords(g, gens, d2)
                    for bi2 in range(g.dim(d2 - d)):
                        img = _free_right_mult(
                            g, gens, coords_d, coords_d2, comp, d2 - d, bi2, f
                        )
                        if img:
                            covered[d2].append(img)
    diff_vectors = [vec for (_, vec, _) in gen_vectors]
    # next kernel: per degree, kernel of (combination map) restricted to
    # the new free cover
    next_kernel = {}
    for d in range(N + 1):
        cols = []
        coords_d = _free_coords(g, gens, d)
        for (gi, m, bi) in _free_coords(g, new_gens, d):
            vec = _free_right_mult(
                g, gens, _free_coords(g, gens, new_gens[gi][1]), coords_d,
                gen_vectors[gi][1], m, bi, f,
            )
            cols.append(vec)
        next_kernel[d] = kernel_basis(cols, len(coords_d), f).basis
    return new_gens, diff_vectors, next_kernel


def _right_object_component(g, coords_d, vec, obj):
    out = {}
    for i in sorted(vec):
        gi, m, bi = coords_d[i]
        if g.basis[m][bi][1] == obj:
            out[i] = vec[i]
    return out


def _free_right_mult(g, gens, src_coords, tgt_coords, vec, l, bi2, f):
    """(sparse vector over F at degree d) . (basis element bi2 of Gamma_l)."""
    pos = {c: i for i, c in enumerate(tgt_coords)}
    out = {}
    for i in sorted(vec):
        gi, m, bi = src_coords[i]
        for b3, c in g.product(m, bi, l, bi2).items():
            j = pos.get((gi, m + l, b3))
            if j is not None:
                out[j] = f.add(out.get(j, f.zero()), f.mul(vec[i], c))
    return {j: v for j, v in out.items() if v}


def _dual_cohomology_at(g, frees, diffs, t, N, f):
    """Cohomology dims of Hom(F_*, Gamma) at Adams degree t, per position."""
    spaces = []
    for k, gens in enumerate(frees):
        coords = []
        for gi, (obj, s) in enumerate(gens):
            m = s + t
            if 0 <= m <= g.cutoff:
                for bi in _left_piece_basis(g, obj, m):
                    coords.append((gi, m, bi))
        spaces.append(coords)
    mats = []
    for k in range(len(diffs)):
        # the differential F_{k+1} -> F_k by the F_k generator it lies over:
        # gi -> [(gj, m2, bi2, coefficient)]
        over = {}
        for gj, (_, sj) in enumerate(frees[k + 1]):
            img_coords = _free_coords(g, frees[k], sj)
            for ci, v in sorted(diffs[k][gj].items()):
                gi, m2, bi2 = img_coords[ci]
                over.setdefault(gi, []).append((gj, m2, bi2, v))

        def image(coord):
            # functional w at generator gi of F_k, precomposed with the
            # differential; w * gamma is the left module product
            # (Gamma e)_m x Gamma_m2
            gi, m, bi = coord
            for gj, m2, bi2, v in over.get(gi, ()):
                for b3, c in g.product(m, bi, m2, bi2).items():
                    yield (gj, m + m2, b3), f.mul(v, c)

        mats.append(assemble(spaces[k], spaces[k + 1], image, f))
    out = {}
    for k in range(len(spaces)):
        d = cohomology_dim(len(spaces[k]), mats[k] if k < len(mats) else None,
                           mats[k - 1] if k else None, f)
        if d:
            out[k] = d
    return out


def _left_piece_basis(g, vertex_obj, degree):
    """Basis indices of (Gamma e_v)_degree: elements with source object v."""
    return [
        i for i, (_, src, tgt) in enumerate(g.basis.get(degree, [])) if src == vertex_obj
    ]


def graded_quotient_dims(quiver, relations, adams_max, field=None):
    """Dims per Adams degree of a path algebra modulo Adams-homogeneous
    relations; the independent path-count oracle for graded algebras."""
    f = field or QQ
    for r in relations:
        r.validate(quiver)
        adegs = {
            sum(quiver.arrow_by_name[nm].adeg for nm in p) for _, p in r.terms
        }
        if len(adegs) != 1:
            raise ValueError("relation terms must share one Adams degree")
    by_adeg = _enumerate_graded_paths(quiver, adams_max, f)
    all_paths = {}
    for l, items in by_adeg.items():
        for path, src, tgt, _ in items:
            all_paths[(src, path)] = (l, src, tgt)
    out = {}
    for l in sorted(by_adeg):
        items = by_adeg[l]
        pos = {(src, path): i for i, (path, src, tgt, _) in enumerate(items)}
        rows = []
        for r in relations:
            _, p0 = r.terms[0]
            arrows0 = [quiver.arrow_by_name[nm] for nm in p0]
            radeg = sum(x.adeg for x in arrows0)
            rsrc, rtgt = arrows0[-1].source, arrows0[0].target
            for upath, usrc, utgt, uadeg in (
                it for la, lst in by_adeg.items() for it in lst
            ):
                if usrc != rtgt:
                    continue
                for wpath, wsrc, wtgt, wadeg in (
                    it for la, lst in by_adeg.items() for it in lst
                ):
                    if wtgt != rsrc or uadeg + radeg + wadeg != l:
                        continue
                    row = {}
                    for c, p in r.terms:
                        j = pos[(wsrc, upath + p + wpath)]
                        row[j] = f.add(row.get(j, f.zero()), f(c.numerator, c.denominator))
                    rows.append(row)
        out[l] = len(items) - rank(rows, f)
    return out
