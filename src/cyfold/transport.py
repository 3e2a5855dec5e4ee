"""Transport of a root bimodule through an endomorphism algebra.

Given modules M_0, ..., M_{a-1} over D whose sum M is a tilting-type
object, this builds E = End_D(M) as a path-basis algebra (primitive
idempotents found by trace-form radical + lifting), and carries the
bimodule W over to U_E = RHom_D(P(M), M (x) W) where P(M) is a projective
resolution of M over E (x) D^op, so both E-actions are strict on the nose.
The result is resolved to a complex of projective E-bimodules.  Both
resolutions are bimodcx's one resolver: resolution_steps for P(M), whose
algebras differ, and resolve_complex for the Hom complex.  An element of
E is an n x n matrix held sparse over its entries, {i * n + j: value},
so it meets IncrementalSpan and PreparedSolver as it is.
"""

from .bimodcx import (
    BimoduleData,
    CoordComplex,
    CoverStep,
    ProjBimodComplex,
    _by_source,
    _free_bimodule,
    _sub_bimodule,
    assemble,
    minimize,
    resolution_steps,
    resolve_complex,
)
from .exactlin import (
    IncrementalSpan,
    PreparedSolver,
    SplitMix64,
    combine_sparse,
    kernel_basis,
    rank,
    sparse_transpose,
)
from .quiveralg import PathBasisAlgebra


def endomorphism_matrices(module):
    """Basis of End_D(M): the n x n matrices phi commuting with the right
    action, each sparse over its n * n entries {i * n + j: phi_ij}."""
    alg = module.algebra
    f = alg.field
    n = module.dim
    if n == 0:
        return []
    # phi . act_k = act_k . phi for all k; the unknown phi_{im} is column
    # i * n + m
    zero = f.zero()
    rows = []
    for ak in module.action:
        ak_cols = sparse_transpose(ak, n)
        for i in range(n):
            for j in range(n):
                row = {}
                # (phi ak)_{ij} = sum_m phi_{im} ak_{mj}
                for m, v in ak_cols[j].items():
                    row[i * n + m] = f.add(row.get(i * n + m, zero), v)
                # -(ak phi)_{ij} = -sum_m ak_{im} phi_{mj}
                for m, v in ak[i].items():
                    row[m * n + j] = f.add(row.get(m * n + j, zero), f.neg(v))
                if row:
                    rows.append(row)
    return kernel_basis(sparse_transpose(rows, n * n), len(rows), f).basis


def _product(x, y, n, f):
    """The matrix product x y of two End(M) elements, sparse over their
    n * n entries."""
    y_rows = {}
    for key, v in y.items():
        y_rows.setdefault(key // n, {})[key % n] = v
    out = {}
    for key, v in x.items():
        i, k = divmod(key, n)
        for j, w in y_rows.get(k, {}).items():
            out[i * n + j] = out.get(i * n + j, 0) + v * w
    if f.char:
        return {j: v % f.char for j, v in out.items() if v % f.char}
    return {j: v for j, v in out.items() if v}


def _identity(n, f):
    return {i * n + i: f.one() for i in range(n)}


def _trace_radical(elts, n, f):
    """Radical of the span via the trace form (char 0)."""
    k = len(elts)
    gram = [{} for _ in range(k)]  # columns of the symmetric Gram matrix
    for i, x in enumerate(elts):
        for j, y in enumerate(elts):
            # tr(x y) = sum x_{ab} y_{ba}
            tr = f.zero()
            for key, v in x.items():
                a, b = divmod(key, n)
                w = y.get(b * n + a)
                if w:
                    tr = f.add(tr, f.mul(v, w))
            if tr:
                gram[j][i] = tr
    return kernel_basis(gram, k, f)


def primitive_idempotents(elts, n, f, seed=0):
    """Complete orthogonal primitive idempotents of a basic endomorphism
    algebra, spanned by the End(M) elements elts of an n-dimensional M:
    trace-form radical, eigen-split of the (commutative) quotient, Newton
    lifting, then sequential orthogonalization."""
    rad = _trace_radical(elts, n, f)
    rad_elts = [combine_sparse(vec, elts, f) for vec in rad.basis]
    semis = len(elts) - rad.dim
    # representatives of a basis of E/rad
    span = IncrementalSpan(f)
    for x in rad_elts:
        span.add(x)
    quot = [x for x in elts if span.add(x)]
    assert len(quot) == semis
    # expresses z.x over quot + rad, for every trial z below
    solver = PreparedSolver(quot + rad_elts, n * n, f)
    rng = SplitMix64(seed)
    for _ in range(40):
        z = combine_sparse({i: f(rng.int_in(-9, 9)) for i in range(semis)}, quot, f)
        # eigenvalues of z on E/rad: find rational lambda with
        # (z - lambda) not invertible mod rad; use the action on the
        # quotient: solve the characteristic polynomial by rational roots
        lams = _eigenvalues_mod_rad([_product(z, x, n, f) for x in quot], solver, f)
        if lams is not None and len(lams) == semis:
            idems = [_lagrange_idempotent(z, lam, lams, n, f) for lam in lams]
            # Newton-lift each inside rest = 1 - (the ones lifted so far),
            # which keeps them orthogonal; they are complete when rest is 0
            out = []
            rest = _identity(n, f)
            for e in idems:
                lifted = _newton_idempotent(_product(_product(rest, e, n, f), rest, n, f), n, f)
                if lifted is None:
                    break
                out.append(lifted)
                rest = combine_sparse({0: f.one(), 1: f.neg(f.one())}, [rest, lifted], f)
            else:
                if not rest:
                    return out
    raise ValueError("could not split idempotents; algebra may not be basic")


def _eigenvalues_mod_rad(products, solver, f):
    """Rational eigenvalues of multiplication by z on the semisimple
    quotient, via iterated minimal-polynomial factor stripping.  products
    are z times each quotient representative, and ``solver`` expresses
    End(M) elements over the quotient representatives followed by a
    basis of the radical."""
    # columns of left multiplication by z on span(quot) mod rad
    k = len(products)
    lmul = []
    for zx in products:
        sol = solver.solve(zx)
        if sol is None:
            return None
        lmul.append({i: v for i, v in sol.items() if i < k})
    # rational eigenvalues via integer root search on the characteristic
    # action: try small rationals (entries of quotient algebras here are
    # tiny); collect lambda with nontrivial kernel
    lams = []
    for num in range(-12, 13):
        lam = f(num)
        shifted = [dict(col) for col in lmul]
        for j, col in enumerate(shifted):
            col[j] = f.add(col.get(j, f.zero()), f.neg(lam))
        kerdim = k - rank(shifted, f)
        for _ in range(kerdim):
            lams.append(lam)
    if len(lams) != k or len(set(lams)) != k:
        return None
    return lams


def _lagrange_idempotent(z, lam, lams, n, f):
    one = _identity(n, f)
    out = one
    for mu in lams:
        if mu == lam:
            continue
        # (z - mu) / (lam - mu)
        inv = f.inv(f.add(lam, f.neg(mu)))
        out = _product(out, combine_sparse({0: inv, 1: f.neg(f.mul(mu, inv))}, [z, one], f), n, f)
    return out


def _newton_idempotent(e, n, f):
    for _ in range(60):
        e2 = _product(e, e, n, f)
        if e2 == e:
            return e
        e = combine_sparse({0: f(3), 1: f(-2)}, [e2, _product(e2, e, n, f)], f)
    return None


def algebra_from_endomorphisms(module, seed=0):
    """End_D(M) as a PathBasisAlgebra tagged by primitive idempotents.

    Returns (algebra, chosen, idempotents): chosen[i] is the endomorphism
    realizing basis element i, and every End(M) element is sparse over its
    n * n matrix entries {i * n + j: value}.  Vertices are integers
    0..r-1 in idempotent order.
    """
    f = module.algebra.field
    n = module.dim
    elts = endomorphism_matrices(module)
    idems = primitive_idempotents(elts, n, f, seed)
    r = len(idems)
    tagged = []
    chosen = []
    span = IncrementalSpan(f)
    # corner-split the endomorphism space: e_i E e_j
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            for x in elts:
                c = _product(_product(ei, x, n, f), ej, n, f)
                if span.add(c):
                    tagged.append((f"f{len(chosen)}", i, j))
                    chosen.append(c)
    # put idempotents first per vertex: ensure e_i themselves are present
    mult = {}
    solver = PreparedSolver(chosen, n * n, f)
    for i, ci in enumerate(chosen):
        for j, cj in enumerate(chosen):
            # x . y composes y first (path convention); matrices act in row
            # convention, so the composite matrix is cj then ci
            vec = _product(cj, ci, n, f)
            if not vec:
                continue
            sol = solver.solve(vec)
            if sol is None:
                raise ValueError("endomorphism span not closed under product")
            mult[(i, j)] = dict(sorted(sol.items()))
    alg = PathBasisAlgebra.from_structure_constants(list(range(r)), tagged, mult, f)
    return alg, chosen, idems


def coord_complex_of(x: ProjBimodComplex) -> CoordComplex:
    """Coordinate form of a projective-term complex (testing aid)."""
    alg = x.base
    modules = {}
    diffs = {}
    for p in x.degrees():
        # CoverStep.coords enumerates a summand's coordinates as x.coords does
        step = CoverStep([(s.left, s.right) for s in x.summands(p)], [])
        modules[p] = _free_bimodule(alg, alg, step)
        cols, _, tgt = x.diff_matrix(p)
        if tgt:
            diffs[p] = cols
    return CoordComplex(alg, alg, modules, diffs)


def truncate_smart(x: CoordComplex, lo, hi):
    """Quasi-isomorphic truncation onto cohomological degrees [lo, hi].

    Requires the cohomology of x to vanish outside [lo, hi]: the top is
    replaced by the kernel of d^hi and the bottom by the cokernel of
    d^{lo-1}.
    """
    A, B = x.left_alg, x.right_alg
    f = A.field
    modules = {}
    diffs = {}
    # kernel at the top
    top_mod = x.modules.get(hi)
    if top_mod is None:
        return x
    d_hi = x.diffs.get(hi)
    if d_hi is not None:
        top_sub, top_rows = _sub_bimodule(
            top_mod, kernel_basis(d_hi, x.modules[hi + 1].dim, f).basis)
    else:
        top_sub, top_rows = top_mod, [{i: f.one()} for i in range(top_mod.dim)]
    # cokernel at the bottom
    low_mod = x.modules.get(lo)
    d_below = x.diffs.get(lo - 1)
    if low_mod is None:
        raise ValueError("no term at the lower truncation degree")
    proj_rows, coker = _quotient_bimodule(low_mod, d_below, f)
    for p in range(lo, hi + 1):
        if p == hi and p == lo:
            raise ValueError("single-degree truncation not needed")
        if p == hi:
            modules[p] = top_sub
        elif p == lo:
            modules[p] = coker
        else:
            modules[p] = x.modules[p]
    for p in range(lo, hi):
        d = x.diffs.get(p)
        if d is None:
            continue
        if p == lo:
            # factor through the quotient: columns indexed by coker basis,
            # proj_rows: coker basis -> ambient reps
            d = [combine_sparse(rep, d, f) for rep in proj_rows]
        if p == hi - 1:
            # corestrict into the kernel: express columns in top_rows
            solver = PreparedSolver(top_rows, x.modules[hi].dim, f)
            cols = []
            for vec in d:
                sol = solver.solve(vec)
                if sol is None:
                    raise ValueError("cohomology extends beyond the window")
                cols.append(sol)
            d = cols
        diffs[p] = d
    return CoordComplex(A, B, modules, diffs)


def _quotient_bimodule(m: BimoduleData, image_cols, f):
    """Quotient of m by the span of image_cols, sparse columns (None for
    a zero map).

    Returns (representative sparse rows per quotient basis vector, quotient
    data).
    """
    n = m.dim
    images = image_cols or []
    span = IncrementalSpan(f)
    for vec in images:
        span.add(vec)
    reps = [{i: f.one()} for i in range(n) if span.add({i: f.one()})]
    respan = IncrementalSpan(f)
    img_rows = [vec for vec in images if respan.add(vec)]
    k = len(reps)
    solver = PreparedSolver(reps + img_rows, n, f)

    def project(vec):
        return {j: v for j, v in solver.solve(vec).items() if j < k}

    left = [[project(m.left_act(kk, rep)) for rep in reps] for kk in range(m.left_alg.dim)]
    right = [[project(m.right_act(kk, rep)) for rep in reps] for kk in range(m.right_alg.dim)]
    return reps, BimoduleData(m.left_alg, m.right_alg, k, left, right)


def corner_adapt_module(module):
    """Rewrite a right module on a basis split by the vertex idempotents.

    Returns (new RightModule, tags, change) with tags[i] the vertex of the
    i-th new basis vector and change the new basis vectors, sparse over
    the old basis.
    """
    alg = module.algebra
    f = alg.field
    n = module.dim
    rows = []
    tags = []
    for v in alg.vertices:
        span = IncrementalSpan(f)
        # m_i . e_v for each basis vector m_i
        for w in module.action[alg.idempotent_index(v)]:
            if span.add(w):
                rows.append(w)
                tags.append(v)
    if len(rows) != n:
        raise ValueError("idempotents do not decompose the module")
    solver = PreparedSolver(rows, n, f)
    action = []
    for k in range(alg.dim):
        # action rows keep their entries in coordinate order
        action.append([dict(sorted(solver.solve(module.act(rep, k)).items())) for rep in rows])
    from .quiveralg import RightModule

    return RightModule(alg, n, action), tags, rows


def hom_transport_complex(module, steps, d_maps, tags, w):
    """Hom_D(P(M), M (x) W) as a strict (E, E)-bimodule coordinate complex.

    steps and d_maps, from resolution_steps, resolve M over E (x) D^op; M
    is corner-adapted, tags[i] the vertex of its i-th basis vector; w is
    the carried bimodule complex over D.
    """
    e_alg, d_alg = module.left_alg, module.right_alg
    f = e_alg.field
    n = module.dim
    # N = M (x) W coordinates per degree: (w_deg, w_idx, m_tagged, d_basis)
    n_coords = {}
    for q in w.degrees():
        items = []
        for t_idx, t in enumerate(w.summands(q)):
            for mi in range(n):
                if tags[mi] != t.left:
                    continue
                for d in (b.index for b in d_alg.basis if b.target == t.right):
                    items.append((t_idx, mi, d))
        n_coords[q] = items

    w_out = {q: _by_source(dd) for q, dd in w.diff.items()}

    def n_diff(q, coord):
        """Terms of d_N on one coordinate of N^q."""
        t_idx, mi, d = coord
        for t2, entry in w_out.get(q, {}).get(t_idx, ()):
            for (alpha, beta), c in entry.items():
                mrow = module.right_action[alpha][mi]
                for bd, cb in d_alg.mult(beta, d).items():
                    for mj, cm in mrow.items():
                        yield (t2, mj, bd), f.mul(c, f.mul(cm, cb))

    # X^r coordinates: (p, g, x, ncoord) with P at degree p
    e_basis_src = {
        u: [b.index for b in e_alg.basis if b.source == u] for u in e_alg.vertices
    }
    x_coords = {}
    for p, step in steps.items():
        for g, (u, v) in enumerate(step.generators):
            for q in w.degrees():
                r = q - p
                for xx in e_basis_src[u]:
                    for ncoord in n_coords[q]:
                        t_idx, mi, d = ncoord
                        if d_alg.basis[d].source != v:
                            continue
                        x_coords.setdefault(r, []).append((p, g, xx, ncoord))

    modules = {}
    diffs = {}
    for r, items in sorted(x_coords.items()):
        pos = {c: i for i, c in enumerate(items)}
        dim = len(items)
        # every entry below is set once: distinct basis products land on
        # distinct coordinates
        left = []
        for e_rows in module.left_action:
            # left: act on the N part through the module's E action; E acts
            # by D-endomorphisms, which commute with D's idempotents, so
            # the action stays inside the vertex tag
            rows = [{} for _ in range(dim)]
            for i, (p, g, xx, (t_idx, mi, d)) in enumerate(items):
                for mj, c in e_rows[mi].items():
                    jj = pos.get((p, g, xx, (t_idx, mj, d)))
                    if jj is not None:
                        rows[i][jj] = c
            left.append(rows)
        right = []
        for k in range(e_alg.dim):
            rows = [{} for _ in range(dim)]
            for jcol, (p, g, x2, ncoord) in enumerate(items):
                # (phi . eps)[x2-coordinate] reads phi at the expansion of
                # eps . x2, so rows are the expansion coordinates
                for x1, c in e_alg.mult(k, x2).items():
                    ii = pos.get((p, g, x1, ncoord))
                    if ii is not None:
                        rows[ii][jcol] = c
            right.append(rows)
        modules[r] = BimoduleData(e_alg, e_alg, dim, left, right)
    # d_P: P_{p-1} -> P_p by the P_p generator it lies over:
    # d_over[p][g] = [(g2, aa, dd, coefficient)]
    d_over = {p: {} for p in steps}
    for p, cols in d_maps.items():
        upper = steps[p + 1].coords(e_alg, d_alg)
        for g2, vec in enumerate(steps[p].generator_columns(cols, e_alg, d_alg)):
            for ci, cval in sorted(vec.items()):
                g, aa, dd = upper[ci]
                d_over[p + 1].setdefault(g, []).append((g2, aa, dd, cval))
    for r in sorted(x_coords):
        if r + 1 not in x_coords:
            continue
        sgn = f(1) if r % 2 == 0 else f(-1)

        def image(coord):
            p, g, xx, ncoord = coord
            q = r + p
            # d_N o phi
            for key2, c in n_diff(q, ncoord):
                yield (p, g, xx, key2), c
            # -(-1)^r phi o d_P : lands in Hom(P_{p-1}, N^q); phi((g, x2 in
            # x'.aa, dd)) = +- n . dd, collected against (p-1, g2, x', -)
            t_idx, mi, d = ncoord
            for g2, aa, dd, cval in d_over[p].get(g, ()):
                for x2 in e_basis_src[steps[p - 1].generators[g2][0]]:
                    c2 = e_alg.mult(x2, aa).get(xx)
                    if not c2:
                        continue
                    for d2, c3 in d_alg.mult(d, dd).items():
                        yield ((p - 1, g2, x2, (t_idx, mi, d2)),
                               f.neg(f.mul(sgn, f.mul(cval, f.mul(c2, c3)))))

        diffs[r] = assemble(x_coords[r], x_coords[r + 1], image, f)
    return CoordComplex(e_alg, e_alg, modules, diffs)


def transported_pair(a_alg, u_a, b_alg, u_b, e_vertices_a, len_bound=10, seed=0):
    """Carry a strict pair across the endomorphism algebra of the tensor
    tilting object: returns a dict with the endomorphism algebra E, the
    transported bimodule complex over E, and the intermediate data."""
    from .quiveralg import tensor_product_algebra
    from .bimodcx import direct_sum, outer_tensor, projective_sum, tensor_over_A
    from .rootpair import h0_right_module

    d_alg, pair_idx = tensor_product_algebra(a_alg, b_alg)
    w = outer_tensor(u_a, u_b, d_alg, pair_idx)
    e_pairs = [(va, vb) for va in e_vertices_a for vb in b_alg.vertices]
    t0 = projective_sum(d_alg, e_pairs)
    t1 = tensor_over_A(t0, w)
    m_raw, _, _ = h0_right_module(direct_sum(t0, t1))
    module, tags, _ = corner_adapt_module(m_raw)
    e_alg, chosen, idems = algebra_from_endomorphisms(module, seed)
    # the action rows of each chosen End(M) element
    n = module.dim
    e_action = [[{k % n: c[k] for k in sorted(c) if k // n == i} for i in range(n)] for c in chosen]
    m_data = BimoduleData(e_alg, d_alg, module.dim, e_action, module.action)
    if not m_data.check_bimodule():
        raise ValueError("E- and D-actions do not commute")
    steps, _, d_maps = resolution_steps(CoordComplex(e_alg, d_alg, {0: m_data}, {}), len_bound)
    x = hom_transport_complex(m_data, steps, d_maps, tags, w)
    dims = x.cohomology_dims()
    lo, hi = min(dims), max(dims)
    if lo != hi:
        x = truncate_smart(x, lo, hi)
    u_e, _, _ = resolve_complex(x, len_bound=len_bound + 4)
    u_e = minimize(u_e)
    return {
        "algebra": e_alg,
        "u": u_e,
        "product_algebra": d_alg,
        "w": w,
        "module": module,
        "tags": tags,
        "hom_dims": dims,
    }


def match_basic_algebras(a, b):
    """Vertex bijection and basis scalings matching structure constants.

    Both algebras must be basic with corners of dimension at most one.
    Returns (vertex_map, basis_scalings) or None; exhaustive over vertex
    bijections.
    """
    from itertools import permutations

    if a.dim != b.dim or len(a.vertices) != len(b.vertices):
        return None
    f = a.field
    for alg in (a, b):
        for i in alg.vertices:
            for j in alg.vertices:
                if len(alg.corner_indices(i, j)) > 1:
                    return None

    def corner_elt(alg, i, j):
        idxs = alg.corner_indices(i, j)
        return idxs[0] if idxs else None

    def constant(alg, i, j, k):
        x = corner_elt(alg, i, j)
        y = corner_elt(alg, j, k)
        z = corner_elt(alg, i, k)
        if x is None or y is None:
            return None
        prod = alg.mult(x, y)
        if not prod:
            return f.zero()
        if z is None:
            return None if prod else f.zero()
        return prod.get(z, f.zero())

    bverts = list(b.vertices)
    for perm in permutations(bverts):
        sigma = dict(zip(a.vertices, perm))
        ok = True
        for i in a.vertices:
            for j in a.vertices:
                if len(a.corner_indices(i, j)) != len(
                    b.corner_indices(sigma[i], sigma[j])
                ):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        lam = {}
        for v in a.vertices:
            lam[(v, v)] = f.one()
        corners = [
            (i, j)
            for i in a.vertices
            for j in a.vertices
            if i != j and a.corner_indices(i, j)
        ]
        triples = []
        consistent = True
        for i in a.vertices:
            for j in a.vertices:
                for k in a.vertices:
                    ca = constant(a, i, j, k)
                    cb = constant(b, sigma[i], sigma[j], sigma[k])
                    if ca is None and cb is None:
                        continue
                    if (ca is None) != (cb is None):
                        consistent = False
                        break
                    if ca is None:
                        continue
                    if (ca == 0) != (cb == 0):
                        consistent = False
                        break
                    if ca != 0:
                        triples.append(((i, j), (j, k), (i, k), ca, cb))
                if not consistent:
                    break
            if not consistent:
                break
        if not consistent:
            continue
        # propagate scalings: lam[ij] lam[jk] cb = ca lam[ik]
        changed = True
        while changed:
            changed = False
            for t1, t2, t3, ca, cb in triples:
                known = [t in lam for t in (t1, t2, t3)]
                if sum(known) == 2:
                    if t3 not in lam:
                        lam[t3] = f.mul(f.mul(lam[t1], lam[t2]), f.mul(cb, f.inv(ca)))
                    elif t1 not in lam:
                        lam[t1] = f.mul(f.mul(ca, lam[t3]), f.inv(f.mul(lam[t2], cb)))
                    else:
                        lam[t2] = f.mul(f.mul(ca, lam[t3]), f.inv(f.mul(lam[t1], cb)))
                    changed = True
        for c in corners:
            if c not in lam:
                lam[c] = f.one()
        good = all(
            f.mul(f.mul(lam[t1], lam[t2]), cb) == f.mul(ca, lam[t3])
            for t1, t2, t3, ca, cb in triples
        )
        if good:
            return sigma, lam
    return None
