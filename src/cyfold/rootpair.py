"""Casimir elements, Hochschild-style classes, cyclic invariance, and the
root-pair axiom checks.

The chain-level pairing sends a closed map psi: M^dual -> N to
sum_j (-1)^{d|y_j|} y_j (x) psi(y_j^*), with sum y_j (x) y_j^* a Casimir
element of M; the map detects homotopy classes, which is how both the
Hochschild class of a root morphism and its peeled map (one tensor factor
removed against the dual) are computed here.
"""

from .bimodcx import (
    ChainMap,
    HomComplex,
    ProjBimodComplex,
    RightComplex,
    _by_source,
    assemble,
    bimodule_dual,
    chain_maps,
    find_quasi_iso,
    h0_representatives,
    hom_coords,
    hom_diff_matrix,
    is_quasi_iso,
    map_from_vector,
    projective_sum,
    resolution_of_algebra,
    shift,
    tensor_over_A,
    tensor_power,
)
from .exactlin import (
    combine_sparse,
    derive_seed,
    kernel_basis,
    random_vector,
    rank,
    solve_linear,
)
from .quiveralg import RightModule


class LiftFailed(Exception):
    pass


class ContractedComplex:
    """Coordinates of X (x)_{A^e} Y for complexes of projective bimodules.

    A coordinate ((p, s), (q, t), (u, v)) stands for the balanced element
    gen_S (x) (u . gen_T . v), with u in e_{j_S} A e_{k_T} and
    v in e_{l_T} A e_{i_S}; its degree is p + q.
    """

    def __init__(self, x: ProjBimodComplex, y: ProjBimodComplex):
        self.x = x
        self.y = y
        self.alg = x.base
        self._coords = {}
        for p in x.degrees():
            for s_idx, s in enumerate(x.summands(p)):
                for q in y.degrees():
                    for t_idx, t in enumerate(y.summands(q)):
                        for u in self.alg.corner_indices(s.right, t.left):
                            for v in self.alg.corner_indices(t.right, s.left):
                                self._coords.setdefault(p + q, []).append(
                                    ((p, s_idx), (q, t_idx), (u, v))
                                )

    def coords(self, r):
        return self._coords.get(r, [])

    def diff_matrix(self, r):
        alg = self.alg
        f = alg.field
        x_out = {p: _by_source(dd) for p, dd in self.x.diff.items()}
        y_out = {q: _by_source(dd) for q, dd in self.y.diff.items()}

        def image(coord):
            (p, s_idx), (q, t_idx), (u, v) = coord
            for s2, entry in x_out.get(p, {}).get(s_idx, ()):
                for (alpha, beta), c in entry.items():
                    for u2, cu in alg.mult(beta, u).items():
                        for v2, cv in alg.mult(v, alpha).items():
                            yield ((p + 1, s2), (q, t_idx), (u2, v2)), f.mul(c, f.mul(cu, cv))
            sgn = f(1) if p % 2 == 0 else f(-1)
            for t2, entry in y_out.get(q, {}).get(t_idx, ()):
                for (alpha, beta), c in entry.items():
                    for u2, cu in alg.mult(u, alpha).items():
                        for v2, cv in alg.mult(beta, v).items():
                            yield (((p, s_idx), (q + 1, t2), (u2, v2)),
                                   f.mul(sgn, f.mul(c, f.mul(cu, cv))))

        return assemble(self.coords(r), self.coords(r + 1), image, f)


class ContractWithA:
    """Coordinates of X (x)_{A^e} A: per summand T = (k, l) a coordinate for
    each basis element of e_l A e_k; degree that of T."""

    def __init__(self, x: ProjBimodComplex):
        self.x = x
        self.alg = x.base
        self._coords = {}
        for p in x.degrees():
            for t_idx, t in enumerate(x.summands(p)):
                for a in self.alg.corner_indices(t.right, t.left):
                    self._coords.setdefault(p, []).append((t_idx, a))

    def coords(self, r):
        return self._coords.get(r, [])

    def diff_matrix(self, r):
        alg = self.alg
        f = alg.field
        out = _by_source(self.x.diff.get(r, {}))

        def image(coord):
            t_idx, a = coord
            for t2, entry in out.get(t_idx, ()):
                for (alpha, beta), c in entry.items():
                    for a2, c1 in alg.mult(beta, a).items():
                        for a3, c2 in alg.mult(a2, alpha).items():
                            yield (t2, a3), f.mul(c, f.mul(c1, c2))

        return assemble(self.coords(r), self.coords(r + 1), image, f)

    def boundary_decompose(self, r, vec):
        """Write a sparse vec at degree r as d(w), w sparse, if possible,
        else return None."""
        return solve_linear(self.diff_matrix(r - 1), len(self.coords(r)), vec, self.alg.field)


def evaluation_matrix(x: ProjBimodComplex, dual, contracted: ContractedComplex, r):
    """Chain map X (x) X^dual -> End(X) on degree-r coordinates.

    Sends ((p,s),(q,t),(u,v)) to the component map S' -> S with entry
    (v, u), where S' is the x-summand dual to the (q,t) summand.
    """
    f = x.base.field
    one = f.one()

    def image(coord):
        (_, s_idx), (q, t_idx), (u, v) = coord
        # dual summand (q, t_idx) corresponds to x summand (-q, t_idx)
        yield (-q, t_idx, s_idx, (v, u)), one

    src = contracted.coords(r)
    end_coords = hom_coords(x, x, r)
    return assemble(src, end_coords, image, f), src, end_coords


class CasimirElement:
    """A degree-0 chain of X (x) X^dual as a sparse vector over coords."""

    def __init__(self, x, dual, contracted, coords, vector):
        self.complex = x
        self.dual = dual
        self.contracted = contracted
        self.coords = coords
        self.vector = vector

    def items(self):
        for i in sorted(self.vector):
            yield self.coords[i], self.vector[i]


def _identity_vector(x, end_coords):
    """The identity of X as a sparse vector over End(X) coordinates."""
    one = x.base.field.one()
    out = {}
    for i, (p, s_idx, t_idx, key) in enumerate(end_coords):
        s = x.summands(p)[s_idx]
        if t_idx == s_idx and key == x._unit_key(s, s):
            out[i] = one
    return out


def casimir(x: ProjBimodComplex, dual=None, perturb_seed=None) -> CasimirElement:
    """Chain-level preimage of the identity under X (x) X^dual -> End(X).

    Solved exactly: the result is a degree-0 cycle whose evaluation differs
    from the identity by an exact term.  perturb_seed shifts the result by
    a random element of the solution space's homogeneous part (a different
    but equally valid representative).
    """
    f = x.base.field
    if dual is None:
        dual = bimodule_dual(x)
    contracted = ContractedComplex(x, dual)
    coords = contracted.coords(0)
    n = len(coords)
    ev, _, end_coords = evaluation_matrix(x, dual, contracted, 0)
    hd, _, _ = hom_diff_matrix(x, x, -1)
    n_end = len(end_coords)
    # unknowns (c, h): the rows ev c - hd h = id, then the rows d(c) = 0
    cols = [e | {n_end + i: v for i, v in d.items()}
            for e, d in zip(ev, contracted.diff_matrix(0))]
    cols += [{i: f.neg(v) for i, v in col.items()} for col in hd]
    n_rows = n_end + len(contracted.coords(1))
    sol = solve_linear(cols, n_rows, _identity_vector(x, end_coords), f)
    if sol is None:
        raise LiftFailed("no Casimir element; sign conventions broken")
    if perturb_seed is not None:
        shift_vec = random_vector(kernel_basis(cols, n_rows, f), perturb_seed)
        sol = combine_sparse({0: f.one(), 1: f.one()}, [sol, shift_vec], f)
    vec = {j: v for j, v in sol.items() if j < n}
    return CasimirElement(x, dual, contracted, coords, vec)


def casimir_identity_defect(cas: CasimirElement):
    """Residual ev(c) - id as a sparse vector, for tests; must be exact in
    End(X)."""
    x = cas.complex
    f = x.base.field
    ev, _, end_coords = evaluation_matrix(x, cas.dual, cas.contracted, 0)
    img = combine_sparse(cas.vector, ev, f)
    ident = _identity_vector(x, end_coords)
    return combine_sparse({0: f.one(), 1: f.neg(f.one())}, [img, ident], f), end_coords


class HHClass:
    """Cycle in M^(x)n (x)_{A^e} A: vector is sparse, {index: value} over
    the ContractWithA coordinates of its degree."""

    def __init__(self, power, ambient: ContractWithA, degree, vector):
        self.power = power
        self.ambient = ambient
        self.degree = degree
        self.vector = vector

    def is_cycle(self):
        return not combine_sparse(self.vector, self.ambient.diff_matrix(self.degree),
                                  self.power.base.field)


def hh_class(phi: ChainMap, cas: CasimirElement, power: ProjBimodComplex) -> HHClass:
    """Class of phi: (pA)^dual -> M^n in M^n (x)_{A^e} A.

    Only the degree-0 part of the Casimir element of pA contributes, since
    the augmentation kills the other degrees.
    """
    pa = cas.complex
    alg = pa.base
    f = alg.field
    if pa.augmentation is None:
        raise ValueError("resolution lacks augmentation data")
    ambient = ContractWithA(power)
    degree = phi.degree
    coords = ambient.coords(degree)
    pos = {c: i for i, c in enumerate(coords)}
    out = {}
    for ((p, s_idx), (q, t_idx), (u, v)), c_cas in cas.items():
        if p != 0 or q != 0:
            continue
        aug = pa.augmentation.get(s_idx)
        if not aug:
            continue
        # pi(x_i) = v . aug . u
        elem = {}
        for w, cw in aug.items():
            for vw, c1 in alg.mult(v, w).items():
                for vwu, c2 in alg.mult(vw, u).items():
                    val = f.mul(f.mul(cw, c1), c2)
                    elem[vwu] = f.add(elem.get(vwu, f.zero()), val)
        if not elem:
            continue
        for (t2, t_src), entry in phi.components.get(0, {}).items():
            if t_src != t_idx:
                continue
            for (alpha, beta), c in entry.items():
                for a1, ca in elem.items():
                    for ba, c1 in alg.mult(beta, a1).items():
                        for baa, c2 in alg.mult(ba, alpha).items():
                            i = pos.get((t2, baa))
                            if i is None:
                                continue
                            val = f.mul(f.mul(c_cas, c), f.mul(ca, f.mul(c1, c2)))
                            out[i] = f.add(out.get(i, f.zero()), val)
    return HHClass(power, ambient, degree, {i: v for i, v in out.items() if v})


def rotate(cls: HHClass, n: int) -> HHClass:
    """Cyclic rotation z_1 (x) ... (x) z_n -> z_2 (x) ... (x) z_n (x) z_1
    with the Koszul sign (-1)^{|z_1|(|z_2|+...+|z_n|)}."""
    power = cls.power
    alg = power.base
    f = alg.field
    if n == 1:
        return HHClass(power, cls.ambient, cls.degree, dict(cls.vector))
    coords = cls.ambient.coords(cls.degree)
    pos = {c: i for i, c in enumerate(coords)}
    out = {}
    for i, c in cls.vector.items():
        t_idx, a = coords[i]
        summand = power.summands(cls.degree)[t_idx]
        ss, ms = summand.trace
        p1 = ss[0][0]
        rest = sum(p for p, _ in ss[1:])
        sgn = f(1) if (p1 * rest) % 2 == 0 else f(-1)
        new_ss = ss[1:] + ss[:1]
        new_ms = ms[1:] + (a,)
        new_coord_val = ms[0]
        hit = power.trace_index().get((new_ss, new_ms))
        if hit is None or hit[0] != cls.degree:
            raise ValueError("rotated summand missing; use tensor_power labels")
        target = hit[1]
        j = pos[(target, new_coord_val)]
        out[j] = f.add(out.get(j, f.zero()), f.mul(sgn, c))
    return HHClass(power, cls.ambient, cls.degree, {j: v for j, v in out.items() if v})


def is_cyclically_invariant(
    alg,
    u: ProjBimodComplex,
    a: int,
    d: int,
    resolution=None,
    trials=16,
    seed=0,
):
    """Does some quasi-isomorphism (pA)^dual -> U^(x)a of degree -d have a
    rotation-invariant class?

    Scans the full linear family: solves the linear condition
    class - rotated class = boundary over all closed maps, then samples the
    solution space for a quasi-isomorphism.  Returns (verdict, witness).
    """
    f = alg.field
    if resolution is None:
        resolution = resolution_of_algebra(alg)
    dual = bimodule_dual(resolution)
    power = tensor_power(u, a)
    r = -d
    closed, boundaries, coords = chain_maps(dual, power, r)
    if closed.dim == 0:
        return False, None
    if a == 1:
        fmap = find_quasi_iso(dual, power, r, trials=trials, seed=seed)
        return (fmap is not None), fmap
    cas = casimir(resolution)
    ambient = ContractWithA(power)
    m = len(ambient.coords(r))
    # unknowns: t (over the closed basis) and w (a boundary preimage), with
    # class((1 - rho) sum_k t_k z_k) = d w
    eq_cols = []
    for z in closed.basis:
        cls = hh_class(map_from_vector(dual, power, r, coords, z), cas, power)
        eq_cols.append(combine_sparse({0: f.one(), 1: f.neg(f.one())},
                                      [cls.vector, rotate(cls, a).vector], f))
    eq_cols += [{i: f.neg(v) for i, v in col.items()} for col in ambient.diff_matrix(r - 1)]
    sol_space = kernel_basis(eq_cols, m, f)
    if sol_space.dim == 0:
        return False, None
    zdim = closed.dim
    for t in range(trials):
        coeffs = random_vector(sol_space, derive_seed(seed, t))
        vec = combine_sparse({k: c for k, c in coeffs.items() if k < zdim}, closed.basis, f)
        if not vec:
            continue
        fmap = map_from_vector(dual, power, r, coords, vec)
        if is_quasi_iso(fmap):
            return True, fmap
    return False, None


def peel_map(phi: ChainMap, u: ProjBimodComplex, a: int, d: int, resolution=None):
    """The induced map U^dual -> U^(x)(a-1) of degree -d.

    Characterized by the pairing identity: its class against the Casimir
    element of U matches the class of phi under the identification
    A (x) U^(x)a = U (x) U^(x)(a-1).  Raises LiftFailed when the linear
    system is inconsistent (non-invertible U or a convention regression).
    """
    alg = u.base
    f = alg.field
    if resolution is None:
        resolution = resolution_of_algebra(alg)
    dual_u = bimodule_dual(u)
    tau = hh_class(phi, casimir(resolution), phi.target)
    target = tensor_power(u, a - 1) if a >= 2 else resolution
    r = -d
    closed, _, psi_coords = chain_maps(dual_u, target, r)
    pair_cols = _pairing_columns(casimir(u, dual_u), psi_coords, target, tau, resolution, a, d)
    # unknowns: t (over the closed basis) and w, with pair(sum_k t_k z_k) - d w = tau
    amb = tau.ambient
    cols = [combine_sparse(z, pair_cols, f) for z in closed.basis]
    cols += [{i: f.neg(v) for i, v in col.items()} for col in amb.diff_matrix(r - 1)]
    sol = solve_linear(cols, len(amb.coords(r)), tau.vector, f)
    if sol is None:
        raise LiftFailed("pairing identity has no solution")
    zdim = closed.dim
    vec = combine_sparse({k: c for k, c in sol.items() if k < zdim}, closed.basis, f)
    return map_from_vector(dual_u, target, r, psi_coords, vec)


def _pairing_columns(cas_u, psi_coords, target, tau, resolution, a, d):
    """Column k: the class, over tau's ambient coordinates, that the
    Casimir element cas_u of U pairs with the degree -d map U^dual -> target
    whose coordinate k (of psi_coords) is 1 and the others 0."""
    alg = target.base
    f = alg.field
    power_a = tau.power
    r = -d
    amb_pos = {c: i for i, c in enumerate(tau.ambient.coords(r))}
    by_source = {}
    for k, (pp, psrc, ptgt, (alpha, beta)) in enumerate(psi_coords):
        by_source.setdefault((pp, psrc), []).append((k, ptgt, alpha, beta))
    pair_cols = [{} for _ in psi_coords]
    for ((p, s_idx), (q, t_idx), (u1, v1)), c_cas in cas_u.items():
        sgn = f(1) if (d * p) % 2 == 0 else f(-1)
        for k, ptgt, alpha, beta in by_source.get((q, t_idx), ()):
            col = pair_cols[k]
            for a2, c1 in alg.mult(u1, alpha).items():
                for b2, c2 in alg.mult(beta, v1).items():
                    val = f.mul(sgn, f.mul(c_cas, f.mul(c1, c2)))
                    if a >= 2:
                        ss2, ms2 = target.summands(q + r)[ptgt].trace
                        amb_i = _find_power_coord(
                            power_a, amb_pos, p + q + r,
                            ((p, s_idx),) + ss2, (a2,) + ms2, b2,
                        )
                        if amb_i is not None:
                            col[amb_i] = f.add(col.get(amb_i, f.zero()), val)
                    else:
                        for amb_j, cval in _find_a1_coord(
                            power_a, resolution, amb_pos, alg, f,
                            p, s_idx, q + r, ptgt, a2, b2,
                        ):
                            col[amb_j] = f.add(col.get(amb_j, f.zero()), f.mul(val, cval))
    return pair_cols


def _find_power_coord(power_a, amb_pos, deg, full_ss, full_ms, coord_val):
    hit = power_a.trace_index().get((full_ss, full_ms))
    if hit is None or hit[0] != deg:
        return None
    return amb_pos.get((hit[1], coord_val))


def _find_a1_coord(power_a, resolution, amb_pos, alg, f, p, s_idx, tdeg, ptgt, a2, b2):
    """a = 1: contract the resolution factor through its augmentation."""
    if tdeg != 0:
        return []
    aug = (resolution.augmentation or {}).get(ptgt)
    if not aug:
        return []
    hit = power_a.trace_index().get(((((p, s_idx),)), ()))
    if hit is None or hit[0] != p:
        return []
    target_t = hit[1]
    out = []
    for w, cw in aug.items():
        for aw, c1 in alg.mult(a2, w).items():
            for awb, c2 in alg.mult(aw, b2).items():
                i = amb_pos.get((target_t, awb))
                if i is not None:
                    out.append((i, f.mul(cw, f.mul(c1, c2))))
    return out


def check_peel_identity(phi, u, a, d, resolution=None):
    """Verify the Casimir pairing identity linking phi and its peeled map.

    The peel solve must succeed, and the identity must continue to hold
    against an independently perturbed Casimir representative.
    """
    alg = u.base
    if resolution is None:
        resolution = resolution_of_algebra(alg)
    try:
        psi = peel_map(phi, u, a, d, resolution)
    except LiftFailed:
        return False
    if not psi.is_closed():
        return False
    # re-verify with different Casimir representatives of U and of pA
    f = alg.field
    r = -d
    cas2 = casimir(u, psi.source, perturb_seed=7)
    tau = hh_class(phi, casimir(resolution, perturb_seed=8), phi.target)
    psi_coords = hom_coords(psi.source, psi.target, r)
    psi_vec = {}
    for k, (p, s_idx, t_idx, key) in enumerate(psi_coords):
        c = psi.entry(p, t_idx, s_idx).get(key)
        if c:
            psi_vec[k] = c
    pair_cols = _pairing_columns(cas2, psi_coords, psi.target, tau, resolution, a, d)
    lhs = combine_sparse(psi_vec, pair_cols, f)
    resid = combine_sparse({0: f.one(), 1: f.neg(f.one())}, [lhs, tau.vector], f)
    return tau.ambient.boundary_decompose(r, resid) is not None


class RootPairSpec:
    """Input bundle for the root-pair checks: algebra, bimodule complex U,
    tensor exponent a, shift d, and the idempotent vertex subset."""

    def __init__(self, algebra, u, a, d, e_vertices, trials=16, seed=0, len_bound=12):
        self.algebra = algebra
        self.u = u
        self.a = a
        self.d = d
        self.e_vertices = list(e_vertices)
        self.trials = trials
        self.seed = seed
        self.len_bound = len_bound


class CheckReport:
    def __init__(self):
        self.verdicts = {}
        self.details = {}

    def record(self, name, ok, detail=None):
        self.verdicts[name] = bool(ok)
        if detail is not None:
            self.details[name] = detail

    @property
    def passed(self):
        return all(self.verdicts.values())

    def as_dict(self):
        return {"verdicts": dict(self.verdicts), "details": dict(self.details)}


def h0_right_module(rc: RightComplex):
    """H^0 of a right complex as a RightModule, with chosen representatives."""
    alg = rc.base
    f = alg.field
    coords, reps, solver = h0_representatives(rc.diff_matrix, f)
    k = len(reps)
    pos = {c: i for i, c in enumerate(coords)}
    # express act(rep) = sum c_j rep_j + boundary
    action = []
    for kk in range(alg.dim):
        rows = []
        for rep in reps:
            img = {}
            for ci in sorted(rep):
                s_idx, b = coords[ci]
                for b2, cb in alg.mult(b, kk).items():
                    j = pos[(s_idx, b2)]
                    img[j] = f.add(img.get(j, f.zero()), f.mul(rep[ci], cb))
            sol = solver.solve({j: v for j, v in img.items() if v})
            if sol is None:
                raise ValueError("action does not preserve cycles")
            rows.append({i: v for i, v in sorted(sol.items()) if i < k})
        action.append(rows)
    return RightModule(alg, k, action), coords, reps


def top_vector(m: RightModule):
    """Dims of top(M) = M / M rad per vertex."""
    alg = m.algebra
    f = alg.field
    out = {}
    for v in alg.vertices:
        rad_rows = [row for r in alg.radical_indices() if alg.basis[r].source == v
                    for row in m.action[r]]
        out[v] = rank(m.action[alg.idempotent_index(v)], f) - rank(rad_rows, f)
    return out


def is_projective_module(m: RightModule):
    alg = m.algebra
    top = top_vector(m)
    cover_dim = 0
    for v, mult in top.items():
        cover_dim += mult * len([b for b in alg.basis if b.target == v])
    return cover_dim == m.dim, top


def check_strict_pair(spec: RootPairSpec, resolution=None) -> CheckReport:
    """Strict root-pair verification.

    (root)  some quasi-isomorphism (pA)^dual[d] -> U^(x)a exists;
    (add)   each eA (x) U^i (0 <= i < a) is a module concentrated in
            degree 0, projective, and the indecomposable summands over all
            i recombine to the regular module (top multiplicity vectors
            summing to all ones);
    (orth)  RHom(eA (x) U^i, eA) vanishes for 1 <= i <= a-1.
    """
    alg = spec.algebra
    report = CheckReport()
    if resolution is None:
        resolution = resolution_of_algebra(alg, spec.len_bound)
    dual = bimodule_dual(resolution)
    power = tensor_power(spec.u, spec.a)
    phi = find_quasi_iso(
        shift(dual, spec.d), power, 0, trials=spec.trials, seed=spec.seed
    )
    report.record(
        "root",
        phi is not None,
        {"found": phi is not None, "trials": spec.trials, "seed": spec.seed},
    )
    xs = [projective_sum(alg, spec.e_vertices)]
    for _ in range(spec.a - 1):
        xs.append(tensor_over_A(xs[-1], spec.u))
    ones = {v: 1 for v in alg.vertices}
    total = {v: 0 for v in alg.vertices}
    add_ok = True
    add_detail = []
    for i, xi in enumerate(xs):
        dims = xi.cohomology_dims()
        concentrated = set(dims) <= {0}
        h0, _, _ = h0_right_module(xi)
        proj, top = is_projective_module(h0)
        add_detail.append({"i": i, "dims": dims, "projective": proj, "top": top})
        if not (concentrated and proj):
            add_ok = False
        for v, mult in top.items():
            total[v] += mult
    if total != ones:
        add_ok = False
    report.record("add", add_ok, {"summands": add_detail, "total_top": total})
    orth_ok = True
    orth_detail = {}
    x0 = xs[0]
    for i in range(1, spec.a):
        hom = HomComplex(xs[i], x0)
        degs = _hom_degree_range(xs[i], x0)
        dims = {r: hom.cohomology_dim(r) for r in degs}
        dims = {r: dv for r, dv in dims.items() if dv}
        if dims:
            orth_ok = False
        orth_detail[i] = dims
    report.record("orth", orth_ok, orth_detail)
    return report


def _hom_degree_range(x: RightComplex, y: RightComplex):
    xd = x.degrees()
    yd = y.degrees()
    if not xd or not yd:
        return []
    lo = min(yd) - max(xd) - 1
    hi = max(yd) - min(xd) + 1
    return range(lo, hi + 1)


def euler_vector(rc: RightComplex, alg):
    out = {v: 0 for v in alg.vertices}
    for p, ss in rc.terms.items():
        sgn = 1 if p % 2 == 0 else -1
        for s in ss:
            out[s.vertex] += sgn
    return out


def k0_spanning_check(spec: RootPairSpec) -> bool:
    """Necessary condition: Euler classes of eA (x) U^i span Q^{vertices}."""
    alg = spec.algebra
    f = alg.field
    if not spec.e_vertices:
        return False
    verts = list(alg.vertices)
    rows = []
    for v in spec.e_vertices:
        xi = projective_sum(alg, [v])
        for _ in range(spec.a):
            ev = euler_vector(xi, alg)
            rows.append({j: f(ev[w]) for j, w in enumerate(verts) if ev[w]})
            xi = tensor_over_A(xi, spec.u)
    return rank(rows, f) == len(verts)
