"""Folded cluster categories at desk scale: windowed translation quivers,
combinatorial roots of the translation, orbit quotients with DOT export,
and orbit Hom dimensions through the tensor formula."""

import functools

from .quiver import Arrow, Quiver


class WindowTooSmall(Exception):
    pass


class NonFreeAction(Exception):
    def __init__(self, witness):
        super().__init__(f"fixed point at {witness}")
        self.witness = witness


class TransQuiverSlice:
    """Window [m0, m1] of the repetition quiver ZQ.

    Vertices are (m, v); arrows (m, u) -> (m, v) for each u -> v in Q and
    (m, v) -> (m+1, u); tau shifts m down by one.  The vertex and arrow
    lists are built on first use: the root search reads only the window
    and Q.
    """

    def __init__(self, quiver: Quiver, window):
        if not quiver.is_acyclic():
            raise ValueError("ZQ needs an acyclic quiver")
        self.quiver = quiver
        self.m0, self.m1 = window

    @functools.cached_property
    def vertices(self):
        return [(m, v) for m in range(self.m0, self.m1 + 1) for v in self.quiver.vertices]

    @functools.cached_property
    def arrows(self):
        out = []
        for m in range(self.m0, self.m1 + 1):
            for a in self.quiver.arrows:
                out.append(((m, a.source), (m, a.target)))
                if m + 1 <= self.m1:
                    out.append(((m, a.target), (m + 1, a.source)))
        return out

    def tau(self, vertex):
        m, v = vertex
        return (m - 1, v)

    def interior(self, margin):
        return [
            (m, v)
            for (m, v) in self.vertices
            if self.m0 + margin <= m <= self.m1 - margin
        ]


class QuiverAuto:
    """Automorphism of ZQ of the form (m, v) -> (m + shift[v], rho(v))."""

    def __init__(self, rho, shifts, name=""):
        self.rho = dict(rho)
        self.shifts = dict(shifts)
        self.name = name

    def apply(self, vertex):
        m, v = vertex
        return (m + self.shifts[v], self.rho[v])

    def compose(self, other, name=""):
        """self after other."""
        rho = {v: self.rho[other.rho[v]] for v in other.rho}
        shifts = {
            v: other.shifts[v] + self.shifts[other.rho[v]] for v in other.rho
        }
        return QuiverAuto(rho, shifts, name or f"{self.name}*{other.name}")

    def power(self, k):
        out = identity_auto(list(self.rho))
        for _ in range(k):
            out = self.compose(out)
        return out

    def equals_on(self, other, vertices):
        return all(self.apply(x) == other.apply(x) for x in vertices)

    def preserves_arrows(self, slice_: TransQuiverSlice):
        """Check the mesh structure is preserved on the window: every arrow
        whose image has both ends in the window maps to an arrow.

        An arrow u -> v of Q gives ZQ two families of arrows, (m, u) ->
        (m, v) and (m, v) -> (m+1, u).  F sends a member (m, x) -> (m+k, y)
        to (m + s_x, rho x) -> (m + k + s_y, rho y), an arrow of ZQ exactly
        when the level step k + s_y - s_x is 0 and rho x -> rho y is an
        arrow of Q, or the step is 1 and rho y -> rho x is one.  Neither
        depends on m, so each family is tested once, if some m of its range
        puts both ends of the image inside the window."""
        m0, m1 = slice_.m0, slice_.m1
        verts = set(slice_.quiver.vertices)
        q_arrows = {(a.source, a.target) for a in slice_.quiver.arrows}
        rho, sh = self.rho, self.shifts
        for a in slice_.quiver.arrows:
            for x, y, k in ((a.source, a.target, 0), (a.target, a.source, 1)):
                fx, fy, sx, sy = rho[x], rho[y], sh[x], sh[y]
                if fx not in verts or fy not in verts:
                    continue
                if max(m0, m0 - sx, m0 - k - sy) > min(m1 - k, m1 - sx, m1 - k - sy):
                    continue
                step = k + sy - sx
                if not (step == 0 and (fx, fy) in q_arrows
                        or step == 1 and (fy, fx) in q_arrows):
                    return False
        return True


def identity_auto(vertices):
    return QuiverAuto({v: v for v in vertices}, {v: 0 for v in vertices}, "id")


def tau_auto(vertices, power=1, name=None):
    """tau^power, which sends (m, v) to (m - power, v); tau itself is
    (m, v) -> (m - 1, v)."""
    return QuiverAuto(
        {v: v for v in vertices},
        {v: -power for v in vertices},
        name or f"tau^{power}",
    )


def build_zq(quiver: Quiver, window) -> TransQuiverSlice:
    return TransQuiverSlice(quiver, window)


def linear_quiver(n):
    return Quiver(
        list(range(1, n + 1)),
        [Arrow(f"a{i}", i, i + 1) for i in range(1, n)],
    )


def d_quiver(n):
    # vertices 1..n-2 on the tail, fork n-1, n
    verts = list(range(1, n + 1))
    arrows = [Arrow(f"a{i}", i, i + 1) for i in range(1, n - 2)]
    arrows.append(Arrow("f1", n - 2, n - 1))
    arrows.append(Arrow("f2", n - 2, n))
    return Quiver(verts, arrows)


def e_quiver(n):
    # bipartite-ish standard orientation: chain 1..n-1 plus branch vertex n
    verts = list(range(1, n + 1))
    arrows = [Arrow(f"a{i}", i, i + 1) for i in range(1, n - 1)]
    arrows.append(Arrow("b", 3, n))
    return Quiver(verts, arrows)


def type_a_flip_family(n, offset):
    """Automorphisms (m, i) -> (m + i + offset, n + 1 - i) of ZA_n."""
    verts = list(range(1, n + 1))
    rho = {i: n + 1 - i for i in verts}
    shifts = {i: i + offset for i in verts}
    return QuiverAuto(rho, shifts, f"flip[{offset}]")


def graph_automorphisms(kind, n):
    """Nontrivial underlying-graph automorphisms lifted to ZQ (shift 0)."""
    out = []
    verts = list(range(1, n + 1))
    if kind == "D":
        rho = {v: v for v in verts}
        rho[n - 1], rho[n] = n, n - 1
        out.append(QuiverAuto(rho, {v: 0 for v in verts}, "swap"))
        if n == 4:
            # triality on D4 permutes the three outer vertices 1, 3, 4
            tri = {1: 3, 2: 2, 3: 4, 4: 1}
            out.append(QuiverAuto(tri, {v: 0 for v in verts}, "triality"))
            out.append(
                QuiverAuto(
                    {1: 4, 2: 2, 3: 1, 4: 3}, {v: 0 for v in verts}, "triality2"
                )
            )
    if kind == "E" and n == 6:
        rho = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}
        out.append(QuiverAuto(rho, {v: 0 for v in verts}, "reflect"))
    return out


def check_combinatorial_root(F: QuiverAuto, a, slice_: TransQuiverSlice):
    """F^a = tau^{-1} on the testable interior of the window.

    The interior keeps the levels at least a * max|shift| inside the
    window, and WindowTooSmall says there are none.  F^a sends (m, v) to
    (m + S(v), rho^a v) with S(v) independent of m, and each level of the
    interior holds every vertex of Q, so the test is rho^a v = v and
    S(v) = 1 for every vertex v of Q."""
    margin = a * max(map(abs, F.shifts.values()), default=0)
    lo, hi = max(slice_.m0, slice_.m0 + margin), min(slice_.m1, slice_.m1 - margin)
    if lo > hi or not slice_.quiver.vertices:
        raise WindowTooSmall("window cannot absorb the composed shifts")
    rho, sh = F.rho, F.shifts
    for v in slice_.quiver.vertices:
        w, s = v, 0
        for _ in range(a):
            s += sh[w]
            w = rho[w]
        if w != v or s != 1:
            return False
    return True


def dynkin_quiver(kind, n):
    if kind == "A":
        return linear_quiver(n)
    if kind == "D":
        return d_quiver(n)
    if kind == "E":
        return e_quiver(n)
    raise ValueError(kind)


def classify_dynkin_roots(kind, n, a, window=12):
    """Search tau-powers composed with graph automorphisms (plus the type-A
    half-step flip family) for a combinatorial a-th root of tau."""
    quiver = dynkin_quiver(kind, n)
    slice_ = build_zq(quiver, (-window, window))
    verts = list(quiver.vertices)
    candidates = []
    autos = graph_automorphisms(kind, n)
    for m in range(-window // 2, window // 2 + 1):
        candidates.append(tau_auto(verts, power=-m, name=f"tau^{m}"))
        for g in autos:
            candidates.append(tau_auto(verts, power=-m).compose(g))
    if kind == "A":
        for off in range(-window, window):
            candidates.append(type_a_flip_family(n, off))
    for F in candidates:
        # the root test is a few integer compares per vertex, so it goes
        # first; every candidate must pass both tests
        try:
            if not check_combinatorial_root(F, a, slice_):
                continue
        except WindowTooSmall:
            continue
        if F.preserves_arrows(slice_):
            return True, F
    return False, None


class OrbitQuiver:
    def __init__(self, vertices, arrows, domain, markings=None):
        self.vertices = vertices  # orbit labels
        self.arrows = arrows
        self.domain = domain  # representative (m, v) per orbit
        self.markings = markings or {}

    def dot(self, name="orbit"):
        lines = [f"digraph {name} {{"]
        lines.append("  subgraph cluster_domain {")
        lines.append('    label="fundamental domain";')
        for label in sorted(self.domain, key=str):
            m, v = self.domain[label]
            attr = ""
            if self.markings.get(label):
                attr = ' shape=doublecircle'
            lines.append(f'    "[{m},{v}]"{f" [{attr.strip()}]" if attr else ""};')
        lines.append("  }")
        for (src, tgt) in sorted(self.arrows, key=str):
            ms, vs = self.domain[src]
            mt, vt = self.domain[tgt]
            lines.append(f'  "[{ms},{vs}]" -> "[{mt},{vt}]";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def orbit_quiver(slice_: TransQuiverSlice, F: QuiverAuto, markings=None) -> OrbitQuiver:
    """Quotient of the window by the F-action; F must act freely."""
    margin = max(abs(s) for s in F.shifts.values()) if F.shifts else 0
    interior = set(slice_.interior(margin))
    for x in interior:
        if F.apply(x) == x and not _is_identity(F):
            raise NonFreeAction(x)
    parent = {x: x for x in slice_.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry, key=str)] = min(rx, ry, key=str)

    if not _is_identity(F):
        for x in slice_.vertices:
            y = F.apply(x)
            if y in parent:
                union(x, y)
    orbits = {}
    for x in slice_.vertices:
        orbits.setdefault(find(x), []).append(x)
    # a fundamental domain: orbits whose representative is "complete", i.e.
    # the orbit meets the interior
    labels = {}
    domain = {}
    marks = {}
    for root, members in sorted(orbits.items(), key=str):
        if not any(m in interior for m in members):
            continue
        label = len(labels)
        labels[root] = label
        rep = min(members, key=lambda t: (t[0], str(t[1])))
        domain[label] = rep
        if markings:
            marks[label] = any(m in markings for m in members)
    arrows = set()
    for (src, tgt) in slice_.arrows:
        rs, rt = find(src), find(tgt)
        if rs in labels and rt in labels:
            arrows.add((labels[rs], labels[rt]))
    return OrbitQuiver(sorted(labels.values()), sorted(arrows), domain, marks)


def _is_identity(F: QuiverAuto):
    return all(F.rho[v] == v and F.shifts[v] == 0 for v in F.rho)


def orbit_count(slice_: TransQuiverSlice, F: QuiverAuto):
    return len(orbit_quiver(slice_, F).vertices)


class HomTable:
    def __init__(self, window):
        self.window = window
        self.entries = {}
        self.converged = {}

    def record(self, key, dim, converged):
        self.entries[key] = dim
        self.converged[key] = converged

    def csv(self):
        lines = ["x,y,dim,converged,window"]
        for (x, y), dim in sorted(self.entries.items(), key=str):
            lines.append(f"{x},{y},{dim},{self.converged[(x, y)]},{self.window}")
        return "\n".join(lines) + "\n"


def orbit_hom(alg, u, x, y, window):
    """dim Hom in the orbit category between right complexes x and y: sum
    over twists by tensor powers.

    Computes sum_{i=0..W} dim H^0 RHom(x, y (x) U^i) plus
    sum_{i=1..W} dim H^0 RHom(x (x) U^i, y); negative powers enter through
    the adjunction.  Returns (dim, converged) where converged reports that
    the last two window steps on each side contributed nothing; a negative
    window sums nothing and is never converged.
    """
    from .bimodcx import HomComplex, minimize, tensor_over_A

    total = 0
    tail = []
    y_tw = y
    for i in range(window + 1):
        d = HomComplex(x, y_tw).cohomology_dim(0)
        total += d
        if i >= window - 1:
            tail.append(d)
        y_tw = minimize(tensor_over_A(y_tw, u))
    x_tw = minimize(tensor_over_A(x, u))
    for i in range(1, window + 1):
        d = HomComplex(x_tw, y).cohomology_dim(0)
        total += d
        if i >= window - 1:
            tail.append(d)
        x_tw = minimize(tensor_over_A(x_tw, u))
    converged = bool(tail) and all(d == 0 for d in tail)
    return total, converged


def cluster_tilting_check(alg, u, e_vertices, d, window):
    """Hom_C(P, P[j]) = 0 for 1 <= j <= d-1 in the orbit category."""
    from .bimodcx import projective_sum, shift

    p = projective_sum(alg, e_vertices)
    ok = True
    detail = {}
    converged_all = True
    for j in range(1, d):
        dim, conv = orbit_hom(alg, u, p, shift(p, j), window)
        detail[j] = dim
        converged_all = converged_all and conv
        if dim:
            ok = False
    return ok, detail, converged_all


def serre_check(alg, u, d, samples, window, seed=0):
    """dim Hom_C(X, Y) = dim Hom_C(Y, X[d]) on seeded sample pairs."""
    from .bimodcx import projective_sum, shift
    from .exactlin import SplitMix64

    rng = SplitMix64(seed)
    verts = list(alg.vertices)
    ok = True
    converged = True
    detail = []
    for _ in range(samples):
        v = verts[rng.int_in(0, len(verts) - 1)]
        w = verts[rng.int_in(0, len(verts) - 1)]
        sx = rng.int_in(0, 1)
        x = shift(projective_sum(alg, [v]), sx)
        y = projective_sum(alg, [w])
        lhs, c1 = orbit_hom(alg, u, x, y, window)
        rhs, c2 = orbit_hom(alg, u, y, shift(x, d), window)
        detail.append({"x": (v, sx), "y": w, "lhs": lhs, "rhs": rhs})
        converged = converged and c1 and c2
        if lhs != rhs:
            ok = False
    return ok, converged, detail


def shift_functor_auto(kind, n):
    """The combinatorial suspension [1] on ZQ for Dynkin quivers."""
    verts = list(range(1, n + 1))
    if kind == "A":
        return QuiverAuto({i: n + 1 - i for i in verts}, {i: i for i in verts}, "[1]")
    if kind == "D" and n % 2 == 0:
        return tau_auto(verts, power=n - 1, name="[1]")
    raise ValueError("suspension implemented for type A and even D only")


def folded_a2n_auto(n, d):
    """The auto of ZA_{2n} presenting the half-fold of the d-shifted orbit
    category: the flip composed with [d] collapses to a pure translation."""
    if d % 2 == 0:
        raise ValueError("the square root requires odd d")
    shift = n + 1 + (2 * n + 1) * (d - 1) // 2
    return tau_auto(list(range(1, 2 * n + 1)), power=shift, name=f"fold[{n},{d}]")

