"""Brute-force oracles, independent of the library's algorithmic paths.

Everything here recomputes results by exhaustive enumeration so the main
implementation can be checked against frozen values derived once from these.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

import numpy as np

from formata.characters import ClassFunction, character_table, inner_products
from formata.cyclotomic import Cyclotomic, cyclotomic_poly, phi
from formata.perms import Perm
from formata.errors import DomainError, InternalInconsistencyError
from formata.gfq import _check_modulus, _hessenberg, charpoly_mod, nullspace_mod, poly_roots_mod, rref_mod
from formata.groups import (
    PermGroup,
    closure_elements,
    complement,
    is_normal_in,
    is_prime,
    minimal_normal_subgroups,
    normal_subgroups,
    prime_divisors,
    quotient,
    subgroup_product,
)
from formata.formations import projector
from formata.headchars import _subgroup_json, fprime_ascending


def brute_elements(degree, gens):
    """Exhaustive closure under products, no stabilizer chain involved."""
    ident = Perm.identity(degree)
    found = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(found)


def brute_classes(G):
    """Conjugacy classes by conjugating with every element."""
    elts = list(G.elements())
    remaining = set(elts)
    classes = []
    for x in elts:
        if x not in remaining:
            continue
        orbit = {g.inverse() * x * g for g in elts}
        remaining -= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes


def brute_derived(G):
    """Subgroup generated by all commutators of all element pairs."""
    elts = G.elements()
    comms = {a.commutator(b) for a in elts for b in elts}
    return set(brute_elements(G.degree, sorted(comms)))


def brute_center(G):
    elts = G.elements()
    return sorted(x for x in elts if all(x * g == g * x for g in elts))


def oracle_normal_closure(G, seed):
    """Smallest subgroup of G containing seed and normal in G, by Perm conjugation and closures."""
    gens = [g for g in seed if not g.is_identity()]
    span = closure_elements(G.degree, gens)
    while True:
        new = []
        for x in gens:
            for g in G.generators:
                c = x.conj(g)
                if c not in span:
                    new.append(c)
        if not new:
            break
        gens.extend(new)
        span = closure_elements(G.degree, gens)
    return PermGroup.from_elements(G, span)


def oracle_derived_series(G):
    """G, G', G'', ... to the first perfect term, each the normal closure of its generators' commutators."""
    series = [G]
    while True:
        gens = series[-1].generators
        D = oracle_normal_closure(series[-1], [a.commutator(b) for a in gens for b in gens])
        if D.order() == series[-1].order():
            return series
        series.append(D)


def brute_normal_subgroups(G):
    """Every subgroup that is a union of conjugacy classes, by subset sweep."""
    classes = brute_classes(G)
    k = len(classes)
    full = set(G.elements())
    found = set()
    for r in range(1, k + 1):
        for combo in combinations(range(k), r):
            union = set()
            for i in combo:
                union |= set(classes[i])
            if Perm.identity(G.degree) not in union:
                continue
            # subgroup test by closure staying inside the union
            closed = all(a * b in union for a in union for b in union)
            if closed:
                found.add(frozenset(union))
    found.add(frozenset(full))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(p.images for p in s))))


def oracle_normal_subgroups(G):
    """All normal subgroups, as closures of unions of conjugacy classes.

    The Perm-product closure the class-mask lattice replaced: every class
    element is a generator, about |N|^2 products per candidate.
    """
    classes = G.conjugacy_classes()
    memo = {}

    def close(class_ids):
        key = frozenset(class_ids)
        if key in memo:
            return memo[key]
        elts = []
        for i in key:
            elts.extend(classes[i].elements)
        span = closure_elements(G.degree, elts)
        # record the union of full classes actually inside the closure
        covered = frozenset(
            i for i, c in enumerate(classes) if c.representative in span
        )
        N = PermGroup.from_elements(PermGroup(G.degree), span)  # a root of its own
        memo[key] = (covered, N)
        memo[covered] = (covered, N)
        return covered, N

    found = {}
    trivial_key, trivial = close([0])
    found[trivial_key] = trivial
    queue = [trivial_key]
    while queue:
        base_key = queue.pop(0)
        for i in range(len(classes)):
            if i in base_key:
                continue
            new_key, N = close(base_key | {i})
            if new_key not in found:
                found[new_key] = N
                queue.append(new_key)
    return tuple(sorted(found.values(), key=lambda N: N.sort_key()))


def oracle_class_matrix(G, i):
    """Matrix A with A[j][t] = #{x in C_i : x^-1 * rep_t in C_j}, by Perm products.

    The k*|G| Python products that the one base-image gather of
    groups.class_products replaced.
    """
    classes = G.conjugacy_classes()
    index = G.class_index()
    k = len(classes)
    A = np.zeros((k, k), dtype=np.int64)
    inv_elems = [x.inverse() for x in classes[i].elements]
    for t in range(k):
        z = classes[t].rep
        for xi in inv_elems:
            A[index[xi * z], t] += 1
    return A


def oracle_minimal_normal_subgroups(normals):
    """Minimal members of a normal-subgroup list, by order and subgroup tests."""
    normals = [N for N in normals if N.order() > 1]
    out = []
    for N in normals:
        if not any(
            M.order() < N.order() and M.is_subgroup_of(N) and M.order() > 1
            for M in normals
        ):
            out.append(N)
    return out


def brute_all_subgroups(G):
    """Every subgroup, grown one element at a time from the trivial group."""
    ident = frozenset([Perm.identity(G.degree)])
    found = {ident}
    queue = [ident]
    while queue:
        S = queue.pop()
        for x in G.elements():
            if x in S:
                continue
            T = frozenset(brute_elements(G.degree, sorted(S | {x})))
            if T not in found:
                found.add(T)
                queue.append(T)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(p.images for p in s))))


def brute_is_nilpotent(G):
    """Nilpotent iff the ascending central series reaches G."""
    n = G.order()
    Z = set(brute_center(G))
    prev = 1
    while len(Z) != prev:
        prev = len(Z)
        if prev == n:
            return True
        # preimage of the center of G/Z: x with [x, g] in Z for all g
        elts = G.elements()
        Z = {x for x in elts if all(x.commutator(g) in Z for g in elts)}
        Z = set(brute_elements(G.degree, sorted(Z)))
    return len(Z) == n


def oracle_character_table(G):
    """Character table computed independently: exact arithmetic in Q(zeta_e)
    via sympy DomainMatrix, structure constants by full pair counting, and
    eigenvalues via polynomial factorization over the field.  Returns a list
    of rows, one per irreducible, each a list of ANP field elements in class
    order, together with the field used."""
    from sympy import QQ, Poly, Rational, exp, I, pi, symbols
    from sympy.polys.matrices import DomainMatrix
    from math import isqrt

    classes = G.conjugacy_classes()
    k = len(classes)
    e = G.exponent()
    if e == 1:
        return [[QQ.one]], QQ
    fld = QQ.algebraic_field(exp(2 * pi * I / e))
    index_of = {}
    for j, cls in enumerate(classes):
        for x in cls.elements:
            index_of[x] = j

    def structure_matrix(i):
        # counts over all pairs, then divides by the target class size
        raw = [[0] * k for _ in range(k)]
        for x in classes[i].elements:
            for y_idx, cls_j in enumerate(classes):
                for y in cls_j.elements:
                    raw[y_idx][index_of[x * y]] += 1
        rows = []
        for j in range(k):
            row = []
            for t in range(k):
                num, den = raw[j][t], classes[t].size
                assert num % den == 0
                row.append(fld.convert(num // den))
            rows.append(row)
        return DomainMatrix(rows, (k, k), fld)

    x = symbols("x")
    spaces = [DomainMatrix.eye(k, fld).to_dense()]
    for i in range(1, k):
        if all(B.shape[0] == 1 for B in spaces):
            break
        M = structure_matrix(i).to_dense()
        nxt = []
        for B in spaces:
            d = B.shape[0]
            if d == 1:
                nxt.append(B)
                continue
            Br, piv = B.rref()
            BM = (M.matmul(Br.transpose())).transpose()  # rows = images of basis
            C_rows = [[BM[r, p].element for p in piv] for r in range(d)]
            # row r of BM in basis coords reads off pivot columns
            C = DomainMatrix([[fld.convert(v) for v in row] for row in C_rows], (d, d), fld)
            Ct = C.transpose()
            poly = Poly(Ct.charpoly(), x, domain=fld)
            for fac, mult in poly.factor_list()[1]:
                cs = fac.rep.to_list()  # domain elements, descending
                assert len(cs) == 2, "nonlinear factor; eigenvalue not in field"
                lam_el = -cs[1] / cs[0]
                shift = Ct - DomainMatrix.eye(d, fld).to_dense() * lam_el
                ns = shift.to_dense().nullspace().to_dense()
                if ns.shape[0]:
                    nxt.append(ns.matmul(Br))
        spaces = nxt
    assert all(B.shape[0] == 1 for B in spaces) and len(spaces) == k

    inv_class = [index_of[cls.rep.inverse()] for cls in classes]
    rows = []
    for B in spaces:
        w = [B[0, j].element for j in range(k)]
        w0inv = fld.one / w[0]
        w = [v * w0inv for v in w]
        s = fld.zero
        for j in range(k):
            s += w[j] * w[inv_class[j]] * fld.convert(Rational(1, classes[j].size))
        d2 = fld.to_sympy(fld.convert(G.order()) / s)
        d2r = Rational(d2)
        assert d2r.q == 1 and isqrt(int(d2r)) ** 2 == int(d2r)
        deg = isqrt(int(d2r))
        row = [w[j] * fld.convert(Rational(deg, classes[j].size)) for j in range(k)]
        rows.append(row)
    return rows, fld


# -- Q(zeta_n) on Fraction coefficient lists ------------------------------------
#
# Reference routes that share nothing with the integer matrices of
# formata.cyclotomic: polynomial division by Phi_n, a loop product, a Galois
# scatter, and a descent tested by the Galois fixers of each subfield with its
# own exact linear solve.  A value is a pair (n, coeffs), len(coeffs) == phi(n).


def _reduce_mod_phi(coeffs, n):
    """Remainder of a Fraction coefficient list mod Phi_n, padded to phi(n)."""
    g = cyclotomic_poly(n)
    deg = len(g) - 1
    r = [Fraction(c) for c in coeffs]
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            for j in range(deg + 1):
                r[i - deg + j] -= c * g[j]
    r = r[:deg]
    r += [Fraction(0)] * (deg - len(r))
    return tuple(r)


def _embed_coeffs(x, m):
    """Coefficient list of x viewed in Q(zeta_m); requires n | m."""
    n, coeffs = x
    step = m // n
    out = [Fraction(0)] * m
    for i, c in enumerate(coeffs):
        if c:
            out[i * step] += c
    return out


def _common(x, y):
    m = lcm(x[0], y[0])
    return _embed_coeffs(x, m), _embed_coeffs(y, m), m


def oracle_pair(v):
    """A Cyclotomic as an oracle value."""
    return (v.n, v.coeffs)


def oracle_zeta(n, k=1):
    return (n, _reduce_mod_phi([0] * (k % n) + [1], n))


def oracle_scale(x, c):
    return (x[0], tuple(a * c for a in x[1]))


def oracle_add(x, y):
    a, b, m = _common(x, y)
    return (m, _reduce_mod_phi([u + v for u, v in zip(a, b)], m))


def oracle_mul(x, y):
    a, b, m = _common(x, y)
    prod = [Fraction(0)] * (2 * m)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    prod[i + j] += u * v
    # fold exponents >= m back using zeta_m^m = 1 before Phi reduction
    for i in range(m, 2 * m):
        if prod[i]:
            prod[i - m] += prod[i]
    return (m, _reduce_mod_phi(prod[:m], m))


def oracle_galois(x, k):
    """zeta_n -> zeta_n^k, scattered one coefficient at a time."""
    n, coeffs = x
    out = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        if c:
            out[(i * k) % n] += c
    return (n, _reduce_mod_phi(out, n))


def oracle_eq(x, y):
    a, b, m = _common(x, y)
    return _reduce_mod_phi(a, m) == _reduce_mod_phi(b, m)


def _solve_rational(rows, ncols):
    """Solve the overdetermined augmented system exactly; None if inconsistent."""
    rows = [list(r) for r in rows]
    m = len(rows)
    piv = []
    r0 = 0
    for c in range(ncols):
        pr = next((r for r in range(r0, m) if rows[r][c] != 0), None)
        if pr is None:
            continue
        rows[r0], rows[pr] = rows[pr], rows[r0]
        inv = rows[r0][c]
        rows[r0] = [v / inv for v in rows[r0]]
        for r in range(m):
            if r != r0 and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[r0])]
        piv.append(c)
        r0 += 1
    for r in range(r0, m):
        if rows[r][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(piv):
        sol[c] = rows[r][ncols]
    return sol


def _try_descend(x, d):
    """Rewrite x over Q(zeta_d) if it lies in that subfield, else None."""
    n, coeffs = x
    fixers = [k for k in range(1, n) if k % d == 1 % d and gcd(k, n) == 1]
    for k in fixers:
        if oracle_galois(x, k)[1] != coeffs:
            return None
    # solve for coordinates in the embedded power basis of Q(zeta_d)
    deg = phi(d)
    basis = [oracle_zeta(n, (n // d) * j)[1] for j in range(deg)]
    rows = [[basis[j][i] for j in range(deg)] + [coeffs[i]] for i in range(len(coeffs))]
    sol = _solve_rational(rows, deg)
    if sol is None:
        raise ArithmeticError("subfield descent failed despite invariance")
    return (d, tuple(sol))


@lru_cache(maxsize=None)
def oracle_reduced(x):
    """x over its minimal conductor: the least d | n whose Galois fixers fix x."""
    n = x[0]
    for d in range(1, n):
        if n % d == 0:
            down = _try_descend(x, d)
            if down is not None:
                return down
    return x


def oracle_sort_key(v):
    """Cyclotomic.sort_key of a Cyclotomic, by the fixer descent."""
    n, coeffs = oracle_reduced(oracle_pair(v))
    return (n, tuple((c.numerator, c.denominator) for c in coeffs))


def oracle_minimal(v):
    """The Cyclotomic equal to v written over its minimal conductor, by the fixer descent."""
    return Cyclotomic(*oracle_reduced(oracle_pair(v)))


def oracle_inner(chi, psi):
    """(1/|G|) sum |C| chi(g) psi(g)-bar, one Fraction-list operation at a time."""
    classes = chi.group.conjugacy_classes()
    acc = (1, (Fraction(0),))
    for j, cls in enumerate(classes):
        term = oracle_mul(oracle_pair(chi.values[j]), oracle_galois(oracle_pair(psi.values[j]), -1))
        acc = oracle_add(acc, oracle_scale(term, cls.size))
    return Cyclotomic(*oracle_scale(acc, Fraction(1, chi.group.order())))


def oracle_restrict(chi, sub):
    """Restriction with the fusion map rebuilt from class_of on every class representative."""
    idx = [chi.group.class_of(c.rep) for c in sub.conjugacy_classes()]
    return ClassFunction._from_coeffs(sub, chi.e, chi.coeffs[idx], chi.den)


def oracle_conjugate_by(chi, t):
    """x -> chi(t x t^-1), with the class permutation of t rebuilt for this one function."""
    ti = t.inverse()
    G = chi.group
    idx = [G.class_of(cls.rep.conj(ti)) for cls in G.conjugacy_classes()]
    return ClassFunction._from_coeffs(G, chi.e, chi.coeffs[idx], chi.den)


def oracle_is_irreducible(chi):
    """<chi, chi> = 1, by one inner product."""
    v = chi.inner(chi)
    return v.is_rational() and v.as_fraction() == 1


def oracle_is_invariant_under(chi, H):
    """Each generator of H fixes chi: one conjugate_by and one == per generator."""
    return all(chi.conjugate_by(t) == chi for t in H.generators)


def oracle_extensions_of(chi, big):
    """The rows of big's table whose restriction to chi's group equals chi, one restrict and one == per row."""
    return [psi for psi in character_table(big).irr if psi.restrict(chi.group) == chi]


def oracle_first_extension(chi, big):
    """The first row of big's table that restricts to chi, or None, stopping at the first."""
    return next((psi for psi in character_table(big).irr if psi.restrict(chi.group) == chi), None)


def oracle_charpoly(A, q):
    """Characteristic polynomial mod q through the Hessenberg form, one minor's term at a time."""
    A = np.array(A, dtype=np.int64) % q
    n = A.shape[0]
    _check_modulus(q, n)
    if n == 0:
        return np.array([1], dtype=np.int64)
    H = _hessenberg(A, q)
    # p_m(x) over leading principal minors of the Hessenberg form
    polys = [np.array([1], dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        p = np.zeros(m + 1, dtype=np.int64)
        p[1:] += prev
        p[:-1] -= (H[m - 1, m - 1] * prev) % q
        prod = 1
        for i in range(m - 2, -1, -1):
            prod = (prod * H[i + 1, i]) % q
            coef = (H[i, m - 1] * prod) % q
            if coef:
                p[: i + 1] -= (coef * polys[i]) % q
        polys.append(p % q)
    return polys[n]


def oracle_split_spaces(G, q):
    """Dixon's split with an eigenspace search on every action, the scalar ones included."""
    classes = G.conjugacy_classes()
    k = len(classes)
    spaces = [(np.eye(k, dtype=np.int64), np.arange(k))]
    for i in range(1, k):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        A = oracle_class_matrix(G, i)
        nxt = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                nxt.append((B, piv))
                continue
            C = ((A @ B.T) % q)[piv, :]
            roots = poly_roots_mod(charpoly_mod(C, q), q)
            total = 0
            for lam in roots:
                N = nullspace_mod((C - lam * np.eye(d, dtype=np.int64)) % q, q)
                if N.shape[0] == 0:
                    continue
                W = (N @ B) % q
                R, p2 = rref_mod(W, q)
                nxt.append((R[: len(p2)], p2))
                total += len(p2)
            if total != d:
                raise InternalInconsistencyError("eigenspace dimensions do not add up")
        spaces = nxt
    if any(B.shape[0] != 1 for B, _ in spaces):
        raise InternalInconsistencyError("class matrices failed to split the space")
    return [B[0] for B, _ in spaces]


def oracle_lift(G, c_mod, d, q, z, e, power_cache):
    """Character values from mod-q values, summing m * zeta_n^s one root at a time."""
    vals = []
    for j, cls in enumerate(G.conjugacy_classes()):
        n = cls.rep.order()
        if n == 1:
            vals.append(Cyclotomic.rational(d))
            continue
        zn = pow(z, e // n, q)
        zn_inv = pow(zn, q - 2, q)
        n_inv = pow(n, q - 2, q)
        powers = power_cache[j]
        val = (1, (Fraction(0),))
        for s in range(n):
            m = 0
            for t in range(n):
                m = (m + c_mod[powers[t]] * pow(zn_inv, s * t, q)) % q
            m = m * n_inv % q
            assert m <= d, "multiplicity lift out of range"
            if m:
                val = oracle_add(val, oracle_scale(oracle_zeta(n, s), m))
        vals.append(Cyclotomic(*val))
    return vals


def oracle_row_key(chi):
    """The table's row key through the fixer descent: degree, then each value's minimal form."""
    return (oracle_sort_key(chi.degree()), tuple(oracle_sort_key(v) for v in chi.values))


# -- the subgroup algebra, recomputed on element sets with no memo ------------


def oracle_sqrt_mod(a, q):
    """Tonelli-Shanks square root mod an odd prime; None if non-residue."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, t = 0, q - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    z = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
    c = pow(z, t, q)
    r = pow(a, (t + 1) // 2, q)
    u = pow(a, t, q)
    m = s
    while u != 1:
        d, i = u, 0
        while d != 1:
            d = d * d % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        r = r * b % q
        c = b * b % q
        u = u * c % q
        m = i
    return r


def _p_power_order(x, p):
    o = x.order()
    while o % p == 0:
        o //= p
    return o == 1


def oracle_product(A, B):
    """Element set of the subgroup generated by A and B."""
    return frozenset(brute_elements(A.degree, list(A.generators) + list(B.generators)))


def oracle_normalizer(G, U):
    """Elements of G conjugating every element of U into U."""
    uset = U.element_set()
    return frozenset(g for g in G.elements() if all(u.conj(g) in uset for u in uset))


def oracle_sylow(G, p):
    """The normalizer ascent of sylow(), on plain element sets.

    Start from the trivial subgroup; while P is short of p^a, adjoin the least
    element of p-power order of N_G(P) outside P and close.
    """
    n = G.order()
    target = 1
    while n % (target * p) == 0:
        target *= p
    P = frozenset([G.identity()])
    while len(P) < target:
        norm = sorted(
            g for g in G.elements() if all(u.conj(g) in P for u in P)
        )
        x = next(x for x in norm if x not in P and _p_power_order(x, p))
        P = frozenset(brute_elements(G.degree, sorted(P | {x})))
    return P


def oracle_is_nilpotent(G):
    """The Sylow route is_nilpotent replaced: each Sylow subgroup is normal."""
    for p in prime_divisors(G.order()):
        P = oracle_sylow(G, p)
        if any(x.conj(g) not in P for x in P for g in G.generators):
            return False
    return True


@lru_cache(maxsize=None)
def _oracle_cosets(G, N):
    """Right cosets of N by least element, in increasing order, and each element's coset number."""
    nset = N.element_set()
    cosets = sorted({min(n * g for n in nset) for g in G.elements()})
    number = {rep: i for i, rep in enumerate(cosets)}
    return cosets, {n * rep: number[rep] for rep in cosets for n in nset}


def oracle_apply(G, N, x):
    """The image of x in G/N as the product-built Perm: coset i goes to the coset of rep_i * x.

    Cosets are numbered by their least element, in increasing order, as
    groups._coset_action numbers them.
    """
    cosets, coset_of = _oracle_cosets(G, N)
    return Perm(tuple(coset_of[rep * x] for rep in cosets))


def oracle_quotient_generators(G, N):
    """Images of G's generators acting on the right cosets of N."""
    return [oracle_apply(G, N, g).images for g in G.generators]


def oracle_image_of_subgroup(G, N, U):
    """Element set of the image of U <= G in G/N: the closure of its applied generators."""
    cosets = _oracle_cosets(G, N)[0]
    return frozenset(brute_elements(len(cosets), [oracle_apply(G, N, u) for u in U.generators]))


# -- formation membership on quotient groups ----------------------------------


def oracle_chief_series(G, through=()):
    """The walk chief_series replaced: sift each candidate, take the least by sort_key."""
    normals = normal_subgroups(G)
    for A in through:
        if not is_normal_in(A, G):
            raise DomainError("chief series anchor is not normal")
    targets = sorted({A.sort_key(): A for A in through}.items())
    targets = [A for _, A in targets] + [G]
    prev = None
    for T in targets:
        if prev is not None and not prev.is_subgroup_of(T):
            raise DomainError("chief series anchors do not form a chain")
        prev = T
    series = [PermGroup.from_elements(G, [G.identity()])]
    for T in targets:
        while series[-1].order() != T.order():
            cur = series[-1]
            candidates = [
                N
                for N in normals
                if N.order() > cur.order() and cur.is_subgroup_of(N) and N.is_subgroup_of(T)
            ]
            series.append(min(candidates, key=lambda N: N.sort_key()))
    return series


def oracle_fitting_subgroup(G):
    """The largest nilpotent normal subgroup, each tested by its Sylow subgroups."""
    return max((N for N in normal_subgroups(G) if oracle_is_nilpotent(N)), key=lambda N: N.order())


def oracle_nilpotent_length(G):
    """Fitting series by quotient groups; None when it stalls."""
    length = 0
    while G.order() > 1:
        F = oracle_fitting_subgroup(G)
        if F.order() == 1:
            return None
        G = quotient(G, F)[0]
        length += 1
    return length


def oracle_is_member(formation, G):
    """Membership of G itself, by the group-level tests the class-mask route replaced."""
    n = G.order()
    if n == 1:
        return True
    kind, params = formation.kind, formation.params
    if kind == "nilpotent":
        return oracle_is_nilpotent(G)
    if kind == "supersolvable":
        if not G.is_solvable():
            return False
        series = oracle_chief_series(G)
        return all(is_prime(b.order() // a.order()) for a, b in zip(series, series[1:]))
    if kind in ("p_groups", "pi_groups"):
        return set(prime_divisors(n)) <= set(params)
    if kind == "p_nilpotent":
        while n % params[0] == 0:
            n //= params[0]
        return any(N.order() == n for N in normal_subgroups(G))
    length = oracle_nilpotent_length(G)
    bound = 2 if kind == "metanilpotent" else params[0]
    return length is not None and length <= bound


def oracle_residual(G, formation):
    """Intersection of the normal N whose quotient group G/N is a member."""
    out = frozenset(G.elements())
    for N in normal_subgroups(G):
        if oracle_is_member(formation, quotient(G, N)[0]):
            out &= N.element_set()
    return out


def oracle_commutator(A, B):
    """Element set of [A, B], generated by [a, b] for every a in A and b in B."""
    comms = {a.commutator(b) for a in A.elements() for b in B.elements()}
    return frozenset(brute_elements(A.degree, sorted(comms)))


def oracle_gallagher_family(gamma, N):
    """Twists of gamma by the linear characters trivial on N, tested value by value."""
    out = []
    for lam in character_table(gamma.group).linear_characters():
        if any(lam(x) != 1 for x in N.generators):
            continue
        prod = lam * gamma
        if prod not in out:
            out.append(prod)
    return out


def oracle_decomposition(G, S):
    """<chi restricted to S, psi> for chi in Irr(G) and psi in Irr(S), one restrict and one inner per pair."""
    rows = character_table(S).irr
    return [[chi.restrict(S).inner(psi).as_fraction() for psi in rows] for chi in character_table(G).irr]


def _oracle_one_invariant(rows, hits, direction):
    found = [psi for psi, hit in zip(rows, hits) if hit]
    if len(found) != 1:
        raise InternalInconsistencyError(
            "expected one H-invariant constituent %s, found %d" % (direction, len(found))
        )
    return found[0]


def oracle_unique_invariant_below(theta, L, H):
    """The H-invariant constituent of theta restricted to L: one inner_products against the invariant rows of L."""
    rows = [psi for psi in character_table(L).irr if oracle_is_invariant_under(psi, H)]
    return _oracle_one_invariant(rows, inner_products([theta.restrict(L)], rows)[1].any(axis=2)[0], "below")


def oracle_unique_invariant_above(phi, K, H):
    """The H-invariant row of K's table over phi: one inner_products of the invariant rows restricted to phi's group."""
    rows = [theta for theta in character_table(K).irr if oracle_is_invariant_under(theta, H)]
    hits = inner_products([theta.restrict(phi.group) for theta in rows], [phi])[1].any(axis=2)[:, 0]
    return _oracle_one_invariant(rows, hits, "above")


def oracle_theorem_a_sweeps(G, F, N):
    """The constituent sweeps of Theorem A, one inner_products each per call.

    For each head character of G, in ascent order: the rows of the
    H-invariant members of Irr(N) under it, and the rows of the heads of NH
    it lies over, H the projector.
    """
    H = projector(G, F)
    NH = subgroup_product(N, H)
    heads = fprime_ascending(G, F)
    table_n = character_table(N)
    inv_rows = [i for i, psi in enumerate(table_n.irr) if oracle_is_invariant_under(psi, H)]
    meets = inner_products([chi.restrict(N) for chi in heads], [table_n.irr[i] for i in inv_rows])[1]
    heads_nh = fprime_ascending(NH, F)
    nh_rows = [character_table(NH).irr.index(gamma) for gamma in heads_nh]
    over = inner_products([chi.restrict(NH) for chi in heads], heads_nh)[1]
    invs = [[i for i, m in zip(inv_rows, row) if m] for row in meets.any(axis=2)]
    under = [[r for r, m in zip(nh_rows, row) if m] for row in over.any(axis=2)]
    return invs, under


def oracle_kernel_bound(G, chars, X, Y):
    """The meet of the kernels of chars, set against the normal N of G with N meet X <= Y.

    Returns the meet, the qualifying N in lattice order, and the witnesses of
    Theorems B and C: the meet equals the largest qualifying N, which
    contains every other one.
    """
    kernels = [chi.kernel().element_set() for chi in chars]
    meet = PermGroup.from_elements(G, frozenset.intersection(*kernels))
    xset, yset = X.element_set(), Y.element_set()
    qualifying = [N for N in normal_subgroups(G) if N.element_set() & xset <= yset]
    largest = max(qualifying, key=lambda N: N.order())
    return meet, qualifying, {
        "kernel_intersection": _subgroup_json(meet),
        "kernel_intersection_order": meet.order(),
        "largest_normal": _subgroup_json(largest),
        "largest_normal_order": largest.order(),
        "equal": meet is largest,
        "qualifying_closed_under_join": all(N.is_subgroup_of(largest) for N in qualifying),
    }


# -- the projector recursion on roots of its own --------------------------------


def oracle_preimage(gmap, V):
    """The preimage of V as a new root, generated by the kernel and lifts of V's generators."""
    kernel = gmap.kernel()
    U = PermGroup(gmap.source.degree, list(kernel.generators) + [gmap.lift(v) for v in V.generators])
    if U.order() != kernel.order() * V.order():
        raise InternalInconsistencyError("preimage order mismatch")
    return U


def oracle_projector(G, formation):
    """The projector recursion as it ran before preimages were interned under G's root.

    Each recursion step's preimage is a root of its own, with its own chain,
    classes and lattice, so nothing is shared with G's memo.
    """
    if formation.is_member(G):
        return G
    A = minimal_normal_subgroups(G)[0]
    Q, gmap = quotient(G, A)
    U = oracle_preimage(gmap, oracle_projector(Q, formation))
    if U.order() < G.order():
        return oracle_projector(U, formation)
    C = complement(G, A)
    if C is None:
        raise InternalInconsistencyError("missing complement to an abelian residual")
    return C


def oracle_least_conjugate(G, U):
    """Element set of the conjugate of U with the least sorted element tuple, over every g in G."""
    return frozenset(min(sorted(u.conj(g) for u in U.elements()) for g in G.elements()))


# -- generators read off an element set ------------------------------------------


def oracle_greedy_generators(degree, elements):
    """Smallest-first generators of a sorted element list, each span grown by its own BFS.

    The span is grown in place from the previous one: every element already
    in it and the new generator are multiplied by all generators so far.
    """
    target = len(elements)
    gens = []
    span = {Perm.identity(degree)}
    for x in elements:
        if len(span) == target:
            break
        if x in span:
            continue
        gens.append(x)
        queue = list(span)
        span.add(x)
        queue.append(x)
        while queue:
            y = queue.pop()
            for g in gens:
                z = y * g
                if z not in span:
                    span.add(z)
                    queue.append(z)
    if len(span) != target or not span.issuperset(elements):
        raise InternalInconsistencyError("element set is not closed under products")
    return gens
