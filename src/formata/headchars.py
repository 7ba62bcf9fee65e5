"""Canonical series, head characters, strong pair series, and theorem reports."""

from .characters import ClassFunction, _key, character_table, deflate, inner_products
from .errors import (
    DomainError,
    InternalInconsistencyError,
    NoStrongSeriesError,
    UnsupportedGroupError,
)
from .formations import Formation, navarro_condition, projector, residual
from .groups import (
    _class_closures,
    _closure_mask,
    _full_mask,
    h_composition_series,
    is_normal_in,
    is_prime,
    mask_subgroup,
    normalizer,
    quotient,
    subgroup_product,
    sylow,
)


def _subgroup_json(U):
    return U.generator_strings()


def _hypothesis(G, F):
    """Flag used by the extension transfer theorem and Theorem A part (c)."""
    if F in (Formation("nilpotent"), Formation("nilpotent_length", (1,))):
        return {"met": True, "reason": "formation is nilpotent"}
    if G.order() % 2 == 1:
        return {"met": True, "reason": "group order %d is odd" % G.order()}
    return {
        "met": False,
        "reason": "hypothesis violated: order %d is even and formation %s is not nilpotent"
        % (G.order(), F),
    }


class CanonicalSeries:
    """Chain K_0 >= L_0 >= K_1 >= ... with K_{i+1} the residual of L_i*H."""

    __slots__ = ("group", "formation", "projector", "pairs", "m")

    def __init__(self, group, formation, proj, pairs):
        self.group = group
        self.formation = formation
        self.projector = proj
        self.pairs = tuple(pairs)
        self.m = len(self.pairs)

    def level(self, i):
        """Subgroup K_i*H; equals the whole group at i = 0 and H at i = m."""
        if i == self.m:
            return self.projector
        return subgroup_product(self.pairs[i][0], self.projector)

    def anchors(self):
        """The proper terms K_i, L_i, for refining H-composition series."""
        out = []
        for K, L in self.pairs:
            out.append(K)
            out.append(L)
        return [A for A in out if A.order() > 1]

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "formation": str(self.formation),
            "projector": _subgroup_json(self.projector),
            "m": self.m,
            "pairs": [
                {
                    "K": _subgroup_json(K),
                    "K_order": K.order(),
                    "L": _subgroup_json(L),
                    "L_order": L.order(),
                }
                for K, L in self.pairs
            ],
        }


def canonical_series(G, F):
    """The canonical chain of residuals and derived subgroups below G."""
    return G.memo(("canonical", G, F), lambda: _canonical_series(G, F))


def _canonical_series(G, F):
    if not F.contains_nilpotent:
        raise UnsupportedGroupError(
            "canonical series needs a formation containing all nilpotent groups"
        )
    if not G.is_solvable():
        raise UnsupportedGroupError("canonical series needs a solvable group")
    H = projector(G, F)
    pairs = []
    K = residual(G, F)
    while K.order() > 1:
        L = K.derived_subgroup()
        pairs.append((K, L))
        K = residual(subgroup_product(L, H), F)
    cs = CanonicalSeries(G, F, H, pairs)
    _verify_canonical(cs)
    return cs


def _verify_canonical(cs):
    G, H = cs.group, cs.projector
    if cs.formation.is_member(G) and cs.m != 0:
        raise InternalInconsistencyError("formation member with a nonempty series")
    for i, (K, L) in enumerate(cs.pairs):
        KH = cs.level(i)
        if i == 0:
            if KH.order() != G.order():
                raise InternalInconsistencyError("projector does not supplement the residual")
        else:
            prevL = cs.pairs[i - 1][1]
            if not K.is_subgroup_of(prevL):
                raise InternalInconsistencyError(
                    "canonical series: K_%d is not inside L_%d" % (i, i - 1)
                )
            if KH is not subgroup_product(prevL, H):
                raise InternalInconsistencyError(
                    "canonical series: K_%dH differs from L_%dH" % (i, i - 1)
                )
        if not navarro_condition(KH, K, L, H):
            raise InternalInconsistencyError(
                "canonical series: layer %d fails the Navarro condition" % i
            )
    if cs.m and not cs.pairs[-1][1].is_subgroup_of(H):
        raise InternalInconsistencyError("canonical series: last L is not inside H")


class AscentState:
    """Per-layer snapshot of the bottom-up head character construction."""

    __slots__ = ("layer", "delta", "level_chars")

    def __init__(self, layer, delta, level_chars):
        self.layer = layer
        self.delta = tuple(delta)
        self.level_chars = tuple(level_chars)


def _ascend(G, F):
    cs = canonical_series(G, F)
    current = character_table(cs.level(cs.m)).linear_characters()
    states = []
    for i in range(cs.m - 1, -1, -1):
        K, L = cs.pairs[i]
        delta = {}  # over a fixed conductor a class function is its denominator and coefficients
        for chi in current:
            d = chi.restrict(L)
            if not d.is_irreducible():
                raise InternalInconsistencyError(
                    "reducible restriction in the Delta set at layer %d" % i
                )
            delta.setdefault((d.e, d.den, _key(d.coeffs)), d)
        delta = list(delta.values())
        new = []
        for chi in character_table(cs.level(i)).irr:
            rL = chi.restrict(L)
            if not any(not rL.inner(d).is_zero() for d in delta):
                continue
            if not chi.restrict(K).is_irreducible():
                continue
            new.append(chi)
        states.append(AscentState(i, delta, new))
        current = new
    states.reverse()
    return current, states


def fprime_ascending(G, F):
    """The head characters of G, built upward from Lin(H), in table row order."""
    return list(G.memo(("fprime", G, F), lambda: tuple(_ascend(G, F)[0])))


def ascent_states(G, F):
    """The layer-by-layer Delta sets and filtered levels of the ascent."""
    return _ascend(G, F)[1]


def _check_triple(chi, G, K, L, H, expect):
    if not chi.group.same_group_as(expect):
        raise DomainError("character lives on the wrong subgroup")
    if not chi.is_irreducible():
        raise DomainError("character must be irreducible")
    if not chi.is_invariant_under(H):
        raise DomainError("character must be H-invariant")
    if not navarro_condition(G, K, L, H):
        raise DomainError("(G, K, L) fails the Navarro condition for H")


def _unique_invariant(table, H, meets, direction):
    """The one H-invariant row of table that meets the given character.

    meets(rows) marks which of the H-invariant rows meet it, in one product.
    """
    rows = [psi for psi, inv in zip(table.irr, table.invariant_rows(H)) if inv]
    found = [psi for psi, hit in zip(rows, meets(rows)) if hit]
    if len(found) != 1:
        raise InternalInconsistencyError(
            "expected one H-invariant constituent %s, found %d" % (direction, len(found))
        )
    return found[0]


def unique_invariant_below(theta, G, K, L, H):
    """The unique H-invariant irreducible constituent of theta restricted to L."""
    _check_triple(theta, G, K, L, H, expect=K)
    rest = theta.restrict(L)
    return _unique_invariant(
        character_table(L), H, lambda rows: inner_products([rest], rows)[1].any(axis=2)[0], "below"
    )


def unique_invariant_above(phi, G, K, L, H):
    """The unique H-invariant member of Irr(K) lying over phi."""
    _check_triple(phi, G, K, L, H, expect=L)
    return _unique_invariant(
        character_table(K), H,
        lambda rows: inner_products([theta.restrict(L) for theta in rows], [phi])[1].any(axis=2)[:, 0],
        "above",
    )


def _row_of(table, chi):
    """The index of chi among the rows of table, by lookup; chi must be one of them."""
    i = table.index(chi)
    if i is None:
        raise InternalInconsistencyError("character is not a row of its table")
    return i


def _first_extension(chi, big):
    """The first row of big's table that restricts to chi, or None: the witness extensions_of lists first."""
    table = character_table(big)
    rows = table.extensions(chi)
    return table.irr[rows[0]] if rows else None


def extension_transfer_check(G, K, L, F, theta, phi):
    """Whether extensions of theta to G and of phi to LH lie over one another."""
    H = projector(G, F)
    _check_triple(theta, G, K, L, H, expect=K)
    if unique_invariant_below(theta, G, K, L, H) != phi:
        raise DomainError("phi is not the invariant constituent below theta")
    hyp = _hypothesis(G, F)
    LH = subgroup_product(L, H)
    table_g, table_lh = character_table(G), character_table(LH)
    eta_rows, chi_rows = table_lh.extensions(phi), table_g.extensions(theta)
    etas = [table_lh.irr[b] for b in eta_rows]
    chis = [table_g.irr[a] for a in chi_rows]
    # over[a][b]: chis[a] lies over etas[b]; each list reads its first witness from it
    over = inner_products([chi.restrict(LH) for chi in chis], etas)[1].any(axis=2)
    upward = []
    for b, row in enumerate(eta_rows):
        a = next((a for a in range(len(chis)) if over[a][b]), None)
        witness = None if a is None else chi_rows[a]
        upward.append({"eta": row, "pass": a is not None, "chi": witness})
    downward = []
    for a, row in enumerate(chi_rows):
        b = next((b for b in range(len(etas)) if over[a][b]), None)
        witness = None if b is None else eta_rows[b]
        downward.append({"chi": row, "pass": b is not None, "eta": witness})
    ok = all(entry["pass"] for entry in upward + downward)
    if hyp["met"] and not ok:
        raise InternalInconsistencyError("extension transfer failed under the hypothesis")
    return {
        "theorem": "extension-transfer",
        "group": G.to_json(),
        "formation": str(F),
        "hypothesis": hyp,
        "theta_extensions": len(chis),
        "phi_extensions": len(etas),
        "upward": upward,
        "downward": downward,
        "all_transfers_hold": ok,
    }


class PairSeries:
    """Ascending chain of (subgroup, character) pairs with extension witnesses."""

    __slots__ = ("entries", "projector", "strong", "witnesses")

    def __init__(self, entries, proj, strong, witnesses):
        self.entries = tuple(entries)
        self.projector = proj
        self.strong = strong
        self.witnesses = tuple(witnesses)

    def theta_at(self, U):
        """The character attached to the series term equal to U."""
        for S, theta in self.entries:
            if S.order() == U.order() and S.same_group_as(U):
                return theta
        raise DomainError("subgroup is not a term of the series")


def _default_series(G, F):
    def compute():
        cs = canonical_series(G, F)
        return tuple(h_composition_series(G, cs.projector, cs.anchors()))

    return G.memo(("hseries", G, F), compute)


def strong_series_for(chi, G, F, series=None):
    """The unique strong pair series on an H-composition series ending at chi."""
    cs = canonical_series(G, F)
    H = cs.projector
    if series is None:
        series = _default_series(G, F)
    if not chi.group.same_group_as(G):
        raise DomainError("chi must be a character of G")
    if not chi.is_irreducible():
        raise DomainError("chi must be irreducible")
    if series[0].order() != 1 or series[-1].order() != G.order():
        raise DomainError("series must run from the trivial subgroup to G")
    thetas = [None] * len(series)
    thetas[-1] = chi
    for i in range(len(series) - 1, 0, -1):
        S, T = series[i], series[i - 1]
        if not T.is_subgroup_of(S):
            raise DomainError("series terms are not nested")
        SH = subgroup_product(S, H)
        TH = subgroup_product(T, H)
        if SH.order() == TH.order():
            rest = thetas[i].restrict(T)
            if not rest.is_irreducible():
                raise NoStrongSeriesError(
                    "no strong series: reducible restriction to the order-%d term"
                    % T.order()
                )
            thetas[i - 1] = rest
        else:
            if not navarro_condition(SH, S, T, H):
                raise InternalInconsistencyError(
                    "series factor fails the Navarro condition"
                )
            thetas[i - 1] = unique_invariant_below(thetas[i], SH, S, T, H)
    witnesses = []
    for i, S in enumerate(series):
        ext = _first_extension(thetas[i], subgroup_product(S, H))
        if ext is None:
            raise NoStrongSeriesError(
                "no strong series: the character at the order-%d term does not extend"
                % S.order()
            )
        witnesses.append(ext)
    return PairSeries(zip(series, thetas), H, True, witnesses)


def is_head_character(chi, G, F):
    """True when a strong pair series ends at chi on the canonical refinement."""
    try:
        strong_series_for(chi, G, F)
        return True
    except NoStrongSeriesError:
        return False


def fprime_descending_test(chi, G, F):
    """Top-down membership test with a forced witness chain."""
    if not chi.is_irreducible():
        raise DomainError("chi must be irreducible")
    if not chi.group.same_group_as(G):
        raise DomainError("chi must be a character of G")
    cs = canonical_series(G, F)
    H = cs.projector
    chain = []

    def verdict(reason):
        """chi is a head character when no step gave a reason against it."""
        return {"member": reason is None, "reason": reason, "chain": chain}

    if cs.m == 0:
        linear = chi.degree() == 1
        return verdict(None if linear else "formation member: only linear characters qualify")
    K0 = cs.pairs[0][0]
    theta = chi.restrict(K0)
    if not theta.is_irreducible():
        return verdict("restriction to the residual (order %d) is reducible" % K0.order())
    chain.append({"level": "K0", "order": K0.order(), "character": theta})
    for i in range(cs.m):
        K, L = cs.pairs[i]
        KH = cs.level(i)
        if i > 0 and _first_extension(theta, KH) is None:
            return verdict("theta_%d does not extend to K_%dH" % (i, i))
        phi = unique_invariant_below(theta, KH, K, L, H)
        LH = cs.level(i + 1)
        if _first_extension(phi, LH) is None:
            return verdict("phi_%d does not extend to L_%dH" % (i, i))
        chain.append({"level": "L%d" % i, "order": L.order(), "character": phi})
        # the link (phi_i)|_{K_{i+1}} = theta_{i+1} must produce an irreducible
        # character; at the last layer K_m = 1 this forces phi_{m-1} linear
        nextK = cs.pairs[i + 1][0] if i + 1 < cs.m else mask_subgroup(G, 1)
        theta = phi.restrict(nextK)
        if not theta.is_irreducible():
            return verdict("restriction of phi_%d to K_%d is reducible" % (i, i + 1))
        if i + 1 < cs.m:
            chain.append({"level": "K%d" % (i + 1), "order": nextK.order(), "character": theta})
    return verdict(None)


def gallagher_family(gamma, N):
    """Twists of gamma by the linear characters trivial on N, in first-seen order.

    The twists are one product of the table's stacked linear rows against
    gamma (``CharacterTable.twists``).  Every twist lives on gamma's group over
    one conductor with gamma's denominator, where a class function is its
    coefficient matrix, so that is the exact key for dropping repeats.
    """
    U = gamma.group
    m, twists = character_table(U).twists(_linear_over(U, N), gamma)
    out = {}
    for X in twists:
        out.setdefault(_key(X), X)
    return [ClassFunction._from_coeffs(U, m, X, gamma.den) for X in out.values()]


def _linear_over(U, N):
    """The rows of U's table that are linear characters trivial on N, memoized on U.

    A linear character is trivial on N when its kernel mask holds the classes
    of N's generators.
    """

    def compute():
        classes = [U.class_of(g) for g in N.generators]
        return tuple(
            i
            for i, lam in enumerate(character_table(U).irr)
            if lam.degree() == 1 and all(lam.kernel_mask() >> j & 1 for j in classes)
        )

    return U.memo(("gallagher", U, N), compute)


def report(theorem, G, F, instances, **summary):
    """The JSON report of a theorem verifier; F is None for a check without a formation."""
    return {
        "theorem": theorem,
        "group": G.to_json(),
        "formation": None if F is None else str(F),
        "instances": instances,
        "summary": summary,
    }


def instance(inputs, ok, witnesses):
    """One checked case of a report: what was checked, whether it held, and why."""
    return {"inputs": inputs, "pass": ok, "witnesses": witnesses}


def tally(instances):
    """The summary counts of a report with one instance per character."""
    passed = sum(1 for inst in instances if inst["pass"])
    return {"passed": passed, "all_pass": passed == len(instances)}


def theorem_a_report(G, F, N):
    """Restriction of head characters to a normal subgroup: parts (a), (b), (c)."""
    if not is_normal_in(N, G):
        raise DomainError("N must be normal in G")
    H = projector(G, F)
    NH = subgroup_product(N, H)
    heads = fprime_ascending(G, F)
    hyp = _hypothesis(G, F)
    index = G.order() // NH.order()
    table_g, table_n = character_table(G), character_table(N)
    inv_rows = [i for i, inv in enumerate(table_n.invariant_rows(H)) if inv]
    # meets[a, b]: the restriction of heads[a] to N has row inv_rows[b] of Irr(N) as a constituent
    h_invariant = [table_n.irr[i] for i in inv_rows]
    meets = inner_products([chi.restrict(N) for chi in heads], h_invariant)[1].any(axis=2)
    invs = [[i for i, m in zip(inv_rows, row) if m] for row in meets]
    # under[a]: the rows of the heads of NH that heads[a] restricted to NH lies over (part (c))
    checked = [a for a, inv in enumerate(invs) if len(inv) == 1] if hyp["met"] else []
    if checked:
        table_nh = character_table(NH)
        heads_nh = fprime_ascending(NH, F)
        nh_rows = [_row_of(table_nh, g) for g in heads_nh]
        over = inner_products([heads[a].restrict(NH) for a in checked], heads_nh)[1].any(axis=2)
        under = {a: [r for r, m in zip(nh_rows, row) if m] for a, row in zip(checked, over)}
    normal = _subgroup_json(N)
    instances = []
    for a, (chi, inv) in enumerate(zip(heads, invs)):
        part_a = len(inv) == 1
        witnesses = {"part_a": part_a, "invariant_constituents": len(inv)}
        part_b = False
        part_c = {"checked": False, "reason": hyp["reason"]}
        if part_a:
            theta = table_n.irr[inv[0]]
            d_chi = chi.degree().as_int()
            d_theta = theta.degree().as_int()
            part_b = d_chi % d_theta == 0 and index % (d_chi // d_theta) == 0
            witnesses["theta"] = inv[0]
            witnesses["ratio"] = d_chi // d_theta if d_chi % d_theta == 0 else None
            witnesses["index_of_NH"] = index
            if hyp["met"]:
                over_theta = table_nh.extensions(theta)
                gammas = [r for r in under[a] if r in over_theta]
                ok = bool(gammas)
                gamma_row = None
                if ok:
                    gamma_row = gammas[0]
                    m, twists = table_nh.twists(_linear_over(NH, N), table_nh.irr[gamma_row])
                    family = {table_nh.row_of(X, m) for X in twists}  # Gallagher's family of gamma
                    ok = all(r in family for r in under[a])
                part_c = {"checked": True, "pass": ok, "gamma": gamma_row}
        witnesses["part_b"] = part_b
        witnesses["part_c"] = part_c
        ok_all = part_a and part_b and (not part_c["checked"] or part_c["pass"])
        inputs = {"character": _row_of(table_g, chi), "normal": normal}
        instances.append(instance(inputs, ok_all, witnesses))
    return report(
        "A", G, F, instances,
        normal_order=N.order(), characters=len(instances), **tally(instances), hypothesis=hyp,
    )


def _kernel_bound(G, chars, X, Y):
    """The meet of the kernels of chars, set against the normal N of G with N meet X <= Y.

    Both are class masks of G; no normal subgroup is enumerated.  N qualifies
    iff it misses ``bad``, the classes that meet X - Y, so a class lies in a
    qualifying N iff its normal closure qualifies, and the join J of every
    qualifying N is the closure of those classes.  Returns the meet, whether
    J lies in it, and the witnesses of Theorems B and C: J qualifies, so it
    is the largest qualifying N, and it equals the meet.  When J does not
    qualify there is no largest one, and ``largest_normal`` names J.
    """
    meet = _full_mask(G)
    for chi in chars:
        meet &= chi.kernel_mask()
    bad = sum(1 << i for i in {G.class_of(x) for x in X.elements() if not Y.contains(x)})
    join = _closure_mask(G, (i for i, c in enumerate(_class_closures(G)) if not c & bad))
    M, largest = mask_subgroup(G, meet), mask_subgroup(G, join)
    return M, join & meet == join, {
        "kernel_intersection": _subgroup_json(M),
        "kernel_intersection_order": M.order(),
        "largest_normal": _subgroup_json(largest),
        "largest_normal_order": largest.order(),
        "equal": M is largest,
        "qualifying_closed_under_join": not join & bad,
    }


def theorem_b_report(G, F):
    """Intersection of head character kernels against the largest normal M."""
    H = projector(G, F)
    heads = fprime_ascending(G, F)
    meet, lemma, witnesses = _kernel_bound(G, heads, H, H.derived_subgroup())
    witnesses["kernel_lemma"] = lemma
    Q, gmap = quotient(G, meet)
    heads_q = fprime_ascending(Q, F)
    table_q = character_table(Q)
    rows_q = {_row_of(table_q, chi) for chi in heads_q}
    deflated = [deflate(chi, gmap) for chi in heads]
    witnesses["inflation_bijection"] = len(deflated) == len(heads_q) and all(
        table_q.index(d) in rows_q for d in deflated
    )
    checks = ("equal", "qualifying_closed_under_join", "kernel_lemma", "inflation_bijection")
    ok = all(witnesses[key] for key in checks)
    return report("B", G, F, [instance({}, ok, witnesses)], all_pass=ok, M_order=meet.order())


def theorem_c_report(G, p):
    """Kernel intersection over p'-degree characters against the normalizer bound."""
    if not is_prime(p):
        raise DomainError("p must be prime")
    if not G.is_solvable():
        raise UnsupportedGroupError("the kernel theorem is verified for solvable groups")
    P = sylow(G, p)
    irr = character_table(G).irr
    rows = [i for i, chi in enumerate(irr) if chi.degree().as_int() % p != 0]
    meet, _, witnesses = _kernel_bound(
        G, [irr[i] for i in rows], normalizer(G, P), P.derived_subgroup()
    )
    ok = witnesses["equal"] and witnesses["qualifying_closed_under_join"]
    inputs = {"prime": p, "p_prime_rows": rows}
    return report(
        "C", G, None, [instance(inputs, ok, witnesses)], all_pass=ok, K_order=meet.order()
    )


def theorem_54_report(G, F):
    """Ascending set, strong-series membership, and descending test must agree."""
    heads = fprime_ascending(G, F)
    table = character_table(G)
    head_rows = {_row_of(table, chi) for chi in heads}
    instances = []
    for i, chi in enumerate(table.irr):
        asc = i in head_rows
        strong = is_head_character(chi, G, F)
        desc = fprime_descending_test(chi, G, F)["member"]
        witnesses = {"ascending": asc, "strong_series": strong, "descending": desc}
        inputs = {"character": i, "degree": chi.degree().as_int()}
        instances.append(instance(inputs, asc == strong == desc, witnesses))
    return report(
        "5.4", G, F, instances,
        characters=len(instances), head_count=len(heads), **tally(instances),
    )


def counting_check(G, F):
    """Exactly |H/H'| head characters for a projector H."""
    return counting_report(G, F)["summary"]["all_pass"]


def counting_report(G, F):
    H = projector(G, F)
    count = len(fprime_ascending(G, F))
    target = H.order() // H.derived_subgroup().order()
    ok = count == target
    witnesses = {"head_count": count, "projector_abelianization": target}
    return report("counting", G, F, [instance({}, ok, witnesses)], all_pass=ok)
