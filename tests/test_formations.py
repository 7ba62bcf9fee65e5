"""Formation membership, residual and projector tests."""

import pytest

from formata.errors import DomainError, UnsupportedGroupError
from formata.formations import (
    Formation,
    fitting_subgroup,
    is_nilpotent,
    is_p_nilpotent,
    is_supersolvable,
    navarro_condition,
    nilpotent_length,
    prime_divisors,
    projector,
    residual,
    verify_projector,
)
from formata.groups import generate, intersection, is_normal_in, normal_subgroups, quotient, subgroup_product

from _oracles import brute_is_nilpotent


def test_parse_and_str():
    assert str(Formation.parse("nilpotent")) == "nilpotent"
    assert str(Formation.parse("p-groups:2")) == "p-groups:2"
    assert str(Formation.parse("pi-groups:3,2")) == "pi-groups:2,3"
    assert str(Formation.parse("P_Nilpotent:5")) == "p-nilpotent:5"
    assert str(Formation.parse("nilpotent-length:2")) == "nilpotent-length:2"
    assert Formation.parse("metanilpotent") == Formation("metanilpotent")


@pytest.mark.parametrize(
    "bad",
    ["frobenius", "p-groups:4", "p-groups:2,3", "pi-groups:", "pi-groups:6", "nilpotent-length:0", "nilpotent:3", "p-nilpotent:x"],
)
def test_parse_rejects(bad):
    with pytest.raises(DomainError):
        Formation.parse(bad)


def test_contains_nilpotent_flags():
    flags = {
        "nilpotent": True,
        "supersolvable": True,
        "p-groups:2": False,
        "pi-groups:2,3": False,
        "p-nilpotent:2": True,
        "metanilpotent": True,
        "nilpotent-length:1": True,
        "nilpotent-length:4": True,
    }
    for desc, want in flags.items():
        assert Formation.parse(desc).contains_nilpotent is want, desc


def test_membership_predicates(s4, a4, d8, s3, c6):
    q8 = generate(8, ["(0 2 1 3)(4 7 5 6)", "(0 4 1 5)(2 6 3 7)"])
    assert is_nilpotent(d8) and is_nilpotent(q8) and is_nilpotent(c6)
    assert not is_nilpotent(s3) and not is_nilpotent(s4) and not is_nilpotent(a4)
    for G in (s4, a4, d8, s3, c6, q8):
        assert is_nilpotent(G) == brute_is_nilpotent(G)
    assert is_supersolvable(s3) and is_supersolvable(d8) and is_supersolvable(c6)
    assert not is_supersolvable(s4) and not is_supersolvable(a4)
    assert is_p_nilpotent(s3, 2) and not is_p_nilpotent(s3, 3)
    assert is_p_nilpotent(a4, 3) and not is_p_nilpotent(a4, 2)
    assert is_p_nilpotent(d8, 3)  # p not dividing the order is trivial


def test_fitting_and_length(s4, a4, s3, d8, c6):
    assert fitting_subgroup(s4).order() == 4
    assert fitting_subgroup(a4).order() == 4
    assert fitting_subgroup(s3).order() == 3
    assert fitting_subgroup(d8).order() == 8
    assert nilpotent_length(s4) == 3
    assert nilpotent_length(a4) == 2
    assert nilpotent_length(s3) == 2
    assert nilpotent_length(d8) == 1
    assert nilpotent_length(c6) == 1
    assert nilpotent_length(generate(3, [])) == 0


S4_EXPECT = {
    "nilpotent": (12, 8),
    "supersolvable": (4, 6),
    "p-groups:2": (12, 8),
    "pi-groups:2,3": (1, 24),
    "p-nilpotent:2": (4, 6),
    "p-nilpotent:3": (12, 8),
    "metanilpotent": (4, 6),
    "nilpotent-length:1": (12, 8),
    "nilpotent-length:2": (4, 6),
    "nilpotent-length:3": (1, 24),
}


@pytest.mark.parametrize("desc", sorted(S4_EXPECT))
def test_s4_residual_and_projector(s4, desc):
    F = Formation.parse(desc)
    R = residual(s4, F)
    P = projector(s4, F)
    r_order, p_order = S4_EXPECT[desc]
    assert R.order() == r_order
    assert P.order() == p_order
    assert is_normal_in(R, s4)
    assert F.is_member(quotient(s4, R)[0])
    # minimality: residual sits inside every normal subgroup with member quotient
    for N in normal_subgroups(s4):
        if F.is_member(quotient(s4, N)[0]):
            assert intersection(R, N).order() == R.order()
    checks = verify_projector(s4, P, F)
    assert checks["member"] and checks["covers_residual"] and checks["quotient_projector"]
    assert checks["f_maximal"] is True


def test_a4_values(a4):
    assert residual(a4, Formation.parse("nilpotent")).order() == 4
    assert projector(a4, Formation.parse("nilpotent")).order() == 3
    assert residual(a4, Formation.parse("supersolvable")).order() == 4
    assert projector(a4, Formation.parse("supersolvable")).order() == 3
    # no proper normal subgroup of A4 has 2-power index, so the residual is A4
    assert residual(a4, Formation.parse("p-groups:2")).order() == 12
    assert projector(a4, Formation.parse("p-groups:2")).order() == 4


def test_member_group_is_own_projector(d8, c6):
    F = Formation.parse("nilpotent")
    assert projector(d8, F) is d8
    assert residual(d8, F).order() == 1
    assert projector(c6, F) is c6


def test_projector_conjugates_verify(s4):
    F = Formation.parse("nilpotent")
    P = projector(s4, F)
    for g in s4.elements()[:6]:
        conj = generate(4, []).__class__(4, [h.conj(g) for h in P.generators])
        checks = verify_projector(s4, conj, F)
        assert checks["member"] and checks["covers_residual"] and checks["f_maximal"]


def test_navarro_condition(s4, v4):
    F = Formation.parse("supersolvable")
    H = projector(s4, F)
    K = residual(s4, F)
    L = K.derived_subgroup()
    assert K.sort_key() == v4.sort_key() and L.order() == 1
    assert navarro_condition(s4, K, L, H)
    a4 = generate(4, ["(0 1 2)", "(0 1)(2 3)"])
    assert not navarro_condition(s4, a4, L, H)  # A4/1 is not abelian
    assert not navarro_condition(s4, subgroup_product(v4, generate(4, ["(0 1)"])), L, H)  # not normal


def test_projector_requires_solvable():
    a5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    with pytest.raises(UnsupportedGroupError):
        projector(a5, Formation.parse("nilpotent"))
    assert residual(a5, Formation.parse("nilpotent")).order() == 60


def test_prime_divisors():
    assert prime_divisors(360) == [2, 3, 5]
    assert prime_divisors(1) == []
    assert prime_divisors(49) == [7]
