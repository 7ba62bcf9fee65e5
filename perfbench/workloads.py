"""Workload inputs, passes and golden values.

A pass is the timed part of a workload.  It runs on a freshly imported formata
(see run.py), so no object cache survives from an earlier pass, just as in a
new CLI invocation.  Each item is one call whose time is recorded.

Inputs for ``ladder`` and ``tables`` are direct products of catalog groups on
shifted points, with every point relabelled by a permutation drawn from the
seed.  The program receives only the relabelled generator words.  Their golden
values do not depend on point labels, so they hold for every seed.
"""

import io
import random
import re
from contextlib import redirect_stdout
from math import prod
from pathlib import Path

GOLDEN_STDOUT = Path(__file__).resolve().parent / "golden" / "verify_all.stdout"

# Character degrees, order and class count of the catalog groups used in
# products.  A direct product multiplies each of these, so the golden values of
# every product follow from its factors.
FACTORS = {
    "C2": ([1, 1], 2, 2),
    "C3": ([1, 1, 1], 3, 3),
    "S3": ([1, 1, 2], 6, 3),
    "D8": ([1, 1, 1, 1, 2], 8, 5),
    "Q8": ([1, 1, 1, 1, 2], 8, 5),
    "A4": ([1, 1, 1, 3], 12, 4),
    "D12": ([1, 1, 1, 1, 2, 2], 12, 6),
    "C7C3": ([1, 1, 1, 3, 3], 21, 5),
    "S4": ([1, 1, 2, 3, 3], 24, 5),
    "SL23": ([1, 1, 1, 2, 2, 2, 3], 24, 7),
    "2S4": ([1, 1, 2, 2, 2, 3, 3, 4], 48, 8),
    "G75": ([1, 1, 1] + [3] * 8, 75, 11),
}

# |H:H'| for a Carter subgroup H (the nilpotent projector): D8 in S4, C2 in S3,
# C3 in A4.  Head characters number |H:H'|, and H of a product is the product.
HEADS = {"C2": 2, "S3": 2, "A4": 3, "S4": 4}

LADDER = (("thm54", ("S4", "S3")), ("fprime_ascending", ("A4", "A4", "C2")))
TABLES = (
    ("SL23", "S3"),
    ("G75", "C2"),
    ("S3", "S3", "S3"),
    ("Q8", "C7C3"),
    ("D12", "D12"),
    ("2S4", "C3"),
    ("D8", "D8", "C2"),
)
FORMATION = "nilpotent"


def golden(names):
    """Order, class count and sorted degree multiset of a direct product."""
    degrees = [1]
    for n in names:
        degrees = [a * b for a in degrees for b in FACTORS[n][0]]
    return {
        "order": prod(FACTORS[n][1] for n in names),
        "classes": prod(FACTORS[n][2] for n in names),
        "degrees": sorted(degrees),
    }


# -- inputs ---------------------------------------------------------------------

_CYCLE = re.compile(r"\(([^()]*)\)")


def _images(word, degree):
    img = list(range(degree))
    for body in _CYCLE.findall(word):
        pts = [int(t) for t in body.split()]
        step = {pts[i]: pts[(i + 1) % len(pts)] for i in range(len(pts))}
        img = [step.get(j, j) for j in img]
    return img


def _word(img):
    seen = [False] * len(img)
    out = []
    for s in range(len(img)):
        if seen[s] or img[s] == s:
            continue
        cyc = [s]
        seen[s] = True
        j = img[s]
        while j != s:
            seen[j] = True
            cyc.append(j)
            j = img[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def product_words(names, catalog, rng):
    """Generator words of the direct product on shifted, then relabelled points."""
    degree = sum(catalog[n][0] for n in names)
    sigma = list(range(degree))
    rng.shuffle(sigma)
    words, offset = [], 0
    for n in names:
        deg, factor_words = catalog[n]
        for w in factor_words:
            local = _images(w, deg)
            img = list(range(degree))
            for i in range(deg):
                img[offset + i] = offset + local[i]
            # conjugate by sigma: the point sigma[i] goes to sigma[img[i]]
            relabelled = [0] * degree
            for i in range(degree):
                relabelled[sigma[i]] = sigma[img[i]]
            words.append(_word(relabelled))
        offset += deg
    return degree, words


def make_inputs(workload, seed, catalog):
    """Label -> (degree, words) for each product group of the workload."""
    rng = random.Random(seed)
    if workload == "ladder":
        specs = [names for _, names in LADDER]
    elif workload == "tables":
        specs = list(TABLES)
    else:
        return {}
    return {"x".join(names): product_words(names, catalog, rng) for names in specs}


# -- passes ---------------------------------------------------------------------
#
# A pass takes the formata package, the built product groups and an item clock,
# and returns (attempted, failed, notes).


def pass_verify_catalog(fm, groups, clock):
    cli = fm.cli
    for attr in (
        "counting_report",
        "theorem_54_report",
        "theorem_b_report",
        "theorem_a_report",
        "theorem_c_report",
        "counterexample_report",
    ):
        setattr(cli, attr, clock.wrap(getattr(cli, attr)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run_command(["verify", "all"])
    clock.stop()
    golden_text = GOLDEN_STDOUT.read_text(encoding="utf-8")
    got, want = buf.getvalue().splitlines(), golden_text.splitlines()
    items = len(want) - 1  # one line per report call, then the summary line
    failed = sum(1 for i in range(items) if i >= len(got) or got[i] != want[i])
    if buf.getvalue() != golden_text or code != 0:
        failed = max(failed, 1)
    return items, failed, ["verify all exit %d, %d lines, %d differ" % (code, len(got), failed)]


def pass_ladder(fm, groups, clock):
    F = fm.Formation.parse(FORMATION)
    results = []
    for (kind, names), G in zip(LADDER, groups.values()):
        if kind == "thm54":
            rep = clock.call(fm.theorem_54_report, G, F)
            results.append((names, G, rep["summary"]["head_count"], rep["summary"]["all_pass"]))
        else:
            heads = clock.call(fm.fprime_ascending, G, F)
            results.append((names, G, len(heads), True))
    clock.stop()
    failed, notes = 0, []
    for names, G, heads, all_pass in results:
        H = fm.projector(G, F)
        got = {
            "order": G.order(),
            "classes": len(G.conjugacy_classes()),
            "degrees": sorted(fm.character_table(G).degrees()),
        }
        ok = (
            got == golden(names)
            and all_pass
            and heads == prod(HEADS[n] for n in names)
            and H.order() // H.derived_subgroup().order() == heads
        )
        failed += not ok
        notes.append("%s: %s" % ("x".join(names), "ok" if ok else "MISMATCH %r" % got))
    return len(results), failed, notes


def pass_tables(fm, groups, clock):
    tables = [(names, G, clock.call(fm.character_table, G)) for names, G in zip(TABLES, groups.values())]
    clock.stop()
    failed, notes = 0, []
    for names, G, T in tables:
        got = {
            "order": G.order(),
            "classes": len(G.conjugacy_classes()),
            "degrees": sorted(T.degrees()),
        }
        # character_table runs the all-pairs orthogonality check before returning
        ok = got == golden(names) and len(T.irr) == got["classes"]
        failed += not ok
        notes.append("%s: %s" % ("x".join(names), "ok" if ok else "MISMATCH %r" % got))
    return len(tables), failed, notes


PASSES = {
    "verify_catalog": pass_verify_catalog,
    "ladder": pass_ladder,
    "tables": pass_tables,
}

# Spans each workload must enter when traced; a miss fails the traced run.
EXPECTED_SPANS = {
    "verify_catalog": (
        "catalog.build", "groups.chain", "groups.conjugacy_classes", "groups.normal_subgroups",
        "groups.closure_elements", "groups.quotient", "characters.dixon", "characters.dixon.split",
        "characters.dixon.lift", "characters.table_verify", "characters.inner",
        "characters.restrict", "cyclotomic", "gfq", "formations.residual", "formations.projector",
        "headchars.canonical_series", "headchars.ascend", "headchars.descend",
        "headchars.strong_series", "headchars.report.counting", "headchars.report.thm54",
        "headchars.report.thm_a", "headchars.report.thm_b", "headchars.report.thm_c",
        "cli.counterexample", "perms.mul", "perms.conj",
    ),
    "ladder": (
        "catalog.build", "groups.chain", "groups.conjugacy_classes", "groups.normal_subgroups",
        "groups.closure_elements", "groups.chief_series", "groups.h_composition_series",
        "groups.quotient", "characters.dixon", "characters.dixon.split", "characters.dixon.lift",
        "characters.table_verify", "characters.inner", "characters.restrict", "cyclotomic", "gfq",
        "formations.residual", "formations.projector", "headchars.canonical_series",
        "headchars.ascend", "headchars.descend", "headchars.strong_series",
        "headchars.report.thm54", "perms.mul", "perms.conj",
    ),
    "tables": (
        "catalog.build", "groups.chain", "groups.conjugacy_classes", "characters.table",
        "characters.dixon", "characters.dixon.split", "characters.dixon.lift",
        "characters.table_verify", "characters.inner", "cyclotomic", "gfq", "perms.mul",
        "perms.conj",
    ),
}
