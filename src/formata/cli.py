"""Command-line interface wiring tables, projectors, series, and verifiers."""

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .catalog import catalog_group, catalog_names, load_catalog
from .characters import character_table
from .errors import CapacityError, CatalogIntegrityError, FormataError, InternalInconsistencyError
from .formations import Formation, projector, require_solvable, residual
from .groups import PermGroup, generate, normal_subgroups, order_cap, prime_divisors
from .headchars import (
    canonical_series,
    counting_report,
    extension_transfer_check,
    fprime_ascending,
    instance,
    report,
    tally,
    theorem_54_report,
    theorem_a_report,
    theorem_b_report,
    theorem_c_report,
    unique_invariant_below,
)
from .perms import read_group_file

VERIFY_FORMATIONS = ("nilpotent", "supersolvable", "metanilpotent", "nilpotent-length:2")


def resolve_group(token):
    """A catalog name (case-insensitive) or a path to a group file.

    A group over the order cap is refused here, by its chain order, before
    any command enumerates it.
    """
    lowered = token.lower()
    if lowered in {n.lower() for n in catalog_names()}:
        G = catalog_group(token)
    elif os.path.isfile(token):
        degree, gens = read_group_file(token)
        G = PermGroup(degree, gens)
    else:
        raise CatalogIntegrityError(
            "unknown group %r: not a catalog name and not a file" % token
        )
    if G.order() > order_cap():
        raise CapacityError(f"group order {G.order()} exceeds cap {order_cap()}")
    return G


def group_label(G, token):
    return getattr(G, "name", None) or token


def build_parser():
    parser = argparse.ArgumentParser(
        prog="formata",
        description="Exact character tables, formation projectors, and head character verification for solvable permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="print the character table")
    sp.add_argument("group", help="catalog name or group file")
    sp.add_argument("--json", action="store_true")

    for name, desc in (
        ("projector", "print a projector for the formation"),
        ("residual", "print the formation residual"),
        ("series", "print the canonical series"),
        ("headchars", "list the head characters"),
    ):
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("group", help="catalog name or group file")
        sp.add_argument("--formation", default="nilpotent")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", help="run a theorem verifier")
    sp.add_argument(
        "target",
        choices=[*CHECKS, "counterexample-2S4", "all"],
    )
    sp.add_argument("group", nargs="?", help="catalog name or group file")
    sp.add_argument("--formation", help="formation of the check (default nilpotent)")
    sp.add_argument("--normal", help="generators of a normal subgroup, separated by ';'")
    sp.add_argument("--prime", type=int)
    sp.add_argument("--json", action="store_true")
    return parser


def _print_json(payload):
    print(json.dumps(payload, indent=2))


def _cmd_table(args):
    G = resolve_group(args.group)
    table = character_table(G)
    if args.json:
        _print_json(table.to_json())
        return 0
    classes = G.conjugacy_classes()
    print(
        "group %s  order %d  degree %d  classes %d"
        % (group_label(G, args.group), G.order(), G.degree, len(classes))
    )
    rows = [["sizes:"] + [str(c.size) for c in classes]]
    rows.append(["orders:"] + [str(c.rep.order()) for c in classes])
    for i, chi in enumerate(table.irr):
        rows.append(["X.%d" % i] + [str(v) for v in chi.values])
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return 0


def _cmd_subgroup(args, which):
    G = resolve_group(args.group)
    F = Formation.parse(args.formation)
    U = projector(G, F) if which == "projector" else residual(G, F)
    if args.json:
        _print_json(
            {
                "group": G.to_json(),
                "formation": str(F),
                which: {
                    "order": U.order(),
                    "generators": [g.cycle_string() for g in U.generators],
                },
            }
        )
        return 0
    gens = "; ".join(g.cycle_string() for g in U.generators) or "()"
    print(
        "%s of %s for %s: order %d, generators %s"
        % (which, group_label(G, args.group), F, U.order(), gens)
    )
    return 0


def _cmd_series(args):
    G = resolve_group(args.group)
    F = Formation.parse(args.formation)
    cs = canonical_series(G, F)
    if args.json:
        _print_json(cs.to_json())
        return 0
    label = group_label(G, args.group)
    print("canonical series of %s for %s: length m=%d" % (label, F, cs.m))
    print("projector order %d" % cs.projector.order())
    for i, (K, L) in enumerate(cs.pairs):
        print("K%d order %d, L%d order %d" % (i, K.order(), i, L.order()))
    print("levels: %s" % " > ".join(str(cs.level(i).order()) for i in range(cs.m + 1)))
    return 0


def _cmd_headchars(args):
    G = resolve_group(args.group)
    F = Formation.parse(args.formation)
    heads = fprime_ascending(G, F)
    irr = character_table(G).irr
    rows = [next(i for i, r in enumerate(irr) if r is h) for h in heads]
    if args.json:
        _print_json(
            {
                "group": G.to_json(),
                "formation": str(F),
                "count": len(heads),
                "characters": [
                    {"row": i, "degree": h.degree().as_int()} for i, h in zip(rows, heads)
                ],
            }
        )
        return 0
    print(
        "head characters of %s for %s: %d of %d irreducibles"
        % (group_label(G, args.group), F, len(heads), len(irr))
    )
    for i, h in zip(rows, heads):
        print("row %d  degree %d" % (i, h.degree().as_int()))
    return 0


def _verdict(rep):
    return "PASS" if rep["summary"]["all_pass"] else "FAIL"


def counterexample_report():
    """Extension transfer failure on the order-48 double cover, supersolvable case."""
    G = catalog_group("2S4")
    F = Formation.parse("supersolvable")
    cs = canonical_series(G, F)
    K, L = cs.pairs[0]
    H = cs.projector
    theta = next(ch for ch in character_table(K).irr if ch.degree().as_int() == 2)
    phi = unique_invariant_below(theta, G, K, L, H)
    rep = extension_transfer_check(G, K, L, F, theta, phi)
    confirmed = (
        rep["theta_extensions"] > 0
        and rep["phi_extensions"] > 0
        and not rep["all_transfers_hold"]
    )
    inputs = {
        "residual_order": K.order(),
        "derived_order": L.order(),
        "theta_degree": theta.degree().as_int(),
        "phi_degree": phi.degree().as_int(),
    }
    return report(
        "extension-transfer-counterexample", G, F, [instance(inputs, confirmed, rep)],
        all_pass=confirmed, hypothesis=rep["hypothesis"],
    )


def _counterexample_lines():
    rep = counterexample_report()
    wit = rep["instances"][0]["witnesses"]
    line = (
        "counterexample-2S4 supersolvable: %s (theta extends %d ways, phi extends %d ways, transfers fail as asserted)"
        % (_verdict(rep), wit["theta_extensions"], wit["phi_extensions"])
    )
    return [line], rep["summary"]["all_pass"], rep


def _all_pass(reports):
    return all(rep["summary"]["all_pass"] for rep in reports)


def _counting_line(rep, label, F, i, n):
    wit = rep["instances"][0]["witnesses"]
    return "counting %s %s: %s (heads %d, projector abelianization %d)" % (
        label, F, _verdict(rep), wit["head_count"], wit["projector_abelianization"]
    )


def _thm54_line(rep, label, F, i, n):
    summary = rep["summary"]
    return "thm54 %s %s: %s (%d of %d irreducibles are heads)" % (
        label, F, _verdict(rep), summary["head_count"], summary["characters"]
    )


def _thm_b_line(rep, label, F, i, n):
    return "thm-b %s %s: %s (M order %d)" % (label, F, _verdict(rep), rep["summary"]["M_order"])


def _thm_a_line(rep, label, F, i, n):
    summary = rep["summary"]
    return "thm-a %s %s normal %d/%d (order %d): %s (%d/%d characters)" % (
        label, F, i + 1, n, summary["normal_order"], _verdict(rep),
        summary["passed"], summary["characters"],
    )


def _thm_c_line(rep, label, F, i, n):
    prime = rep["instances"][0]["inputs"]["prime"]
    return "thm-c %s p=%d: %s (K order %d)" % (
        label, prime, _verdict(rep), rep["summary"]["K_order"]
    )


def _once(G, option):
    return [None]


def _normals(G, words):
    """The subgroup generated by the --normal words, or every normal subgroup of a solvable G."""
    if words is None:
        require_solvable(G)
        return normal_subgroups(G)
    return [generate(G.degree, [w.strip() for w in words.split(";") if w.strip()])]


def _primes(G, prime):
    return [prime] if prime is not None else prime_divisors(G.order())


def _single(G, F, targets, reports):
    return reports[0]


def _merge_thm_a(G, F, normals, reports):
    instances = [inst for rep in reports for inst in rep["instances"]]
    return report(
        "A", G, F, instances,
        normals=len(normals), characters=len(instances), **tally(instances),
        hypothesis=reports[-1]["summary"]["hypothesis"],
    )


def _merge_thm_c(G, F, primes, reports):
    instances = [inst for rep in reports for inst in rep["instances"]]
    return report("C", G, None, instances, primes=list(primes), all_pass=_all_pass(reports))


class Check(NamedTuple):
    """A verifier run on one group: one report call per target, one line each."""

    report: Callable  # (G, F, target) -> report
    line: Callable  # (report, label, F, index, count) -> output line
    option: str | None = None  # the verify option that picks the targets
    targets: Callable = _once  # (G, option value) -> targets
    merge: Callable = _single  # (G, F, targets, reports) -> the --json report
    formation: bool = True  # whether the report reads the formation


# The report functions are looked up as module globals at call time, so that
# rebinding cli.<name>_report reaches both `verify <check>` and `verify all`.
CHECKS = {
    "counting": Check(lambda G, F, _: counting_report(G, F), _counting_line),
    "thm54": Check(lambda G, F, _: theorem_54_report(G, F), _thm54_line),
    "thm-b": Check(lambda G, F, _: theorem_b_report(G, F), _thm_b_line),
    "thm-a": Check(
        lambda G, F, N: theorem_a_report(G, F, N), _thm_a_line, "normal", _normals, _merge_thm_a
    ),
    "thm-c": Check(
        lambda G, F, p: theorem_c_report(G, p), _thm_c_line, "prime", _primes, _merge_thm_c, False
    ),
}


def _run_check(name, G, F, label, option=None):
    """Run one check on G: (output lines, pass, JSON report)."""
    check = CHECKS[name]
    targets = check.targets(G, option)
    reports = [check.report(G, F, target) for target in targets]
    lines = [check.line(rep, label, F, i, len(reports)) for i, rep in enumerate(reports)]
    return lines, _all_pass(reports), check.merge(G, F, targets, reports)


def _option_error(args):
    """The usage error for a verify option the target does not read, or None."""
    check = CHECKS.get(args.target)
    used = set()
    if check is not None:
        used.add(check.option)
        if check.formation:
            used.add("formation")
    for name in ("formation", "normal", "prime"):
        if getattr(args, name) is not None and name not in used:
            return "verify %s does not take --%s" % (args.target, name)
    if args.normal is not None and not any(w.strip() for w in args.normal.split(";")):
        return "--normal names no generators"
    return None


def _cmd_verify(args):
    target = args.target
    error = _option_error(args)
    if error is not None:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if target in ("counterexample-2S4", "all"):
        if args.group is not None:
            print("error: verify %s takes no group argument" % target, file=sys.stderr)
            return 2
    elif args.group is None:
        print("error: verify %s requires a group" % target, file=sys.stderr)
        return 2

    if target == "all":
        return _cmd_verify_all(args)
    if target == "counterexample-2S4":
        lines, ok, rep = _counterexample_lines()
    else:
        G = resolve_group(args.group)
        label = group_label(G, args.group)
        check = CHECKS[target]
        F = None
        if check.formation:
            F = Formation.parse("nilpotent" if args.formation is None else args.formation)
        option = check.option
        lines, ok, rep = _run_check(target, G, F, label, option and getattr(args, option))
        if not lines:  # thm-c on the trivial group
            lines = ["%s %s: no prime divisors, nothing to verify" % (target, label)]

    if args.json:
        _print_json(rep)
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def _cmd_verify_all(args):
    lines = []
    runs = []

    def record(check, label, formation, result):
        check_lines, ok, _ = result
        if check_lines:  # thm-c has nothing to run on the trivial group
            lines.extend(check_lines)
            runs.append({"check": check, "group": label, "formation": formation, "pass": ok})

    formations = [Formation.parse(name) for name in VERIFY_FORMATIONS]
    for entry in load_catalog():
        G = entry.build()
        label = entry.name
        for F in formations:
            for check in ("counting", "thm54", "thm-b", "thm-a"):
                record(check, label, str(F), _run_check(check, G, F, label))
        record("thm-c", label, None, _run_check("thm-c", G, None, label))
    record("counterexample-2S4", "2S4", "supersolvable", _counterexample_lines())

    passed = sum(1 for r in runs if r["pass"])
    ok_all = passed == len(runs)
    summary = "verify all: %d checks, %d passed, %s" % (
        len(runs),
        passed,
        "PASS" if ok_all else "FAIL",
    )
    if args.json:
        _print_json(
            {
                "runs": runs,
                "summary": {"checks": len(runs), "passed": passed, "all_pass": ok_all},
            }
        )
    else:
        for line in lines:
            print(line)
        print(summary)
    return 0 if ok_all else 1


def run_command(argv):
    """Parse argv, run the command, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "table":
            return _cmd_table(args)
        if args.command in ("projector", "residual"):
            return _cmd_subgroup(args, args.command)
        if args.command == "series":
            return _cmd_series(args)
        if args.command == "headchars":
            return _cmd_headchars(args)
        return _cmd_verify(args)
    except InternalInconsistencyError as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 1
    except FormataError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
