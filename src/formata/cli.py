"""Command-line interface wiring tables, projectors, series, and verifiers.

Two tables define the commands.  COMMANDS has one row per command on one
group: its help text, whether it reads --formation, and the function giving
its JSON payload or its text lines.  CHECKS has one row per `verify` target:
its report call, its output line, the option that picks its targets, the
merge of its reports into one --json report, whether it reads the formation,
and whether it runs on a given group.  The parser, the verify option checks
and `verify all` read these rows; `verify all` is the one target that is not
a row.
"""

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .catalog import catalog_group, catalog_names, load_catalog
from .characters import character_table
from .errors import CapacityError, CatalogIntegrityError, FormataError, InternalInconsistencyError
from .formations import Formation, projector, require_solvable, residual
from .groups import PermGroup, closure_elements, normal_subgroups, order_cap, prime_divisors
from .headchars import (
    _row_of,
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
from .perms import parse_cycles, read_group_file

VERIFY_FORMATIONS = ("nilpotent", "supersolvable", "metanilpotent", "nilpotent-length:2")


def resolve_group(token):
    """A catalog name (case-insensitive) or a path to a group file.

    A group over the order cap is refused here, before any command
    enumerates it: a catalog group by its order, a group file by a closure
    of its generators that stops past the cap, before any stabilizer chain
    is built (the order of a group that large is never computed).
    """
    lowered = token.lower()
    if lowered in {n.lower() for n in catalog_names()}:
        G = catalog_group(token)
    elif os.path.isfile(token):
        degree, gens = read_group_file(token)
        try:
            closure_elements(degree, gens, cap=order_cap())
        except CapacityError:
            raise CapacityError(f"group order exceeds cap {order_cap()}") from None
        G = PermGroup(degree, gens)
    else:
        raise CatalogIntegrityError("unknown group %r: not a catalog name and not a file" % token)
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
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("group", help="catalog name or group file")
        if command.formation:
            sp.add_argument("--formation", default="nilpotent")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", help="run a theorem verifier")
    sp.add_argument("target", choices=[*CHECKS, "all"])
    sp.add_argument("group", nargs="?", help="catalog name or group file")
    sp.add_argument("--formation", help="formation of the check (default nilpotent)")
    sp.add_argument("--normal", help="generators of a normal subgroup, separated by ';'")
    sp.add_argument("--prime", type=int)
    sp.add_argument("--json", action="store_true")
    return parser


def _print(as_json, payload, lines):
    print(json.dumps(payload, indent=2) if as_json else "\n".join(lines))


def _table_output(G, F, label, as_json):
    table = character_table(G)
    if as_json:
        return table.to_json()
    classes = G.conjugacy_classes()
    rows = [["sizes:"] + [str(c.size) for c in classes]]
    rows.append(["orders:"] + [str(c.rep.order()) for c in classes])
    for i, chi in enumerate(table.irr):
        rows.append(["X.%d" % i] + [str(v) for v in chi.values])
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    head = "group %s  order %d  degree %d  classes %d" % (label, G.order(), G.degree, len(classes))
    return [head] + ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows]


def _subgroup_output(which, build):
    """The output of the command that prints the subgroup build(G, F), named which."""

    def output(G, F, label, as_json):
        U = build(G, F)
        gens = [g.cycle_string() for g in U.generators]
        if as_json:
            subgroup = {"order": U.order(), "generators": gens}
            return {"group": G.to_json(), "formation": str(F), which: subgroup}
        text = "; ".join(gens) or "()"
        return ["%s of %s for %s: order %d, generators %s" % (which, label, F, U.order(), text)]

    return output


def _series_output(G, F, label, as_json):
    cs = canonical_series(G, F)
    if as_json:
        return cs.to_json()
    return [
        "canonical series of %s for %s: length m=%d" % (label, F, cs.m),
        "projector order %d" % cs.projector.order(),
        *(
            "K%d order %d, L%d order %d" % (i, K.order(), i, L.order())
            for i, (K, L) in enumerate(cs.pairs)
        ),
        "levels: %s" % " > ".join(str(cs.level(i).order()) for i in range(cs.m + 1)),
    ]


def _headchars_output(G, F, label, as_json):
    heads = fprime_ascending(G, F)
    table = character_table(G)
    rows = [_row_of(table, h) for h in heads]
    if as_json:
        return {
            "group": G.to_json(),
            "formation": str(F),
            "count": len(heads),
            "characters": [{"row": i, "degree": h.degree().as_int()} for i, h in zip(rows, heads)],
        }
    return [
        "head characters of %s for %s: %d of %d irreducibles" % (label, F, len(heads), len(table.irr)),
        *("row %d  degree %d" % (i, h.degree().as_int()) for i, h in zip(rows, heads)),
    ]


class Command(NamedTuple):
    """A command on one group, printing one JSON payload or lines of text."""

    help: str
    output: Callable  # (G, F, label, as_json) -> JSON payload, or the output lines
    formation: bool = True  # whether the command reads --formation


# The formation functions are looked up as module globals at call time.
COMMANDS = {
    "table": Command("print the character table", _table_output, False),
    "projector": Command(
        "print a projector for the formation",
        _subgroup_output("projector", lambda G, F: projector(G, F)),
    ),
    "residual": Command(
        "print the formation residual", _subgroup_output("residual", lambda G, F: residual(G, F))
    ),
    "series": Command("print the canonical series", _series_output),
    "headchars": Command("list the head characters", _headchars_output),
}


def _run_command_on_group(command, args):
    G = resolve_group(args.group)
    F = Formation.parse(args.formation) if command.formation else None
    out = command.output(G, F, group_label(G, args.group), args.json)
    _print(args.json, out, out)
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


def _all_pass(reports):
    return all(rep["summary"]["all_pass"] for rep in reports)


def _counting_line(rep, label, F, i, n):
    wit = rep["instances"][0]["witnesses"]
    return "%s %s: %s (heads %d, projector abelianization %d)" % (
        label, F, _verdict(rep), wit["head_count"], wit["projector_abelianization"]
    )


def _thm54_line(rep, label, F, i, n):
    summary = rep["summary"]
    return "%s %s: %s (%d of %d irreducibles are heads)" % (
        label, F, _verdict(rep), summary["head_count"], summary["characters"]
    )


def _thm_b_line(rep, label, F, i, n):
    return "%s %s: %s (M order %d)" % (label, F, _verdict(rep), rep["summary"]["M_order"])


def _thm_a_line(rep, label, F, i, n):
    summary = rep["summary"]
    return "%s %s normal %d/%d (order %d): %s (%d/%d characters)" % (
        label, F, i + 1, n, summary["normal_order"], _verdict(rep),
        summary["passed"], summary["characters"],
    )


def _thm_c_line(rep, label, F, i, n):
    prime = rep["instances"][0]["inputs"]["prime"]
    return "%s p=%d: %s (K order %d)" % (label, prime, _verdict(rep), rep["summary"]["K_order"])


def _counterexample_line(rep, label, F, i, n):
    wit = rep["instances"][0]["witnesses"]
    return "%s: %s (theta extends %d ways, phi extends %d ways, transfers fail as asserted)" % (
        rep["formation"], _verdict(rep), wit["theta_extensions"], wit["phi_extensions"]
    )


def _once(G, option):
    return [None]


def _normals(G, words):
    """The subgroup of G generated by the --normal words, or every normal subgroup of a solvable G."""
    if words is None:
        require_solvable(G)
        return normal_subgroups(G)
    return [G.subgroup([parse_cycles(w, G.degree) for w in words.split(";") if w.strip()])]


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
    """A verifier: one report call per target, one line each."""

    report: Callable  # (G, F, target) -> report
    line: Callable  # (report, label, F, index, count) -> output line after the check name
    option: str | None = None  # the verify option that picks the targets
    targets: Callable = _once  # (G, option value) -> targets
    merge: Callable = _single  # (G, F, targets, reports) -> the --json report
    formation: bool = True  # whether the report reads the formation
    group: bool = True  # whether the check runs on a given group; if not, its report names its own


# The report functions are looked up as module globals at call time, so that
# rebinding cli.<name>_report reaches both `verify <check>` and `verify all`.
# `verify all` runs the checks in this order: on each catalog group, the rows
# that read a formation once per VERIFY_FORMATIONS entry, then the other group
# rows; after the last group, the rows without a group.
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
    "counterexample-2S4": Check(
        lambda G, F, _: counterexample_report(), _counterexample_line, formation=False, group=False
    ),
}


def _run_check(name, G, F, label, option=None):
    """Run one check: (output lines, pass, JSON report)."""
    check = CHECKS[name]
    targets = check.targets(G, option)
    reports = [check.report(G, F, target) for target in targets]
    lines = [
        "%s %s" % (name, check.line(rep, label, F, i, len(reports)))
        for i, rep in enumerate(reports)
    ]
    return lines, _all_pass(reports), check.merge(G, F, targets, reports)


def _usage_error(args):
    """The usage error of a verify command line, or None."""
    check = CHECKS.get(args.target)  # None for all
    used = set() if check is None else {check.option, "formation" if check.formation else None}
    for name in ("formation", "normal", "prime"):
        if getattr(args, name) is not None and name not in used:
            return "verify %s does not take --%s" % (args.target, name)
    if args.normal is not None and not any(w.strip() for w in args.normal.split(";")):
        return "--normal names no generators"
    takes_group = check is not None and check.group
    if args.group is not None and not takes_group:
        return "verify %s takes no group argument" % args.target
    if args.group is None and takes_group:
        return "verify %s requires a group" % args.target
    return None


def _cmd_verify(args):
    error = _usage_error(args)
    if error is not None:
        print("error: %s" % error, file=sys.stderr)
        return 2
    check = CHECKS.get(args.target)
    if check is None:
        return _cmd_verify_all(args)
    G = F = label = None
    if check.group:
        G = resolve_group(args.group)
        label = group_label(G, args.group)
    if check.formation:
        F = Formation.parse("nilpotent" if args.formation is None else args.formation)
    option = check.option and getattr(args, check.option)
    lines, ok, rep = _run_check(args.target, G, F, label, option)
    if not lines:  # no targets: no prime divides the order of the trivial group
        lines = ["%s %s: no prime divisors, nothing to verify" % (args.target, label)]
    _print(args.json, rep, lines)
    return 0 if ok else 1


def _cmd_verify_all(args):
    lines, runs = [], []

    def record(name, G, F, label):
        check_lines, ok, rep = _run_check(name, G, F, label)
        if check_lines:  # a check with no targets, as on the trivial group, is not a run
            lines.extend(check_lines)
            formation = None if F is None else str(F)
            if G is None:
                label, formation = rep["group"]["name"], rep["formation"]
            runs.append({"check": name, "group": label, "formation": formation, "pass": ok})

    formations = [Formation.parse(name) for name in VERIFY_FORMATIONS]
    for entry in load_catalog():
        G = entry.build()
        for F in formations:
            for name, check in CHECKS.items():
                if check.group and check.formation:
                    record(name, G, F, entry.name)
        for name, check in CHECKS.items():
            if check.group and not check.formation:
                record(name, G, None, entry.name)
    for name, check in CHECKS.items():
        if not check.group:
            record(name, None, None, None)

    passed = sum(1 for r in runs if r["pass"])
    ok_all = passed == len(runs)
    summary = {"checks": len(runs), "passed": passed, "all_pass": ok_all}
    verdict = "PASS" if ok_all else "FAIL"
    lines.append("verify all: %d checks, %d passed, %s" % (len(runs), passed, verdict))
    _print(args.json, {"runs": runs, "summary": summary}, lines)
    return 0 if ok_all else 1


def run_command(argv):
    """Parse argv, run the command, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = COMMANDS.get(args.command)
    try:
        if command is None:
            return _cmd_verify(args)
        return _run_command_on_group(command, args)
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
