"""Print the output of every formata command over the catalog, for byte-identity diffs.

Run from the repository root:

    PYTHONPATH=src python tools/output_sweep.py [--reverse] > sweep.txt

Each command runs through ``formata.cli.run_command`` in this one process, so
memos computed by one command are reused by later ones, as in ``verify all``.
For every command the sweep prints the command line, its exit code, its
stdout and its stderr.  ``--reverse`` runs the commands in reverse order but
prints them in the forward order, so two sweeps diff line by line; a
difference between the two orders shows output that depends on memo state.

Besides the catalog, the sweep tabulates the seven direct products of the
``tables`` benchmark workload (``perfbench/workloads.py``, seed 1), whose
exponents reach 84, and prints their canonical series, projector included, for
each formation: the projector recursion runs deeper there than on the catalog.
They are written as group files with stable names into a temporary working
directory, which is the working directory of every command.  The two products
of the ``ladder`` workload (seed 1) and the elementary abelian group C2^5,
which has 374 normal subgroups, are written the same way; for each of them
the sweep prints the canonical series, the head characters and ``verify
thm-b`` (text and JSON) for each formation, and ``verify thm-c`` for every
prime of the order.  On the two ``ladder`` products it also prints ``verify
thm-a`` (text and JSON) for each formation, over every normal subgroup: that
restricts each head character to each normal subgroup of tables larger than
the catalog's.  The wreath product S4 wr C2 (order 1152), the largest group
of the sweep, is written the same way, and the sweep prints its projector,
its canonical series and ``verify thm-b`` (text and JSON) for each
formation: under two of them Theorem B's M is trivial, so the heads of G are
checked against those of G/1, which is G itself.  It also prints ``verify
thm-c`` (text and JSON) on S4 wr C2 for p = 2, which takes the derived
subgroup of a Sylow 2-subgroup of order 128, and for p = 3.  ``verify thm54``
(text and JSON) runs for each formation on the two ``ladder`` products and on
S4 wr C2, so the strong series and the descending test look up extensions in
tables past the catalog, and ``verify thm-a`` (text and JSON) runs on S4 wr C2
under the nilpotent formation, whose Gallagher test (part (c)) reads a 20-row
table.  The sweep prints the
character table (text and JSON) of S4 wr C2 and of C6 x C6, whose 36 classes
outnumber the 13 elements of the field Dixon's method works in, so the split
of the class algebra goes past its generic rounds to single class matrices.  The residual and the
projector are also printed for one more descriptor per residual route
(``ROUTE_FORMATIONS``) on the catalog, the ``ladder`` products and C2^5, and
the residual alone on A5, where the routes must hold for a nonsolvable group
too.  ``verify thm-a`` runs on S4 and 2S4 (text and JSON) under
``nilpotent-length:1`` as well, the class of nilpotent groups under a second
descriptor.

A few commands print a subgroup that is all of a solvable G (a residual or
a projector equal to G, and ``verify thm-a --normal`` with N = G): they print
G's own generators, as every subgroup equal to its root is the root itself.

The sweep also runs the refusals: every command on a nonsolvable group file
(A5) and on a trivial one (degree 3, no generators), and the formation
commands with invalid descriptors, so their error lines are compared too.
It ends with the parser's own output: the top-level and every subcommand's
``--help``, and usage errors.  ``COLUMNS`` is set to 80 so that argparse wraps
the help text the same way on every terminal.
"""

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

from formata.catalog import catalog_names, load_catalog
from formata.cli import run_command

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
FORMATIONS = ("nilpotent", "supersolvable", "metanilpotent", "nilpotent-length:2", "p-nilpotent:2")
# one more descriptor per residual route: O^pi, O^p'(O^p) and gamma_inf iterated
ROUTE_FORMATIONS = (
    "p-groups:2", "p-groups:3", "pi-groups:2,3", "pi-groups:3,5",
    "p-nilpotent:3", "p-nilpotent:5", "nilpotent-length:3",
)
REFUSAL_FILES = {"A5.grp": "degree 5\n(0 1 2 3 4)\n(0 1 2)\n", "trivial.grp": "degree 3\n"}
C2_5 = ("C2^5.grp", "degree 10\n" + "".join("(%d %d)\n" % (i, i + 1) for i in range(0, 10, 2)))
S4_WR_C2 = ("S4wrC2.grp", "degree 8\n(0 1)\n(0 1 2 3)\n(4 5)\n(4 5 6 7)\n(0 4)(1 5)(2 6)(3 7)\n")
# 36 classes against the prime 13: Dixon's split runs past its generic rounds
C6_C6 = ("C6xC6.grp", "degree 12\n(0 1 2 3 4 5)\n(6 7 8 9 10 11)\n")
INVALID_FORMATIONS = ("p-groups:4", "pi-groups:", "nilpotent:3", "nilpotent-length:0")
ROOT_COMMANDS = (
    ["residual", "S4", "--formation", "pi-groups:3"],
    ["residual", "S3", "--formation", "p-groups:3"],
    ["projector", "S4", "--formation", "pi-groups:2,3"],
    ["verify", "thm-a", "S4", "--normal", "(0 1)(2 3);(0 2)(1 3)", "--json"],
    ["verify", "thm-a", "S4", "--normal", "(0 1 2 3);(0 1)", "--json"],
)
FORMATION_COMMANDS = (
    *(["verify", check] for check in ("counting", "thm54", "thm-b", "thm-a")),
    ["series"], ["headchars"], ["projector"], ["residual"],
)
SUBCOMMANDS = ("table", "projector", "residual", "series", "headchars", "verify")
USAGE_ERRORS = (
    [],
    ["frobnicate", "S4"],
    ["verify"],
    ["verify", "thm-b"],
    ["verify", "all", "S4"],
    ["verify", "counterexample-2S4", "S4"],
    ["table", "S4", "--formation", "nilpotent"],
    ["projector", "S4", "--prime", "2"],
)


def write_group_files():
    """The refusal files and the benchmark, C2^5, S4 wr C2 and C6 x C6 groups, in the working directory.

    Returns the names of the ``tables`` product files and of the ``ladder``
    product files.
    """
    for name, text in (*REFUSAL_FILES.items(), C2_5, S4_WR_C2, C6_C6):
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    catalog = {e.name: (e.degree, e.words) for e in load_catalog()}
    names = {}
    for workload in ("tables", "ladder"):
        names[workload] = []
        for label, (degree, words) in workloads.make_inputs(workload, 1, catalog).items():
            with open(label + ".grp", "w", encoding="utf-8") as fh:
                fh.write("degree %d\n%s\n" % (degree, "\n".join(words)))
            names[workload].append(label + ".grp")
    return names["tables"], names["ladder"]


def commands(products, ladder):
    lattice_groups = [*ladder, C2_5[0]]
    out = []
    for name in catalog_names():
        for formation in FORMATIONS:
            for form in ([], ["--json"]):
                for cmd in FORMATION_COMMANDS:
                    out.append([*cmd, name, "--formation", formation, *form])
        out.append(["verify", "thm-c", name])
        out.append(["verify", "thm-c", name, "--json"])
        out.append(["table", name])
        out.append(["table", name, "--json"])
    out.extend(ROOT_COMMANDS)
    # nilpotent length at most 1 is the class of nilpotent groups under another descriptor
    for name in ("S4", "2S4"):
        for form in ([], ["--json"]):
            out.append(["verify", "thm-a", name, "--formation", "nilpotent-length:1", *form])
    for name in products:
        out.append(["table", name])
        out.append(["table", name, "--json"])
        for formation in FORMATIONS:
            out.append(["series", name, "--formation", formation, "--json"])
    for name in lattice_groups:
        for formation in FORMATIONS:
            out.append(["series", name, "--formation", formation, "--json"])
            out.append(["headchars", name, "--formation", formation])
            for form in ([], ["--json"]):
                out.append(["verify", "thm-b", name, "--formation", formation, *form])
        out.append(["verify", "thm-c", name])
        out.append(["verify", "thm-c", name, "--json"])
    for name in ladder:
        for formation in FORMATIONS:
            for form in ([], ["--json"]):
                out.append(["verify", "thm-a", name, "--formation", formation, *form])
    for name in (*ladder, S4_WR_C2[0]):
        for formation in FORMATIONS:
            for form in ([], ["--json"]):
                out.append(["verify", "thm54", name, "--formation", formation, *form])
    # a 20-row table: Theorem A part (c), the Gallagher test, past the catalog
    for form in ([], ["--json"]):
        out.append(["verify", "thm-a", S4_WR_C2[0], "--formation", "nilpotent", *form])
    for name in (S4_WR_C2[0], C6_C6[0]):
        out.append(["table", name])
        out.append(["table", name, "--json"])
    for formation in FORMATIONS:
        out.append(["projector", S4_WR_C2[0], "--formation", formation])
        out.append(["series", S4_WR_C2[0], "--formation", formation, "--json"])
        for form in ([], ["--json"]):
            out.append(["verify", "thm-b", S4_WR_C2[0], "--formation", formation, *form])
    # a Sylow 2-subgroup of order 128, whose derived subgroup Theorem C takes
    for prime in ("2", "3"):
        for form in ([], ["--json"]):
            out.append(["verify", "thm-c", S4_WR_C2[0], "--prime", prime, *form])
    for formation in ROUTE_FORMATIONS:
        for name in (*catalog_names(), *lattice_groups):
            out.append(["residual", name, "--formation", formation])
            out.append(["projector", name, "--formation", formation])
        out.append(["residual", "A5.grp", "--formation", formation])
    for name in REFUSAL_FILES:
        for cmd in (["table"], *FORMATION_COMMANDS, ["verify", "thm-c"]):
            out.append([*cmd, name])
    for formation in INVALID_FORMATIONS:
        for cmd in FORMATION_COMMANDS:
            out.append([*cmd, "S4", "--formation", formation])
    out.append(["verify", "counterexample-2S4"])
    out.append(["verify", "counterexample-2S4", "--json"])
    out.append(["verify", "all"])
    out.append(["verify", "all", "--json"])
    out.append(["--help"])
    out.extend([name, "--help"] for name in SUBCOMMANDS)
    out.extend(USAGE_ERRORS)
    return out


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_command(argv)
    head = "$ formata %s\nexit %d\n" % (" ".join(argv), code)
    return head + stdout.getvalue() + stderr.getvalue()


def main():
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        cmds = commands(*write_group_files())
        order = range(len(cmds) - 1, -1, -1) if "--reverse" in sys.argv[1:] else range(len(cmds))
        results = {i: run(cmds[i]) for i in order}
    for i in range(len(cmds)):
        sys.stdout.write(results[i])


if __name__ == "__main__":
    main()
