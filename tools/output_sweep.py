"""Print the output of every formata command over the catalog, for byte-identity diffs.

Run from the repository root:

    PYTHONPATH=src python tools/output_sweep.py [--reverse] > sweep.txt

Each command runs through ``formata.cli.run_command`` in this one process, so
memos computed by one command are reused by later ones, as in ``verify all``.
For every command the sweep prints the command line, its exit code, its
stdout and its stderr.  ``--reverse`` runs the commands in reverse order but
prints them in the forward order, so two sweeps diff line by line; a
difference between the two orders shows output that depends on memo state.
"""

import contextlib
import io
import sys

from formata.catalog import catalog_names
from formata.cli import run_command

FORMATIONS = ("nilpotent", "supersolvable", "metanilpotent", "nilpotent-length:2", "p-nilpotent:2")


def commands():
    out = []
    for name in catalog_names():
        for formation in FORMATIONS:
            opt = ["--formation", formation, "--json"]
            for check in ("counting", "thm54", "thm-b", "thm-a"):
                out.append(["verify", check, name, *opt])
            for cmd in ("series", "headchars", "projector", "residual"):
                out.append([cmd, name, *opt])
        out.append(["verify", "thm-c", name, "--json"])
        out.append(["table", name])
        out.append(["table", name, "--json"])
    out.append(["verify", "counterexample-2S4"])
    out.append(["verify", "counterexample-2S4", "--json"])
    out.append(["verify", "all"])
    out.append(["verify", "all", "--json"])
    return out


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_command(argv)
    head = "$ formata %s\nexit %d\n" % (" ".join(argv), code)
    return head + stdout.getvalue() + stderr.getvalue()


def main():
    cmds = commands()
    order = range(len(cmds) - 1, -1, -1) if "--reverse" in sys.argv[1:] else range(len(cmds))
    results = {i: run(cmds[i]) for i in order}
    for i in range(len(cmds)):
        sys.stdout.write(results[i])


if __name__ == "__main__":
    main()
