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
directory, which is the working directory of every command.
"""

import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from formata.catalog import catalog_names, load_catalog
from formata.cli import run_command

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
FORMATIONS = ("nilpotent", "supersolvable", "metanilpotent", "nilpotent-length:2", "p-nilpotent:2")


def write_product_files():
    """Group files of the ``tables`` workload's products in the working directory; their names."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    catalog = {e.name: (e.degree, e.words) for e in load_catalog()}
    names = []
    for label, (degree, words) in workloads.make_inputs("tables", 1, catalog).items():
        with open(label + ".grp", "w", encoding="utf-8") as fh:
            fh.write("degree %d\n%s\n" % (degree, "\n".join(words)))
        names.append(label + ".grp")
    return names


def commands(products):
    out = []
    for name in catalog_names():
        for formation in FORMATIONS:
            for form in ([], ["--json"]):
                opt = ["--formation", formation, *form]
                for check in ("counting", "thm54", "thm-b", "thm-a"):
                    out.append(["verify", check, name, *opt])
                for cmd in ("series", "headchars", "projector", "residual"):
                    out.append([cmd, name, *opt])
        out.append(["verify", "thm-c", name])
        out.append(["verify", "thm-c", name, "--json"])
        out.append(["table", name])
        out.append(["table", name, "--json"])
    for name in products:
        out.append(["table", name])
        out.append(["table", name, "--json"])
        for formation in FORMATIONS:
            out.append(["series", name, "--formation", formation, "--json"])
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
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        cmds = commands(write_product_files())
        order = range(len(cmds) - 1, -1, -1) if "--reverse" in sys.argv[1:] else range(len(cmds))
        results = {i: run(cmds[i]) for i in order}
    for i in range(len(cmds)):
        sys.stdout.write(results[i])


if __name__ == "__main__":
    main()
