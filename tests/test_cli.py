"""Command-line interface tests."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import formata
import formata.cli as cli
from formata import catalog, characters, groups
from formata.catalog import catalog_group, load_catalog
from formata.cli import run_command
from formata.errors import CycleParseError
from formata.perms import read_group_file
from test_bench_contract import count_module_calls


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "S4")
    assert code == 0
    assert "group S4  order 24  degree 4  classes 5" in out
    assert out.count("X.") == 5


def test_table_json_schema(capsys):
    code, out, _ = run(capsys, "table", "S4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24
    assert len(payload["classes"]) == 5
    assert len(payload["irreducibles"]) == 5
    first = payload["irreducibles"][0]["values"][0]
    assert "conductor" in first and "coeffs" in first


def test_projector_and_residual(capsys):
    code, out, _ = run(capsys, "projector", "S4", "--formation", "nilpotent")
    assert code == 0
    assert "order 8" in out
    code, out, _ = run(capsys, "residual", "S4", "--formation", "supersolvable")
    assert code == 0
    assert "order 4" in out


def test_projector_json(capsys):
    code, out, _ = run(capsys, "projector", "S4", "--formation", "supersolvable", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["projector"]["order"] == 6
    assert payload["formation"] == "supersolvable"


def test_series_text_and_json(capsys):
    code, out, _ = run(capsys, "series", "S4", "--formation", "nilpotent")
    assert code == 0
    assert "length m=1" in out
    assert "K0 order 12, L0 order 4" in out
    code, out, _ = run(capsys, "series", "2S4", "--formation", "nilpotent", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 1
    assert payload["pairs"][0]["K_order"] == 24
    assert payload["pairs"][0]["L_order"] == 8


def test_headchars_lists_four(capsys):
    code, out, _ = run(capsys, "headchars", "S4", "--formation", "nilpotent")
    assert code == 0
    assert "4 of 5 irreducibles" in out
    code, out, _ = run(capsys, "headchars", "S4", "--formation", "nilpotent", "--json")
    payload = json.loads(out)
    assert payload["count"] == 4
    assert sorted(c["degree"] for c in payload["characters"]) == [1, 1, 3, 3]


def test_verify_thm_b(capsys):
    code, out, _ = run(capsys, "verify", "thm-b", "S4", "--formation", "nilpotent")
    assert code == 0
    assert "PASS (M order 1)" in out


def test_verify_thm_c(capsys):
    code, out, _ = run(capsys, "verify", "thm-c", "S4", "--prime", "3")
    assert code == 0
    assert "PASS (K order 4)" in out
    code, out, _ = run(capsys, "verify", "thm-c", "S4")
    assert code == 0
    assert "p=2" in out and "p=3" in out


def test_verify_thm_c_trivial_group(capsys):
    code, out, _ = run(capsys, "verify", "thm-c", "C1")
    assert code == 0
    assert out == "thm-c C1: no prime divisors, nothing to verify\n"
    code, out, _ = run(capsys, "verify", "thm-c", "C1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "C"
    assert payload["instances"] == []
    assert payload["summary"] == {"primes": [], "all_pass": True}


def test_verify_thm54(capsys):
    code, out, _ = run(capsys, "verify", "thm54", "S4", "--formation", "supersolvable")
    assert code == 0
    assert "2 of 5 irreducibles are heads" in out


def test_verify_counting(capsys):
    code, out, _ = run(capsys, "verify", "counting", "S4")
    assert code == 0
    assert "heads 4" in out


def test_verify_thm_a_explicit_normal(capsys):
    code, out, _ = run(
        capsys, "verify", "thm-a", "S4", "--normal", "(0 1)(2 3);(0 2)(1 3)"
    )
    assert code == 0
    assert "(order 4)" in out
    assert "PASS (4/4 characters)" in out


def test_verify_thm_a_sweeps_all_normals(capsys):
    code, out, _ = run(capsys, "verify", "thm-a", "S4")
    assert code == 0
    assert out.count("thm-a") == 4


def test_verify_thm_a_normal_all_of_g_is_the_lattice_instance(capsys, monkeypatch):
    # N = S4 given by --normal is interned under S4's root, so it reports the
    # instance of the lattice sweep and its table is S4's own
    monkeypatch.setattr(catalog._BY_NAME["s4"], "_group", None)
    runs = Counter()
    raw = characters._dixon_once

    def counting(G, q):
        runs[G.element_set()] += 1
        return raw(G, q)

    monkeypatch.setattr(characters, "_dixon_once", counting)
    code, out, _ = run(capsys, "verify", "thm-a", "S4", "--normal", "(0 1 2 3);(0 1)", "--json")
    assert code == 0
    single = json.loads(out)["instances"]
    code, out, _ = run(capsys, "verify", "thm-a", "S4", "--json")
    assert code == 0
    swept = json.loads(out)["instances"]
    assert single == [inst for inst in swept if inst["inputs"]["normal"] == ["(0 1 2 3)", "(0 1)"]]
    assert len(single) == 4
    assert runs[catalog_group("S4").element_set()] == 1


def test_verify_thm_a_normal_outside_g_exit_2(capsys):
    code, out, err = run(capsys, "verify", "thm-a", "A4", "--normal", "(0 1)")
    assert code == 2 and out == ""
    assert err == "error: subgroup generator outside the group\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv",
    [["verify", check, "S4"] for check in ("counting", "thm54", "thm-b", "thm-a", "thm-c")]
    + [["verify", "counterexample-2S4"]],
    ids=lambda argv: argv[1],
)
def test_verify_json_matches_golden_report(capsys, argv):
    # whole reports byte for byte, key order included
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == (GOLDEN / ("_".join(argv) + ".json")).read_text()


def test_verify_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "counterexample-2S4")
    assert code == 0
    assert "PASS" in out
    assert "transfers fail" in out


def test_verify_counterexample_json(capsys):
    code, out, _ = run(capsys, "verify", "counterexample-2S4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["all_pass"]
    assert not payload["summary"]["hypothesis"]["met"]
    wit = payload["instances"][0]["witnesses"]
    assert wit["theta_extensions"] == 2
    assert wit["phi_extensions"] == 2
    assert not wit["all_transfers_hold"]


def test_group_file_ingestion(capsys, tmp_path):
    path = tmp_path / "sym4.grp"
    path.write_text("# symmetric group on four points\ndegree 4\n\n(0 1)\n(0 1 2 3)\n")
    code, out, _ = run(capsys, "table", str(path))
    assert code == 0
    assert "order 24" in out
    code, out, _ = run(capsys, "verify", "counting", str(path))
    assert code == 0
    assert "PASS" in out


def test_unknown_group_exit_2(capsys):
    code, _, err = run(capsys, "table", "M11")
    assert code == 2
    assert "unknown group" in err


def test_bad_formation_exit_2(capsys):
    code, _, err = run(capsys, "headchars", "S4", "--formation", "frobenius")
    assert code == 2


def test_bad_prime_exit_2(capsys):
    code, _, err = run(capsys, "verify", "thm-c", "S4", "--prime", "4")
    assert code == 2


def run_process(*argv, **env):
    """Run the CLI in a fresh process, so no group built by earlier tests is reused."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(formata.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "formata.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_bad_order_cap_exit_2():
    proc = run_process("table", "S4", FORMATA_MAX_ORDER="abc")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: FORMATA_MAX_ORDER must be a positive integer, got 'abc'\n"


def test_nonsolvable_group_file_exit_2(tmp_path):
    path = tmp_path / "sym5.grp"
    path.write_text("degree 5\n(0 1)\n(0 1 2 3 4)\n")
    proc = run_process("headchars", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: canonical series needs a solvable group\n"


@pytest.mark.parametrize("check", list(cli.CHECKS))
def test_every_check_refuses_a_nonsolvable_group_before_its_lattice(capsys, monkeypatch, tmp_path, check):
    # the lattice of a nonsolvable group such as A5 x C2^6 takes minutes; the
    # solvability test is the derived series, closures on the class support,
    # which is built at most once, and no character table is computed
    path = tmp_path / "alt5.grp"
    path.write_text("degree 5\n(0 1 2 3 4)\n(0 1 2)\n")
    calls = count_module_calls(monkeypatch, ("normal_subgroups", "class_support"))
    tables = count_module_calls(monkeypatch, ("character_table",), owner=characters)
    code, out, err = run(capsys, "verify", check, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls["normal_subgroups"] == 0
    assert calls["class_support"] <= 1
    assert tables["character_table"] == 0


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ("p-groups:4", "p-groups needs a single prime parameter"),
        ("p-nilpotent:4", "p-nilpotent needs a single prime parameter"),
        ("pi-groups:", "pi-groups needs a nonempty set of primes"),
        ("pi-groups:2,4", "pi-groups needs a nonempty set of primes"),
        ("nilpotent-length:0", "nilpotent-length needs a positive bound"),
        ("nilpotent:3", "nilpotent takes no parameters"),
    ],
)
def test_formation_errors_name_the_descriptor(capsys, descriptor, message):
    code, out, err = run(capsys, "projector", "S4", "--formation", descriptor)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_over_cap_group_file_exit_2(tmp_path):
    path = tmp_path / "sym8.grp"
    path.write_text("degree 8\n(0 1)\n(0 1 2 3 4 5 6 7)\n")
    proc = run_process("table", str(path), FORMATA_MAX_ORDER="5000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: group order exceeds cap 5000\n"


@pytest.mark.parametrize("n", [40, 60])
def test_symmetric_group_file_is_refused_before_its_chain(capsys, monkeypatch, tmp_path, n):
    # S_n's stabilizer chain takes minutes at n = 40; the capped closure stops at 5000 elements
    path = tmp_path / ("sym%d.grp" % n)
    path.write_text("degree %d\n(0 1)\n(%s)\n" % (n, " ".join(map(str, range(n)))))
    monkeypatch.setenv("FORMATA_MAX_ORDER", "5000")
    monkeypatch.setattr(groups, "build_chain", None)  # any chain would fail loudly
    start = time.perf_counter()
    code, out, err = run(capsys, "table", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: group order exceeds cap 5000\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        ["projector"],
        ["residual"],
        ["series"],
        ["headchars"],
        *(["verify", name] for name, check in cli.CHECKS.items() if check.group),
    ],
    ids=" ".join,
)
def test_every_command_refuses_an_over_cap_group_first(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "sym8.grp"
    path.write_text("degree 8\n(0 1)\n(0 1 2 3 4 5 6 7)\n")
    monkeypatch.setenv("FORMATA_MAX_ORDER", "5000")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", "error: group order exceeds cap 5000\n")


def test_group_file_not_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.grp"
    path.write_bytes(b"# gr\xfcppe\ndegree 4\n(0 1)\n")
    code, out, err = run(capsys, "table", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read group file") and err.count("\n") == 1


def test_unreadable_group_file_is_a_parse_error(tmp_path):
    with pytest.raises(CycleParseError):
        read_group_file(tmp_path / "missing.grp")


def test_usage_errors_exit_2(capsys):
    assert run_command([]) == 2
    assert run_command(["frobnicate", "S4"]) == 2
    assert run_command(["verify", "thm-b"]) == 2
    assert run_command(["verify", "counterexample-2S4", "S4"]) == 2
    assert run_command(["verify", "all", "S4"]) == 2
    assert run_command(["table", "S4", "--formation", "nilpotent"]) == 2
    assert run_command(["projector", "S4", "--normal", "(0 1)"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm-b", "S4", "--prime", "3"],
        ["verify", "counting", "S4", "--prime", "2"],
        ["verify", "thm54", "S4", "--normal", "(0 1)(2 3)"],
        ["verify", "thm-c", "S4", "--normal", "(0 1)(2 3)"],
        ["verify", "thm-a", "S4", "--prime", "2"],
        ["verify", "thm-c", "S4", "--formation", "nilpotent"],
        ["verify", "counterexample-2S4", "--formation", "supersolvable"],
        ["verify", "all", "--formation", "nilpotent"],
        ["verify", "all", "--prime", "2"],
        ["verify", "all", "--normal", "(0 1)"],
        ["verify", "thm-a", "S4", "--normal", ";"],
        ["verify", "thm-a", "S4", "--normal", ""],
        ["verify", "thm-a", "S4", "--normal", " ; "],
    ],
)
def test_unused_or_empty_verify_options_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exit_0(capsys):
    assert run_command(["--help"]) == 0
    capsys.readouterr()


def failing_thm_b_report(G, F):
    return {
        "theorem": "B",
        "group": {},
        "formation": str(F),
        "instances": [],
        "summary": {"all_pass": False, "M_order": 0},
    }


def test_verification_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "theorem_b_report", failing_thm_b_report)
    code, out, _ = run(capsys, "verify", "thm-b", "S4")
    assert code == 1
    assert "FAIL" in out


def test_repeated_invocations_identical(capsys):
    _, first, _ = run(capsys, "headchars", "2S4", "--formation", "supersolvable")
    _, second, _ = run(capsys, "headchars", "2S4", "--formation", "supersolvable")
    assert first == second


# -- verify all against the single checks, on a two-group catalog -------------

SMALL_CATALOG = ("D8", "S4")
FORMATION_CHECKS = ("counting", "thm54", "thm-b", "thm-a")


@pytest.fixture
def small_catalog(monkeypatch):
    """verify all over D8 and S4 only: 35 checks in place of 391."""
    entries = [e for e in load_catalog() if e.name in SMALL_CATALOG]
    monkeypatch.setattr(cli, "load_catalog", lambda: entries)
    return [e.name for e in entries]


def expected_runs(names):
    """(check, group, formation) of each verify all run, in output order."""
    runs = []
    for name in names:
        for formation in cli.VERIFY_FORMATIONS:
            runs.extend((check, name, formation) for check in FORMATION_CHECKS)
        runs.append(("thm-c", name, None))
    runs.append(("counterexample-2S4", "2S4", "supersolvable"))
    return runs


def test_verify_all_lines_match_single_checks(capsys, small_catalog):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    expected = []
    for check, name, formation in expected_runs(small_catalog):
        argv = ["verify", check]
        if check != "counterexample-2S4":
            argv.append(name)
        if check in FORMATION_CHECKS:
            argv += ["--formation", formation]
        single_code, single, _ = run(capsys, *argv)
        assert single_code == 0, argv
        expected.extend(single.splitlines())
    expected.append("verify all: 35 checks, 35 passed, PASS")
    assert out.splitlines() == expected


def test_verify_all_json(capsys, small_catalog):
    code, out, _ = run(capsys, "verify", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"checks": 35, "passed": 35, "all_pass": True}
    assert payload["runs"] == [
        {"check": check, "group": name, "formation": formation, "pass": True}
        for check, name, formation in expected_runs(small_catalog)
    ]


def test_verify_all_failure_exit_1(capsys, monkeypatch, small_catalog):
    monkeypatch.setattr(cli, "theorem_b_report", failing_thm_b_report)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines[:-1] if "FAIL" in line]
    assert len(failed) == 8
    assert all(line.startswith("thm-b ") and line.endswith(": FAIL (M order 0)") for line in failed)
    assert lines[-1] == "verify all: 35 checks, 27 passed, FAIL"


def test_one_check_row_reaches_every_verify_path(capsys, monkeypatch, small_catalog):
    def dummy_report(G, F, _):
        return {"summary": {"all_pass": True}}

    def dummy_line(rep, label, F, i, n):
        return "%s %s: dummy" % (label, F)

    monkeypatch.setitem(cli.CHECKS, "dummy", cli.Check(dummy_report, dummy_line))
    assert run(capsys, "verify", "dummy", "S4") == (0, "dummy S4 nilpotent: dummy\n", "")
    code, out, err = run(capsys, "verify", "dummy", "S4", "--prime", "2")
    assert (code, out, err) == (2, "", "error: verify dummy does not take --prime\n")

    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("dummy ")] == [
        "dummy %s %s: dummy" % (name, formation)
        for name in small_catalog
        for formation in cli.VERIFY_FORMATIONS
    ]
    # in table order: after thm-a, before the next formation's rows
    at = lines.index("dummy S4 nilpotent: dummy")
    assert lines[at - 1].startswith("thm-a S4 nilpotent ")
    assert lines[at + 1].startswith("counting S4 supersolvable:")
    assert lines[-1] == "verify all: 43 checks, 43 passed, PASS"
