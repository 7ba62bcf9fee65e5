"""The names perfbench reaches into formata by must keep resolving.

perfbench/spans.py wraps functions and methods by module and attribute name,
and perfbench/workloads.py rebinds the cli report functions; a rename or a
deletion there makes the benchmark crash, even where nothing in src/ calls
the name.  The file is only read here, never changed.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from _products import direct_product
from formata import characters, formations, groups
from formata.catalog import catalog_group, load_catalog
from formata.cyclotomic import Cyclotomic
from formata.formations import Formation
from formata.groups import PermGroup, generate
from formata.headchars import theorem_54_report

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CLI_REPORTS = (
    "counting_report",
    "theorem_54_report",
    "theorem_b_report",
    "theorem_a_report",
    "theorem_c_report",
    "counterexample_report",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attributes(spans):
    for specs in (spans.RECORDED, spans.HOT, spans.COUNTED):
        for module, attr, _ in specs:
            yield module, attr
    for module, (_, attrs) in spans.LAYERS.items():
        for attr in attrs:
            yield module, attr
    # wrapped by Tracer._install_counters
    yield "groups", "closure_elements"
    yield "groups", "PermGroup.conjugacy_classes"
    yield "characters", "_dixon_once"


def test_every_traced_attribute_resolves():
    spans = load_spans()
    modules = {}
    for module, attr in traced_attributes(spans):
        name = "formata." + module
        modules[name] = importlib.import_module(name)
        _, _, raw = spans._resolve(modules, module, attr)
        assert callable(getattr(raw, "__func__", raw)), (module, attr)


def test_cli_reports_are_module_globals():
    cli = importlib.import_module("formata.cli")
    for name in CLI_REPORTS:
        assert callable(vars(cli)[name]), name


def test_conjugacy_class_cache_attribute():
    # the tracer reads G._classes to count only real class computations
    G = PermGroup(3)
    assert G._classes is None
    G.conjugacy_classes()
    assert G._classes is not None


def test_character_table_reaches_the_traced_layers(monkeypatch):
    # the `tables` and `verify_catalog` traces expect these spans to be entered
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        characters, "_lift_character", counting("lift", characters._lift_character)
    )
    for owner, attr in (
        (characters.CharacterTable, "verify"),
        (characters.ClassFunction, "inner"),
    ):
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    for attr in (a.split(".", 1)[1] for a in load_spans().LAYERS["cyclotomic"][1]):
        raw = Cyclotomic.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(counting("cyclotomic", raw.__func__))
        else:
            wrapped = counting("cyclotomic", raw)
        monkeypatch.setattr(Cyclotomic, attr, wrapped)
    s4 = generate(4, ["(0 1)", "(0 1 2 3)"])
    assert characters.character_table(s4).degrees() == [1, 1, 2, 3, 3]
    assert calls["lift"] == 1  # one batched lift per table
    assert calls["verify"] == 1
    assert calls["inner"] >= 15
    assert calls["cyclotomic"] > 0


def count_module_calls(monkeypatch, names, owner=groups):
    """Count calls to owner.<name> through every formata module's binding.

    The tracer wraps a function the same way, so a call that reaches the
    function only through another name is not seen by either.
    """
    calls = Counter()
    for name in names:
        raw = getattr(owner, name)

        def counting(*args, _name=name, _raw=raw, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "formata" and vars(mod).get(name) is raw:
                monkeypatch.setattr(mod, name, counting)
    return calls


def fresh_2s4():
    entry = next(e for e in load_catalog() if e.name == "2S4")
    return generate(entry.degree, entry.words)


def test_ladder_calls_reach_closure_and_lattice(monkeypatch):
    # the `ladder` and `verify_catalog` traces expect groups.closure_elements
    # and groups.normal_subgroups to be entered; on `ladder` the lattice is
    # entered only by the set-up's 2S4 check, through its supersolvable residual
    calls = count_module_calls(monkeypatch, ("closure_elements", "normal_subgroups"))
    s4 = generate(4, ["(0 1)", "(0 1 2 3)"])
    v4 = s4.derived_subgroup().derived_subgroup()
    assert v4.order() == 4
    assert calls["closure_elements"] > 0
    calls.clear()
    d8 = generate(4, ["(0 1 2 3)", "(0 2)"])
    assert groups.subgroup_product(v4, d8).order() == 8
    assert calls["closure_elements"] > 0
    calls.clear()
    assert theorem_54_report(s4, Formation.parse("nilpotent"))["summary"]["all_pass"]
    assert calls["closure_elements"] > 0
    assert calls["normal_subgroups"] == 0
    calls.clear()
    assert formations.residual(fresh_2s4(), Formation.parse("supersolvable")).order() == 8
    assert calls["normal_subgroups"] > 0


def test_fresh_group_reaches_closure_and_lattice_after_warm_memos(monkeypatch):
    # memos live on each root group, so results computed on the catalog's S4
    # must not answer for a freshly generated S4 with the same elements
    words = ["(0 1)", "(0 1 2 3)"]
    warm = catalog_group("S4")
    warm_v4 = warm.derived_subgroup().derived_subgroup()
    warm_d8 = groups.sylow(warm, 2)
    assert groups.subgroup_product(warm_v4, warm_d8).order() == 8
    assert theorem_54_report(warm, Formation.parse("nilpotent"))["summary"]["all_pass"]
    warm_support = groups.class_support(warm)
    calls = count_module_calls(monkeypatch, ("closure_elements", "normal_subgroups"))
    s4 = generate(4, words)
    assert s4._class_support is None  # the class support is computed anew, not shared
    v4 = s4.derived_subgroup().derived_subgroup()  # a closure on s4's own class support
    assert s4._class_support is not None and s4._class_support is not warm_support
    assert groups.class_support(warm) is warm_support
    d8 = groups.sylow(s4, 2)
    assert v4.element_set() == warm_v4.element_set() and v4 is not warm_v4
    calls.clear()
    assert groups.subgroup_product(v4, d8).order() == 8
    assert calls["closure_elements"] > 0
    calls.clear()
    assert theorem_54_report(s4, Formation.parse("nilpotent"))["summary"]["all_pass"]
    assert calls["closure_elements"] > 0
    assert calls["normal_subgroups"] == 0 and s4._normals is None
    # the lattice, where a result still lists it, is the fresh group's own too
    G = fresh_2s4()
    assert formations.residual(G, Formation.parse("supersolvable")).order() == 8
    assert calls["normal_subgroups"] > 0 and G._normals is not None


def test_residual_and_mask_searches_build_no_quotient(monkeypatch):
    # membership of G/N is read off G's lattice: a quotient call here would
    # put the residual's cost back under the groups.quotient span
    G = direct_product(catalog_group("S4"), catalog_group("S3"))
    F = Formation.parse("supersolvable")
    H = formations.projector(G, F)
    calls = count_module_calls(monkeypatch, ("quotient",))
    for desc in ("nilpotent", "supersolvable", "metanilpotent", "nilpotent-length:2", "p-nilpotent:2"):
        formations._residual(G, Formation.parse(desc))
    K = formations.residual(G, F)
    assert formations._navarro(G, K, K.derived_subgroup(), H)
    assert formations.fitting_subgroup(G).order() == 12
    assert formations.nilpotent_length(G) == 3
    assert calls["quotient"] == 0


def test_thm54_on_s4_x_s3_enters_the_ladder_spans(monkeypatch):
    # EXPECTED_SPANS["ladder"] needs these entered through the names the
    # tracer wraps; quotient is reached only through the projector recursion
    calls = count_module_calls(monkeypatch, ("quotient", "chief_series", "h_composition_series"))
    residual_calls = count_module_calls(monkeypatch, ("residual",), owner=formations)
    G = direct_product(catalog_group("S4"), catalog_group("S3"))
    assert theorem_54_report(G, Formation.parse("nilpotent"))["summary"]["all_pass"]
    for name in ("quotient", "chief_series", "h_composition_series"):
        assert calls[name] > 0, name
    assert residual_calls["residual"] > 0
