"""In-memory span tracer that times formata's layers from outside.

Every instrumented function is replaced by a wrapper in each ``formata.*``
module that binds it (the package uses ``from .x import y``), and methods are
wrapped on their class.  Nothing under ``src/`` is edited.

A span has a name, a start, an end, the span that was open when it started,
and the id of the workload item it ran in.  Spans of coarse layers are kept as
records; spans of hot leaf layers (character inner products, restriction,
cyclotomic arithmetic, GF(q) kernels) are only aggregated, because there are
millions of them.  A span's self time is its duration minus the time covered
by its child spans.  Calls into a layer made while a span of the same layer is
already open (Cyclotomic.__sub__ calling __add__) are counted but not timed
again, so each layer's time is taken once at its outermost entry.
"""

import functools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  "Class.method" attributes are wrapped on the class.
RECORDED = (
    ("groups", "build_chain", "groups.chain"),
    ("groups", "normal_subgroups", "groups.normal_subgroups"),
    ("groups", "chief_series", "groups.chief_series"),
    ("groups", "h_composition_series", "groups.h_composition_series"),
    ("groups", "quotient", "groups.quotient"),
    ("catalog", "CatalogEntry.build", "catalog.build"),
    ("characters", "character_table", "characters.table"),
    ("characters", "_dixon_once", "characters.dixon"),
    ("characters", "_split_spaces", "characters.dixon.split"),
    ("characters", "_lift_character", "characters.dixon.lift"),
    ("characters", "CharacterTable.verify", "characters.table_verify"),
    ("formations", "residual", "formations.residual"),
    ("formations", "projector", "formations.projector"),
    ("headchars", "canonical_series", "headchars.canonical_series"),
    ("headchars", "_ascend", "headchars.ascend"),
    ("headchars", "fprime_descending_test", "headchars.descend"),
    ("headchars", "strong_series_for", "headchars.strong_series"),
    ("headchars", "counting_report", "headchars.report.counting"),
    ("headchars", "theorem_54_report", "headchars.report.thm54"),
    ("headchars", "theorem_a_report", "headchars.report.thm_a"),
    ("headchars", "theorem_b_report", "headchars.report.thm_b"),
    ("headchars", "theorem_c_report", "headchars.report.thm_c"),
    ("cli", "counterexample_report", "cli.counterexample"),
)

HOT = (
    ("characters", "ClassFunction.inner", "characters.inner"),
    ("characters", "ClassFunction.restrict", "characters.restrict"),
    ("characters", "ClassFunction.induce", "characters.induce"),
)

# Whole layers timed as one span name; every call counts toward "<layer>.ops.calls".
LAYERS = {
    "cyclotomic": (
        "cyclotomic",
        [
            "Cyclotomic." + m
            for m in (
                "rational", "zeta", "__add__", "__radd__", "__neg__", "__sub__",
                "__rsub__", "__mul__", "__rmul__", "__truediv__", "__pow__", "galois",
                "conjugate", "is_zero", "is_rational", "is_integer", "as_fraction",
                "as_int", "reduced", "__eq__", "__hash__", "sort_key", "__str__", "to_json",
            )
        ],
    ),
    "gfq": (
        "gfq",
        ["rref_mod", "nullspace_mod", "matmul_mod", "charpoly_mod", "poly_roots_mod"],
    ),
}

COUNTED = (
    ("perms", "Perm.__mul__", "perms.mul"),
    ("perms", "Perm.conj", "perms.conj"),
)


MAX_RECORDS = 200_000


def _resolve(modules, module, attr):
    """(owner, name, function) for 'f' or 'Class.method' in formata.<module>."""
    owner = modules["formata." + module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        raw = owner.__dict__[attr]
        return owner, attr, raw
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans, self times and counters for one traced pass, kept in memory."""

    def __init__(self):
        self.clock = time.perf_counter
        self.formata_modules = []
        self.stack = []  # frames: [name, start, child_time, record_index, owns_record]
        self.records = []  # [name, start, end, parent_record, item]
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.distinct = defaultdict(set)
        self.item = -1

    # -- spans ---------------------------------------------------------------

    def enter(self, name, record=True):
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        start = self.clock()
        idx, owns = parent, False
        if record:
            if len(self.records) < MAX_RECORDS:
                idx, owns = len(self.records), True
                self.records.append([name, start, None, parent, self.item])
            else:
                self.dropped += 1
        frame = [name, start, 0.0, idx, owns]
        stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        stack = self.stack
        stack.pop()
        name, start, child, idx, owns = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if stack:
            stack[-1][2] += dur
        if owns:
            self.records[idx][2] = end

    def absorb(self, seconds):
        """Count time spent outside formata (a calibration sample) as a child of the open span."""
        if self.stack:
            self.stack[-1][2] += seconds

    def span(self, name, fn, record=True):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def layer_span(self, name, fn):
        """Span that is timed only at the outermost entry into its layer."""
        stack, counters, enter, exit_ = self.stack, self.counters, self.enter, self.exit
        ops = name + ".ops.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[ops] += 1
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = enter(name, False)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, modules):
        """Wrap formata's layers; modules maps 'formata.x' to the module object."""
        self.formata_modules = [m for n, m in modules.items() if n == "formata" or n.startswith("formata.")]

        def rebind(owner, attr, raw, wrapper):
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                setattr(owner, attr, wrapper)
            else:
                self._rebind_function(raw, wrapper)

        def plain(raw):
            return raw.__func__ if isinstance(raw, staticmethod) else raw

        for specs, record in ((RECORDED, True), (HOT, False)):
            for module, attr, name in specs:
                owner, attr_name, raw = _resolve(modules, module, attr)
                rebind(owner, attr_name, raw, self.span(name, plain(raw), record))
        for module, (name, attrs) in LAYERS.items():
            for attr in attrs:
                owner, attr_name, raw = _resolve(modules, module, attr)
                rebind(owner, attr_name, raw, self.layer_span(name, plain(raw)))
        for module, attr, name in COUNTED:
            owner, attr_name, raw = _resolve(modules, module, attr)
            rebind(owner, attr_name, raw, self.counted(name + ".calls", raw))
        self._install_counters(modules)

    def _rebind_function(self, raw, wrapper):
        """Replace every formata module binding of raw (``from .x import y`` copies it)."""
        for mod in self.formata_modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapper)

    def _install_counters(self, modules):
        """Counters that need the call's arguments or result."""
        groups = modules["formata.groups"]
        characters = modules["formata.characters"]
        counters, distinct = self.counters, self.distinct

        # no span: closure time stays in the caller, as normal_subgroups' self time
        closure = groups.closure_elements

        @functools.wraps(closure)
        def closure_elements(*args, **kwargs):
            found = closure(*args, **kwargs)
            counters["groups.closure_elements.calls"] += 1
            counters["groups.closure_elements.elements"] += len(found)
            return found

        self._rebind_function(closure, closure_elements)

        classes = groups.PermGroup.conjugacy_classes
        timed_classes = self.span("groups.conjugacy_classes", classes)

        def conjugacy_classes(G):
            if G._classes is not None:
                return G._classes
            out = timed_classes(G)
            counters["groups.conjugacy_classes.builds"] += 1
            distinct["groups.conjugacy_classes"].add(_group_key(G))
            return out

        groups.PermGroup.conjugacy_classes = conjugacy_classes

        dixon = characters._dixon_once  # already the span wrapper

        @functools.wraps(dixon)
        def dixon_once(G, q):
            counters["characters.dixon.runs"] += 1
            distinct["characters.tables"].add(_group_key(G))
            return dixon(G, q)

        self._rebind_function(dixon, dixon_once)

    # -- results ----------------------------------------------------------------

    def metrics(self):
        """Flat name -> number map of every span and counter of the pass."""
        out = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".total_s"] = self.total_s[name]
        out.update(self.counters)
        for name, keys in self.distinct.items():
            out[name + ".distinct"] = len(keys)
        return out

    def entered(self):
        names = set(self.calls)
        names.update(n.rsplit(".", 1)[0] for n, v in self.counters.items() if v)
        return names

    def write(self, path, extra):
        """Write the span records and the aggregates as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "item"],
            "records": self.records,
            "dropped_records": self.dropped,
            "aggregates": self.metrics(),
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _group_key(G):
    """Identity of a group by its element set (classes are built on elements)."""
    return (G.degree, hash(tuple(p.images for p in G.elements())))
