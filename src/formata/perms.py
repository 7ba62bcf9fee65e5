"""Permutations of {0, ..., n-1} with cycle notation and the group file format."""

from __future__ import annotations

import math
import re
from operator import itemgetter

from .errors import CycleParseError, DomainError


class Perm:
    """Permutation stored as a tuple of images; p maps i to p.images[i].

    Products compose left to right: (p * q)(i) == q(p(i)).  Permutations are
    immutable, hashable, and totally ordered lexicographically on the image
    tuple, which fixes element order everywhere else in the package.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise DomainError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _make(cls, images):
        # fast path for internal construction, skips validation
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree):
        return cls._make(tuple(range(degree)))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DomainError("degree mismatch in permutation product")
        if len(a) < 2:
            # the identity is the only permutation, and itemgetter needs two indices to return a tuple
            return other
        return Perm._make(itemgetter(*a)(b))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._make(tuple(inv))

    def conj(self, g):
        """Return g^-1 * self * g."""
        gi, pi = g.images, self.images
        if len(gi) != len(pi):
            raise DomainError("degree mismatch in conjugation")
        out = [0] * len(pi)
        for i in range(len(pi)):
            out[gi[i]] = gi[pi[i]]
        return Perm._make(tuple(out))

    def commutator(self, other):
        """Return self^-1 * other^-1 * self * other."""
        return self.inverse() * other.inverse() * self * other

    def is_identity(self):
        img = self.images
        return all(img[i] == i for i in range(len(img)))

    def order(self):
        cycs = self.cycles()
        return math.lcm(*(len(c) for c in cycs)) if cycs else 1

    def cycles(self):
        """Nontrivial cycles, each starting at its least point, sorted by least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            seen[start] = True
            if self.images[start] == start:
                continue
            cyc = [start]
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __repr__(self):
        return f"Perm[{self.cycle_string()}]"

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __gt__(self, other):
        return self.images > other.images

    def __ge__(self, other):
        return self.images >= other.images

    def __hash__(self):
        return hash(self.images)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse cycle notation like '(0 1)(2 3)' into a Perm of the given degree."""
    text = text.strip()
    if not text:
        raise CycleParseError("empty cycle expression")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise CycleParseError(f"stray text outside cycles: {text!r}")
    images = list(range(degree))
    for body in _CYCLE_RE.findall(text):
        points = []
        for tok in body.replace(",", " ").split():
            try:
                pt = int(tok)
            except ValueError:
                raise CycleParseError(f"bad point {tok!r} in cycle ({body})") from None
            if not 0 <= pt < degree:
                raise CycleParseError(f"point {pt} out of range for degree {degree}")
            if pt in points:
                raise CycleParseError(f"repeated point {pt} in cycle ({body})")
            points.append(pt)
        if len(points) < 2:
            continue
        # compose this cycle on the right of what we have so far
        mapping = {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}
        images = [mapping.get(j, j) for j in images]
    return Perm(images)


def parse_group_text(text):
    """Parse the group file format: 'degree N' then one generator per line."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise CycleParseError(f"line {lineno}: expected 'degree N', got {line!r}")
            degree = int(m.group(1))
            if degree < 1:
                raise CycleParseError("degree must be at least 1")
            continue
        gens.append(parse_cycles(line, degree))
    if degree is None:
        raise CycleParseError("missing 'degree N' header line")
    return degree, gens


def format_group_text(degree, gens):
    """Canonical group file text; round-trips bit-exactly through parse_group_text."""
    lines = [f"degree {degree}"]
    lines.extend(g.cycle_string() for g in gens)
    return "\n".join(lines) + "\n"


def read_group_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CycleParseError(f"cannot read group file {path}: {exc}") from None
    return parse_group_text(text)
