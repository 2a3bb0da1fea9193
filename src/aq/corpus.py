"""Fixed and seeded example inventories consumed by the check suites.

Everything here is deterministic: the fixed corpus is literal, and the
random families derive from hard-coded seeds, never from the clock or the
environment.  Expected verdicts in the fixed corpus were worked out by
hand from the classical Jacobian and regular-sequence criteria; the
classifiers must reproduce them exactly.

Each public builder of cases builds them once per process for each set
of arguments, on its first call, and every call shares that build: the
suites and sessions of one process then read the same algebras and maps,
and whatever those keep about themselves (a Groebner basis, a truncation,
a classification's certificate) is computed once.  Each call returns a
fresh list of fresh case dicts, so a caller may reorder the list or
replace a key of a case.  The values inside a case (algebras, maps,
points, expected verdicts) are shared and read-only.  The uncached build
is `builder.__wrapped__`, for a caller that needs objects nobody has
used yet.
"""

from __future__ import annotations

import functools
import random

from .fields import GF, QQ
from .poly import PolyRing, Polynomial
from .rings import AlgebraMap, PresentedAlgebra


def ground(field) -> PresentedAlgebra:
    return PresentedAlgebra(PolyRing(field, ()), [])


def algebra(field, variables, relations=()) -> PresentedAlgebra:
    return PresentedAlgebra(PolyRing(field, tuple(variables)), list(relations))


def inclusion_from_ground(target: PresentedAlgebra) -> AlgebraMap:
    return AlgebraMap(ground(target.field), target, {})


def canonical_surjection(target: PresentedAlgebra) -> AlgebraMap:
    ambient = PresentedAlgebra(target.ring, [])
    return AlgebraMap(ambient, target, {})


def _built_once(builder):
    """Build `builder`'s cases once per process for each set of arguments
    and hand out a fresh list of fresh case dicts over them.

    Every parameter of a builder has a default and none is keyword-only,
    so a call binds to one tuple of values, defaults filled in, and calls
    that bind to the same values share one build: `random_surjections()`,
    `random_surjections(25)` and `random_surjections(seed=1105)` do.  An
    argument the builder does not take raises `TypeError`."""
    code = builder.__code__
    names = code.co_varnames[:code.co_argcount]
    defaults = dict(zip(names, builder.__defaults__ or ()))
    build = functools.cache(builder)

    @functools.wraps(builder)
    def shared(*args, **kwargs):
        values = args + tuple(kwargs.pop(name, defaults[name])
                              for name in names[len(args):])
        if len(args) > len(names) or kwargs:
            raise TypeError(f"{builder.__name__}() takes ({', '.join(names)}): "
                            f"cannot bind {len(args)} positional arguments "
                            f"and the keywords {sorted(kwargs)}")
        return [dict(case) for case in build(*values)]
    return shared


# -- the fixed classifier corpus -------------------------------------------------


@_built_once
def classifier_corpus() -> list[dict]:
    """Twenty instances with hand-derived verdicts.

    Each entry: name, property, subject (a map for pointwise properties,
    an algebra for ring properties), points, and the expected verdict at
    each point in order.
    """
    F5 = GF(5)
    cusp = algebra(QQ, ("x", "y"), ["x^3 - y^2"])
    node = algebra(QQ, ("x", "y"), ["x*y"])
    fat = algebra(QQ, ("x", "y"), ["x^2", "x*y", "y^2"])
    circle = algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    two_planes = algebra(QQ, ("x", "y", "z"), ["x*y", "x*z"])
    split_quad = algebra(QQ, ("x",), ["x^2 - 1"])
    dbl = algebra(QQ, ("x",), ["x^2"])
    line = algebra(QQ, ("x",), [])
    plane = algebra(QQ, ("x", "y"), [])
    f5_pair = algebra(F5, ("x",), ["x^2 - 4"])
    f5_base = algebra(F5, ("t",), [])
    f5_insep = algebra(F5, ("t", "x"), ["x^5 - t"])

    o2 = {"x": 0, "y": 0}
    return [
        {"name": "affine-line", "property": "smooth",
         "subject": inclusion_from_ground(line),
         "points": [{"x": 0}, {"x": 2}], "expected": [True, True]},
        {"name": "affine-plane", "property": "smooth",
         "subject": inclusion_from_ground(plane),
         "points": [o2], "expected": [True]},
        {"name": "cusp-smooth", "property": "smooth",
         "subject": inclusion_from_ground(cusp),
         "points": [o2, {"x": 1, "y": 1}], "expected": [False, True]},
        {"name": "node-smooth", "property": "smooth",
         "subject": inclusion_from_ground(node),
         "points": [o2, {"x": 1, "y": 0}], "expected": [False, True]},
        {"name": "circle-smooth", "property": "smooth",
         "subject": inclusion_from_ground(circle),
         "points": [{"x": 1, "y": 0}, {"x": 0, "y": -1},
                    {"x": "3/5", "y": "4/5"}],
         "expected": [True, True, True]},
        {"name": "insep-tower-smooth", "property": "smooth",
         "subject": AlgebraMap(f5_base, f5_insep, {}),
         "points": [{"t": 1, "x": 1}], "expected": [False]},
        {"name": "split-quadric-unramified", "property": "unramified",
         "subject": inclusion_from_ground(split_quad),
         "points": [{"x": 1}, {"x": -1}], "expected": [True, True]},
        {"name": "double-point-unramified", "property": "unramified",
         "subject": inclusion_from_ground(dbl),
         "points": [{"x": 0}], "expected": [False]},
        {"name": "line-unramified", "property": "unramified",
         "subject": inclusion_from_ground(line),
         "points": [{"x": 0}], "expected": [False]},
        {"name": "split-quadric-etale", "property": "etale",
         "subject": inclusion_from_ground(split_quad),
         "points": [{"x": 1}], "expected": [True]},
        {"name": "double-point-etale", "property": "etale",
         "subject": inclusion_from_ground(dbl),
         "points": [{"x": 0}], "expected": [False]},
        {"name": "f5-split-etale", "property": "etale",
         "subject": inclusion_from_ground(f5_pair),
         "points": [{"x": 2}, {"x": 3}], "expected": [True, True]},
        {"name": "cusp-lci", "property": "lci",
         "subject": inclusion_from_ground(cusp),
         "points": [o2, {"x": 1, "y": 1}], "expected": [True, True]},
        {"name": "fat-point-lci", "property": "lci",
         "subject": inclusion_from_ground(fat),
         "points": [o2], "expected": [False]},
        {"name": "fat-point-lci-surjection", "property": "lci",
         "subject": canonical_surjection(fat),
         "points": [o2], "expected": [False]},
        {"name": "two-planes-lci", "property": "lci",
         "subject": inclusion_from_ground(two_planes),
         "points": [{"x": 0, "y": 0, "z": 0}, {"x": 0, "y": 1, "z": 1}],
         "expected": [False, True]},
        {"name": "cusp-regular", "property": "regular",
         "subject": cusp,
         "points": [o2, {"x": 1, "y": 1}], "expected": [False, True]},
        {"name": "plane-regular", "property": "regular",
         "subject": plane, "points": [o2], "expected": [True]},
        {"name": "fat-point-ci", "property": "ci",
         "subject": fat, "points": [o2], "expected": [False]},
        {"name": "cusp-ci", "property": "ci",
         "subject": cusp, "points": [o2, {"x": 1, "y": 1}],
         "expected": [True, True]},
    ]


# -- seeded random families -------------------------------------------------------


def _random_poly(rng: random.Random, ring: PolyRing,
                 max_degree: int = 3, max_terms: int = 4) -> Polynomial:
    n = ring.nvars
    field = ring.field
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(n)] += 1
        bound = field.characteristic - 1 if field.characteristic else 3
        c = rng.randint(-bound if not field.characteristic else 1, bound)
        key = tuple(e)
        terms[key] = terms.get(key, 0) + c
    return ring.from_terms({e: field.from_int(c) for e, c in terms.items()})


def _random_point(rng: random.Random, ring: PolyRing) -> dict:
    field = ring.field
    if field.characteristic:
        return {v: rng.randrange(field.characteristic) for v in ring.variables}
    return {v: rng.randint(-2, 2) for v in ring.variables}


def _distinct_points(rng: random.Random, ring: PolyRing) -> tuple[dict, dict]:
    while True:
        q1, q2 = _random_point(rng, ring), _random_point(rng, ring)
        if any(q1[v] != q2[v] for v in ring.variables):
            return q1, q2


def _forced_vanishing(p: Polynomial, q1: dict, q2: dict) -> Polynomial:
    """Subtract an affine-linear correction so the result dies at both points."""
    ring = p.ring
    field = ring.field
    pt1 = {v: field.from_int(q1[v]) for v in ring.variables}
    pt2 = {v: field.from_int(q2[v]) for v in ring.variables}
    v1, v2 = p.evaluate(pt1), p.evaluate(pt2)
    pivot = next(v for v in ring.variables if pt1[v] != pt2[v])
    ell = (ring.var(pivot) - ring.const(pt1[pivot])).scale(
        field.inv(field.sub(pt2[pivot], pt1[pivot])))
    return p - ring.const(v1) - ell.scale(field.sub(v2, v1))


@_built_once
def random_surjections(count: int = 25, seed: int = 1105) -> list[dict]:
    """Surjections k[x..]/0 -> k[x..]/I with two marked rational points.

    At most 3 variables and 3 relations of degree <= 3; the relations are
    forced to vanish at both points, so the points stay on the variety.
    """
    rng = random.Random(seed)
    fields = [QQ, QQ, QQ, GF(5), GF(7)]
    names = ("x", "y", "z")
    out = []
    while len(out) < count:
        field = fields[len(out) % len(fields)]
        nvars = rng.randint(1, 3)
        ring = PolyRing(field, names[:nvars])
        q1, q2 = _distinct_points(rng, ring)
        rels = []
        for _ in range(rng.randint(1, 3)):
            f = _forced_vanishing(_random_poly(rng, ring), q1, q2)
            if not f.is_zero() and not f.is_constant():
                rels.append(f)
        if not rels:
            continue
        target = PresentedAlgebra(ring, rels)
        out.append({
            "name": f"surjection-{len(out)}",
            "map": canonical_surjection(target),
            "points": [q1, q2],
        })
    return out


@_built_once
def random_base_extensions(count: int = 25, seed: int = 2207) -> list[dict]:
    """Mixed maps for the differentials cross-check: surjections, ground
    inclusions, and base extensions, each with two marked points."""
    rng = random.Random(seed)
    out = []
    surj = random_surjections.__wrapped__(count, seed=seed + 1)
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            entry = surj[len(out)]
            out.append({"name": f"mixed-{len(out)}", "map": entry["map"],
                        "points": entry["points"]})
            continue
        field = QQ if len(out) % 2 else GF(5)
        if kind == 1:
            nvars = rng.randint(1, 3)
            ring = PolyRing(field, ("x", "y", "z")[:nvars])
            q1, q2 = _distinct_points(rng, ring)
            f = _forced_vanishing(_random_poly(rng, ring), q1, q2)
            if f.is_zero() or f.is_constant():
                continue
            target = PresentedAlgebra(ring, [f])
            out.append({"name": f"mixed-{len(out)}",
                        "map": inclusion_from_ground(target),
                        "points": [q1, q2]})
            continue
        # base extension k[t] -> k[t, y]/(f)
        ring = PolyRing(field, ("t", "y"))
        base = PresentedAlgebra(PolyRing(field, ("t",)), [])
        q1, q2 = _distinct_points(rng, ring)
        f = _forced_vanishing(_random_poly(rng, ring), q1, q2)
        if f.is_zero() or f.is_constant():
            continue
        target = PresentedAlgebra(ring, [f])
        out.append({"name": f"mixed-{len(out)}",
                    "map": AlgebraMap(base, target, {}),
                    "points": [q1, q2]})
    return out


# -- fixed analytic families ------------------------------------------------------


@_built_once
def regular_sequence_instances() -> list[dict]:
    """Ten sequences that are regular in their ambient polynomial rings."""
    plane = algebra(QQ, ("x", "y"))
    space = algebra(QQ, ("x", "y", "z"))
    lineq = algebra(QQ, ("x",))
    f5pl = algebra(GF(5), ("x", "y"))
    return [
        {"name": "one-var", "algebra": lineq, "elements": ["x"]},
        {"name": "coordinates-2", "algebra": plane, "elements": ["x", "y"]},
        {"name": "coordinates-3", "algebra": space,
         "elements": ["x", "y", "z"]},
        {"name": "powers", "algebra": plane, "elements": ["x^2", "y^3"]},
        {"name": "shifted", "algebra": plane,
         "elements": ["x - 1", "y - 2"]},
        {"name": "circle-element", "algebra": plane,
         "elements": ["x^2 + y^2 - 1"]},
        {"name": "twisted", "algebra": space,
         "elements": ["x^2 - y", "y^2 - z"]},
        {"name": "mixed-linear", "algebra": space,
         "elements": ["x + y + z", "x - y", "z^2"]},
        {"name": "hyperbola", "algebra": plane, "elements": ["x*y - 1"]},
        {"name": "f5-coordinates", "algebra": f5pl, "elements": ["x", "y"]},
    ]


@_built_once
def non_regular_sequence_instances() -> list[dict]:
    """Five sequences with a zerodivisor step (nonzero quotient)."""
    plane = algebra(QQ, ("x", "y"))
    space = algebra(QQ, ("x", "y", "z"))
    lineq = algebra(QQ, ("x",))
    return [
        {"name": "repeat", "algebra": lineq, "elements": ["x", "x"]},
        {"name": "two-planes", "algebra": space,
         "elements": ["x*y", "x*z"]},
        {"name": "multiple", "algebra": plane, "elements": ["x", "x*y"]},
        {"name": "split-then-factor", "algebra": lineq,
         "elements": ["x^2 - x", "x"]},
        {"name": "dependent-linear", "algebra": plane,
         "elements": ["x", "y", "x + y"]},
    ]


@_built_once
def hypersurface_instances() -> list[dict]:
    """Ten nonzerodivisors in polynomial rings (criterion: Sigma-S shape)."""
    return [
        {"name": "line-x", "algebra": algebra(QQ, ("x",)), "element": "x"},
        {"name": "line-square", "algebra": algebra(QQ, ("x",)),
         "element": "x^2"},
        {"name": "line-cubic", "algebra": algebra(QQ, ("x",)),
         "element": "x^3 - 1"},
        {"name": "plane-sum", "algebra": algebra(QQ, ("x", "y")),
         "element": "x^2 + y^2"},
        {"name": "hyperbola", "algebra": algebra(QQ, ("x", "y")),
         "element": "x*y - 1"},
        {"name": "cusp-element", "algebra": algebra(QQ, ("x", "y")),
         "element": "x^3 - y^2"},
        {"name": "diagonal", "algebra": algebra(QQ, ("x", "y")),
         "element": "x + y"},
        {"name": "f5-artin-schreier", "algebra": algebra(GF(5), ("x",)),
         "element": "x^5 - x + 1"},
        {"name": "f5-parabola", "algebra": algebra(GF(5), ("x", "y")),
         "element": "x^2 - y"},
        {"name": "qt-quadric", "algebra": algebra(QQ, ("t",)),
         "element": "t^2 + 1"},
    ]


@_built_once
def polynomial_extension_instances() -> list[dict]:
    """Ten maps R -> R[Y] with |Y| <= 3 over QQ, GF(5), and QQ[t]."""
    F5 = GF(5)
    out = []

    def entry(name, field, base_vars, new_vars, point):
        base = algebra(field, base_vars)
        target = algebra(field, tuple(base_vars) + tuple(new_vars))
        out.append({"name": name, "map": AlgebraMap(base, target, {}),
                    "adjoined": len(new_vars), "points": [point]})

    entry("q-line", QQ, (), ("x",), {"x": 0})
    entry("q-plane", QQ, (), ("x", "y"), {"x": 1, "y": -1})
    entry("q-space", QQ, (), ("x", "y", "z"), {"x": 0, "y": 2, "z": 1})
    entry("q-line-b", QQ, (), ("w",), {"w": 3})
    entry("f5-line", F5, (), ("u",), {"u": 0})
    entry("f5-plane", F5, (), ("u", "v"), {"u": 1, "v": 4})
    entry("f5-space", F5, (), ("u", "v", "w"), {"u": 2, "v": 0, "w": 3})
    entry("qt-line", QQ, ("t",), ("x",), {"t": 0, "x": 1})
    entry("qt-plane", QQ, ("t",), ("x", "y"), {"t": 2, "x": 0, "y": 0})
    entry("qt-space", QQ, ("t",), ("x", "y", "z"),
          {"t": 1, "x": 1, "y": 1, "z": 1})
    return out


@_built_once
def hkr_instances() -> list[dict]:
    """Five flat instances over a ground field, mixing smooth and singular."""
    cusp = algebra(QQ, ("x", "y"), ["x^3 - y^2"])
    node = algebra(QQ, ("x", "y"), ["x*y"])
    return [
        {"name": "line", "map": inclusion_from_ground(algebra(QQ, ("x",))),
         "points": [{"x": 0}, {"x": 2}]},
        {"name": "plane",
         "map": inclusion_from_ground(algebra(QQ, ("x", "y"))),
         "points": [{"x": 0, "y": 0}]},
        {"name": "double-point",
         "map": inclusion_from_ground(algebra(QQ, ("x",), ["x^2"])),
         "points": [{"x": 0}]},
        {"name": "node", "map": inclusion_from_ground(node),
         "points": [{"x": 0, "y": 0}, {"x": 1, "y": 0}]},
        {"name": "cusp", "map": inclusion_from_ground(cusp),
         "points": [{"x": 0, "y": 0}, {"x": 1, "y": 1}]},
    ]


@_built_once
def jacobi_zariski_instances() -> list[dict]:
    """Composable pairs with a marked point on the top algebra."""
    plane = algebra(QQ, ("x", "y"))
    cusp = PresentedAlgebra(plane.ring, ["x^3 - y^2"])
    lineq = algebra(QQ, ("x",))
    dbl = PresentedAlgebra(lineq.ring, ["x^2"])
    return [
        {"name": "cusp-tower",
         "first": inclusion_from_ground(plane),
         "second": AlgebraMap(plane, cusp, {}),
         "point": {"x": 0, "y": 0}},
        {"name": "double-point-tower",
         "first": inclusion_from_ground(lineq),
         "second": AlgebraMap(lineq, dbl, {}),
         "point": {"x": 0}},
        {"name": "smooth-tower",
         "first": inclusion_from_ground(lineq),
         "second": AlgebraMap(lineq, plane, {"x": "x"}),
         "point": {"x": 1, "y": 2}},
    ]
