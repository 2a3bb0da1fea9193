"""Decision procedures: smooth, unramified, etale, lci, regular local,
complete intersection, the diagonal smoothness criterion, and imperfection.

Each verdict is a pure function of homology dimensions at a rational point
and travels with an independently computed oracle value; a primary/oracle
disagreement is a hard error, never a warning.  Global claims are labeled
"certified" only when a module-level vanishing (coefficients in the target
itself) backs them, otherwise "sampled-only".
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from . import linalg
from .cotangent import CotangentError, cotangent_trunc2
from .groebner import ideal_groebner, poly_normal_form
from .kahler import jacobian_matrix, kahler_oracle_via_diagonal, kahler_presentation
from .modules import (FPModule, evaluate_matrix, koszul_complex,
                      koszul_homology_all_vanish, matrix_columns)
from .orders import MonomialOrder
from .poly import Polynomial, PolyRing, fresh_names
from .rings import AlgebraError, AlgebraMap, PresentedAlgebra


class ClassifyError(AlgebraError):
    pass


# -- point plumbing ---------------------------------------------------------


def _require_rational(algebra: PresentedAlgebra, point: dict) -> dict:
    try:
        pt = algebra.parse_point(point)
    except AlgebraError as exc:
        msg = str(exc)
        if "not a rational point" not in msg:
            msg = f"not a rational point: {msg}"
        raise ClassifyError(msg) from None
    return pt


def _with_order(phi: AlgebraMap, name: str) -> AlgebraMap:
    """The same map with both presentations re-sorted under another order."""
    order = MonomialOrder(name)
    src = phi.source.with_order(order)
    tgt = phi.target.with_order(order)
    images = {v: phi.images[v].rename_into(tgt.ring)
              for v in phi.source.variables}
    return AlgebraMap(src, tgt, images)


# -- localized vanishing -----------------------------------------------------


def _vanishes_locally(module: FPModule, point: dict) -> bool:
    """M localized at the point is zero: every generator is killed by
    something invertible there."""
    if module.gens == 0:
        return True
    algebra = module.algebra
    pt = algebra.parse_point(point)
    field = algebra.field
    for i in range(module.gens):
        ann = module.annihilator_of_generator(i)
        if not any(not field.is_zero(a.evaluate(pt)) for a in ann):
            return False
    return True


# -- smooth / unramified / etale ----------------------------------------------


def is_smooth_at(phi: AlgebraMap, point: dict) -> dict:
    """Degree-1 homology vanishes at the point.

    Oracle: the Jacobian rank at the point equals the number of local
    relation generators, with every ingredient recomputed under lex.
    """
    pt = _require_rational(phi.target, point)
    trunc = cotangent_trunc2(phi)
    aq1 = trunc.homology_dim(1, pt)
    aq2 = trunc.homology_dim(2, pt)
    primary = aq1 == 0

    alt = _with_order(phi, "lex")
    stage = cotangent_trunc2(alt).provenance["stages"]
    rp = stage.rp
    alt_pt = rp.transport_point(pt)
    field = rp.algebra.field
    jac = jacobian_matrix(rp)
    rank_j = linalg.rank(field, evaluate_matrix(jac, alt_pt))
    m = len(stage.generators)
    d2 = evaluate_matrix(stage.syzygy_vectors, alt_pt)
    local_gens = m - linalg.rank(field, d2)
    oracle = rank_j == local_gens

    if primary != oracle:
        raise ClassifyError(
            f"smoothness oracle disagreement at {point}: homology says "
            f"{primary}, Jacobian rank criterion says {oracle}")
    return {"verdict": primary, "aq1": aq1, "aq2": aq2,
            "oracle": {"jacobian_rank": rank_j,
                       "local_generators": local_gens, "agrees": True}}


def is_unramified_at(phi: AlgebraMap, point: dict) -> dict:
    """The differentials vanish at the point (their fiber is degree-0
    homology); the diagonal construction is the oracle."""
    pt = _require_rational(phi.target, point)
    kd = kahler_presentation(phi)
    dim = kd.dim_at_point(pt)
    primary = dim == 0
    oracle_mod, _ = kahler_oracle_via_diagonal(phi)
    odim = oracle_mod.dim_at_point(kd.presentation.transport_point(pt))
    if dim != odim:
        raise ClassifyError(
            f"differentials oracle disagreement at {point}: Jacobian "
            f"presentation gives {dim}, diagonal gives {odim}")
    return {"verdict": primary, "aq0": dim,
            "oracle": {"diagonal_dim": odim, "agrees": True}}


def is_etale_at(phi: AlgebraMap, point: dict) -> dict:
    smooth = is_smooth_at(phi, point)
    unram = is_unramified_at(phi, point)
    return {"verdict": smooth["verdict"] and unram["verdict"],
            "smooth": smooth, "unramified": unram}


# -- lci ------------------------------------------------------------------------


def _spanning_subsets(m: int, eliminated, field, size: int):
    """Size-`size` subsets of the m generators whose images, together with
    the eliminated columns, span the full fiber k^m."""
    units = linalg.unit_vectors(field.zero(), field.one(), m)
    for subset in combinations(range(m), size):
        cols = [units[i] for i in subset]
        if linalg.rank(field, cols + eliminated) == m:
            yield subset


def _regular_sequence_oracle(stage, point: dict, limit: int = 5):
    """Search the relation generators for a local regular sequence.

    Returns True/False, or None when there are too many generators to
    search.  A candidate subset must span the relation fiber (Nakayama:
    then it generates the relation ideal locally) and have first Koszul
    homology vanishing after localization at the point.
    """
    P = stage.base
    fs = stage.generators
    m = len(fs)
    if m > limit:
        return None
    field = P.field
    pt = P.parse_point(point)
    d2 = evaluate_matrix(stage.syzygy_vectors, pt)
    mu = m - linalg.rank(field, d2)
    if mu == 0:
        return True
    for subset in _spanning_subsets(m, d2, field, mu):
        seq = [fs[i] for i in subset]
        h1 = koszul_complex(P, seq).homology(1)
        if _vanishes_locally(h1, pt):
            return True
    return False


def is_lci_at(phi: AlgebraMap, point: dict) -> dict:
    """Degree-2 homology vanishes at the point.

    Oracle: an explicit regular-sequence search among the relation
    generators, with depth measured by localized Koszul homology.
    """
    pt = _require_rational(phi.target, point)
    trunc = cotangent_trunc2(phi)
    aq1 = trunc.homology_dim(1, pt)
    aq2 = trunc.homology_dim(2, pt)
    primary = aq2 == 0
    stage = trunc.provenance["stages"]
    oracle = _regular_sequence_oracle(stage, trunc.transport_point(pt))
    if oracle is not None and oracle != primary:
        raise ClassifyError(
            f"lci oracle disagreement at {point}: homology says {primary}, "
            f"regular-sequence search says {oracle}")
    return {"verdict": primary, "aq1": aq1, "aq2": aq2,
            "oracle": None if oracle is None else
            {"regular_sequence_found": oracle, "agrees": True}}


# -- regular local rings and complete intersections -------------------------------


def residue_surjection(R: PresentedAlgebra, point: dict) -> AlgebraMap:
    """R onto the residue field of a rational point."""
    pt = _require_rational(R, point)
    ring = R.ring
    extra = [ring.var(v) - ring.const(pt[v]) for v in R.variables]
    target = PresentedAlgebra(ring, list(R.relations) + extra)
    return AlgebraMap(R, target, {})


def is_regular_local(R: PresentedAlgebra, point: dict) -> dict:
    """Degree-2 homology of R onto k(point) vanishes.

    Sanity oracle: smoothness of the ground-field inclusion at the point
    forces regularity; a violation is a hard error.
    """
    pt = _require_rational(R, point)
    eps = residue_surjection(R, pt)
    trunc = cotangent_trunc2(eps)
    aq1 = trunc.homology_dim(1, pt)
    aq2 = trunc.homology_dim(2, pt)
    primary = aq2 == 0
    ground = PresentedAlgebra(PolyRing(R.field, (), R.ring.order), [])
    smooth = is_smooth_at(AlgebraMap(ground, R, {}), pt)
    if smooth["verdict"] and not primary:
        raise ClassifyError(
            f"regularity oracle disagreement at {point}: smooth over the "
            "ground field yet the residue surjection has degree-2 homology")
    return {"verdict": primary, "aq1": aq1, "aq2": aq2,
            "oracle": {"smooth_over_ground": smooth["verdict"],
                       "agrees": True}}


def is_complete_intersection(R: PresentedAlgebra, point: dict) -> dict:
    """The presentation over its ambient polynomial ring is lci at the point.

    This reaches the degree-3 residue-field criterion one degree lower,
    through the quotient presentation.
    """
    pt = _require_rational(R, point)
    ambient = PresentedAlgebra(R.ring, [])
    return is_lci_at(AlgebraMap(ambient, R, {}), pt)


# -- the diagonal criterion ---------------------------------------------------------


def enveloping_multiplication(eta: AlgebraMap):
    """S tensor_K S with doubled variables, and its multiplication onto S.

    The multiplication kernel is generated by the differences v - v_r,
    adjoined as explicit relations of the presented target.
    """
    S = eta.target
    ring = S.ring
    copies = fresh_names([v + "_r" for v in ring.variables], ring.variables,
                         "r")
    big = ring.extended(tuple(copies))
    copy_of = dict(zip(ring.variables, copies))
    rels = [r.rename_into(big) for r in S.relations]
    rels += [r.rename_into(big, copy_of) for r in S.relations]
    Se = PresentedAlgebra(big, rels)
    diffs = [big.var(v) - big.var(c) for v, c in copy_of.items()]
    T = PresentedAlgebra(big, list(Se.relations) + diffs)
    return Se, AlgebraMap(Se, T, {}), copy_of


def hkr_equivalence_check(eta: AlgebraMap, points) -> dict:
    """Smoothness of eta matches lci of the multiplication map, pointwise."""
    points = list(points)
    if not points:
        raise ClassifyError("equivalence check needs at least one point")
    _, mu, copy_of = enveloping_multiplication(eta)
    per_point = []
    passes = True
    for q in points:
        pt = _require_rational(eta.target, q)
        diag = {v: pt[v] for v in eta.target.variables}
        for v, c in copy_of.items():
            diag[c] = pt[v]
        smooth = is_smooth_at(eta, pt)
        lci = is_lci_at(mu, diag)
        ok = smooth["verdict"] == lci["verdict"]
        passes = passes and ok
        field = eta.target.field
        per_point.append({"point": {v: field.to_str(pt[v]) for v in pt},
                          "smooth": smooth["verdict"],
                          "diagonal_lci": lci["verdict"], "ok": ok})
    return {"passes": passes, "per_point": per_point}


# -- zero-dimensional quotients ------------------------------------------------------


def _pure_power_degrees(algebra: PresentedAlgebra):
    """Minimal pure-power leading exponent per variable, or None."""
    degs = [None] * algebra.ring.nvars
    for g in algebra.groebner():
        e = g.leading_monomial()
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1:
            i = support[0]
            if degs[i] is None or e[i] < degs[i]:
                degs[i] = e[i]
    return degs


def standard_monomials(algebra: PresentedAlgebra):
    """Monomial basis of a zero-dimensional quotient; error otherwise."""
    if algebra.is_trivial():
        return []
    ring = algebra.ring
    if ring.nvars == 0:
        return [()]
    degs = _pure_power_degrees(algebra)
    if any(d is None for d in degs):
        raise ClassifyError("quotient is not zero-dimensional")
    leads = [g.leading_monomial() for g in algebra.groebner()]
    out = []

    def rec(prefix):
        if len(prefix) == ring.nvars:
            e = tuple(prefix)
            if not any(all(x <= y for x, y in zip(l, e)) for l in leads):
                out.append(e)
            return
        for k in range(degs[len(prefix)]):
            rec(prefix + [k])

    rec([])
    return sorted(out)


def vector_space_dimension(algebra: PresentedAlgebra) -> int:
    return len(standard_monomials(algebra))


def module_k_dimension(module: FPModule) -> int:
    """Dimension over the ground field, for zero-dimensional algebras."""
    algebra = module.algebra
    basis = standard_monomials(algebra)
    index = {e: i for i, e in enumerate(basis)}
    field = algebra.field
    g = module.gens
    if g == 0 or not basis:
        return 0
    total = len(basis) * g
    rows = []
    for rel in module.relations:
        for e in basis:
            mono = algebra.ring.monomial(e)
            row = [field.zero()] * total
            for slot in range(g):
                p = algebra.normal_form(mono * rel[slot])
                for ee, c in p.terms.items():
                    row[slot * len(basis) + index[ee]] = c
            rows.append(row)
    return total - linalg.rank(field, rows)


def minimal_polynomial(algebra: PresentedAlgebra, var: str):
    """Monic minimal polynomial coefficients (low degree first) of a
    variable in a zero-dimensional quotient."""
    basis = standard_monomials(algebra)
    if not basis:
        raise ClassifyError("the zero ring has no minimal polynomials")
    index = {e: i for i, e in enumerate(basis)}
    field = algebra.field
    x = algebra.ring.var(var)
    rows = []
    power = algebra.ring.one()
    for _ in range(len(basis) + 1):
        row = [field.zero()] * len(basis)
        for e, c in algebra.normal_form(power).terms.items():
            row[index[e]] = c
        dep = linalg.nullspace(field, matrix_columns(rows + [row]),
                               len(rows) + 1)
        if dep:
            # first dependence must involve the newest power
            c = dep[0]
            inv = field.inv(c[-1])
            return [field.mul(inv, ci) for ci in c]
        rows.append(row)
        power = power * x
    raise ClassifyError("no minimal polynomial found")


# -- univariate irreducibility (degree <= 4) -------------------------------------------


def _signed_divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend([d, -d, n // d, -(n // d)])
        d += 1
    return sorted(set(out))


def _int_root_free(coeffs: list[int]) -> bool:
    """No rational roots, by the rational root theorem."""
    lead, const = coeffs[-1], coeffs[0]
    for p in _signed_divisors(const):
        for q in _signed_divisors(lead):
            if q <= 0:
                continue
            r = Fraction(p, q)
            if sum(Fraction(c) * r ** i for i, c in enumerate(coeffs)) == 0:
                return False
    return True


def _monic_quartic_quadratic_free(A: list[int]) -> bool:
    """No factorization (y^2+by+c)(y^2+dy+e) with integer coefficients.

    A holds [A0, A1, A2, A3] for y^4 + A3 y^3 + A2 y^2 + A1 y + A0.
    """
    A0, A1, A2, A3 = A
    for c in _signed_divisors(A0):
        if A0 % c:
            continue
        e = A0 // c
        rhs = A1 - c * A3
        if e != c:
            if rhs % (e - c):
                continue
            b = rhs // (e - c)
            d = A3 - b
            if c + e + b * d == A2:
                return False
        else:
            if rhs != 0:
                continue
            # b^2 - A3 b + (A2 - 2c) = 0 over the integers
            disc = A3 * A3 - 4 * (A2 - 2 * c)
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            if (A3 + s) % 2 == 0 or (A3 - s) % 2 == 0:
                return False
    return True


def _rational_irreducible(coeffs: list[Fraction]) -> bool:
    deg = len(coeffs) - 1
    if deg <= 0:
        raise ClassifyError("constant polynomial")
    if deg == 1:
        return True
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    if ints[0] == 0:
        return False  # divisible by y
    if not _int_root_free(ints):
        return False
    if deg <= 3:
        return True
    # monic normalization y -> y/a4 preserves irreducibility
    a4 = ints[4]
    A = [ints[0] * a4 ** 3, ints[1] * a4 ** 2, ints[2] * a4, ints[3]]
    return _monic_quartic_quadratic_free(A)


def _gf_powmod(base: Polynomial, e: int, f: Polynomial) -> Polynomial:
    """base^e modulo the univariate f, by square and multiply."""
    ring = f.ring
    result = ring.one()
    base = poly_normal_form(base, [f], ring)
    while e:
        if e & 1:
            result = poly_normal_form(result * base, [f], ring)
        base = poly_normal_form(base * base, [f], ring)
        e >>= 1
    return result


def _gf_irreducible(field, coeffs) -> bool:
    """Distinct-degree test: gcd(f, x^(p^i) - x) trivial for i <= deg/2."""
    deg = len(coeffs) - 1
    if deg <= 0:
        raise ClassifyError("constant polynomial")
    if deg == 1:
        return True
    ring = PolyRing(field, ("x",))
    x = ring.var("x")
    f = ring.from_terms({(k,): c for k, c in enumerate(coeffs)})
    p = field.characteristic
    for i in range(1, deg // 2 + 1):
        probe = _gf_powmod(x, p ** i, f) - x
        if ideal_groebner([f, probe], ring) != [ring.one()]:
            return False
    return True


def univariate_irreducible(field, coeffs) -> bool:
    """coeffs low degree first, as field elements; degree must be <= 4
    over the rationals (the factor search is exhaustive only there)."""
    if field.characteristic == 0:
        if len(coeffs) - 1 > 4:
            raise ClassifyError("irreducibility check limited to degree 4")
        return _rational_irreducible([Fraction(c) for c in coeffs])
    return _gf_irreducible(field, coeffs)


# -- imperfection ---------------------------------------------------------------------


def module_of_imperfection(phi: AlgebraMap) -> dict:
    """Dimension of degree-1 homology over the extension itself.

    Ground-field bases are fully verified: the target must be a finite
    quotient with a primitive variable whose minimal polynomial is
    irreducible (degree <= 4 over the rationals).  A polynomial base
    stands in for its fraction field when the single relation has the
    classical shape y^n - u for a base variable u; anything else is
    rejected rather than guessed at.
    """
    S = phi.target
    if phi.source.ring.nvars == 0:
        d = vector_space_dimension(S)
        if d == 0:
            raise ClassifyError("the zero ring is not a field")
        primitive = None
        for v in S.variables:
            mp = minimal_polynomial(S, v)
            if len(mp) - 1 == d:
                primitive = mp
                break
        if primitive is None and d > 1:
            raise ClassifyError(
                "cannot verify the ideal is maximal: no primitive variable")
        if primitive is not None and d > 1 and \
                not univariate_irreducible(S.field, primitive):
            raise ClassifyError("the presented quotient is not a field")
        h1 = cotangent_trunc2(phi).homology_module(1)
        total = module_k_dimension(h1)
        if total % d:
            raise ClassifyError("inconsistent dimension count")
        return {"dimension": total // d, "degree": d, "mode": "field"}

    trunc = cotangent_trunc2(phi)
    rp = trunc.provenance["stages"].rp
    if phi.source.relations or len(rp.adjoined) != 1 or \
            len(rp.relation_polys) != 1:
        raise ClassifyError(
            "surrogate mode needs a polynomial base and one relation")
    if not _is_power_minus_base_element(rp.relation_polys[0],
                                        rp.adjoined[0]):
        raise ClassifyError(
            "surrogate mode accepts only relations of the shape y^n - u")
    h1 = trunc.homology_module(1)
    free = h1.free_rank()
    if free is None:
        if h1.is_zero():
            free = 0
        else:
            raise ClassifyError("imperfection module is not visibly free")
    return {"dimension": free, "degree": None, "mode": "surrogate"}


def _is_power_minus_base_element(f: Polynomial, y: str) -> bool:
    """f = a*y^n + b*u, u a degree-one base monomial (Eisenstein shape)."""
    yi = f.ring.var_index(y)
    power_terms, base_terms = [], []
    for e in f.terms:
        (power_terms if e[yi] else base_terms).append(e)
    if len(power_terms) != 1 or len(base_terms) != 1:
        return False
    pe, be = power_terms[0], base_terms[0]
    if any(k for i, k in enumerate(pe) if i != yi):
        return False
    return sum(be) == 1


# -- report assembly --------------------------------------------------------------


_POINTWISE = {
    "smooth": is_smooth_at,
    "unramified": is_unramified_at,
    "etale": is_etale_at,
    "lci": is_lci_at,
}

_RINGWISE = {
    "regular": is_regular_local,
    "ci": is_complete_intersection,
}

PROPERTIES = sorted(list(_POINTWISE) + list(_RINGWISE))
RING_PROPERTIES = tuple(_RINGWISE)


def _certified_globally(prop: str, phi: AlgebraMap) -> bool:
    """Theorem-backed certificates that survive passage to every fiber.

    Vanishing of degree-n homology with coefficients in the target alone
    does not control residue-field fibers (the cusp has zero degree-1
    homology as a module yet a 1-dimensional fiber at the origin), so
    each certificate also pins down the projective structure:

    - unramified: the differentials vanish as a module;
    - smooth: degree-1 homology vanishes as a module and the
      differentials are visibly projective, so the truncation splits
      into projectives and stays exact in every fiber;
    - etale: both of the above with the differentials zero;
    - lci: the relative relations form a Koszul-regular sequence on the
      intermediate polynomial extension, making the whole complex a
      shifted free module.
    """
    try:
        if prop == "lci":
            rp = cotangent_trunc2(phi).provenance["stages"].rp
            ok, _ = koszul_homology_all_vanish(rp.base_algebra,
                                               list(rp.relation_polys))
            return ok
        kd = kahler_presentation(phi).module
        omega_zero = kd.is_zero()
        if prop == "unramified":
            return omega_zero
        omega_projective = omega_zero or kd.free_rank() is not None
        if not omega_projective:
            return False
        h1_zero = cotangent_trunc2(phi).homology_module(1).is_zero()
        if prop == "smooth":
            return h1_zero
        if prop == "etale":
            return omega_zero and h1_zero
    except (AlgebraError, CotangentError):
        return False
    return False


def classification_report(prop: str, subject, points) -> "ClassificationReport":
    """Run one predicate over a list of points and assemble the report."""
    points = list(points)
    if prop in _POINTWISE:
        if not isinstance(subject, AlgebraMap):
            raise ClassifyError(f"property {prop!r} classifies a map")
        op = _POINTWISE[prop]
        rows = [_point_row(subject.target, q, op(subject, q)) for q in points]
        certified = _certified_globally(prop, subject)
        return ClassificationReport(
            prop, subject.to_json(), rows,
            "certified" if certified else "sampled-only")
    if prop in _RINGWISE:
        if isinstance(subject, AlgebraMap):
            raise ClassifyError(f"property {prop!r} classifies a ring")
        op = _RINGWISE[prop]
        rows = [_point_row(subject, q, op(subject, q)) for q in points]
        return ClassificationReport(prop, subject.to_json(), rows,
                                    "sampled-only")
    raise ClassifyError(
        f"unknown property {prop!r}; expected one of {PROPERTIES}")


def _point_row(algebra, point, result) -> dict:
    pt = algebra.parse_point(point)
    field = algebra.field
    evidence = {}
    for key in ("aq0", "aq1", "aq2"):
        if key in result:
            evidence[key] = result[key]
    oracle = result.get("oracle")
    if "smooth" in result:  # etale bundles its two halves
        evidence["aq0"] = result["unramified"]["aq0"]
        evidence["aq1"] = result["smooth"]["aq1"]
        evidence["aq2"] = result["smooth"]["aq2"]
        oracle = {"smooth": result["smooth"]["oracle"],
                  "unramified": result["unramified"]["oracle"]}
    return {
        "point": {v: field.to_str(pt[v]) for v in sorted(pt)},
        "verdict": result["verdict"],
        "evidence": evidence,
        "oracle": oracle,
    }


class ClassificationReport:
    def __init__(self, prop: str, subject_json: dict, rows: list[dict],
                 global_flag: str):
        self.property = prop
        self.subject_json = subject_json
        self.rows = rows
        self.global_flag = global_flag

    def all_verdicts(self) -> bool:
        return all(r["verdict"] for r in self.rows)

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "map": self.subject_json,
            "points": self.rows,
            "global_flag": self.global_flag,
        }
