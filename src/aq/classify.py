"""Decision procedures: smooth, unramified, etale, lci, regular local,
complete intersection, and the diagonal smoothness criterion.

Each verdict is a pure function of homology dimensions at a rational point
and travels with an independently computed oracle value; a primary/oracle
disagreement is a hard error, never a warning.  The lci oracle is one
count per point: with relations f_1..f_m over P whose syzygy matrix has
rank r at the point, the ideal is locally generated by a regular sequence
exactly when dim_k H_1(K(f)) tensor k(pt) = r, since locally H_1(K(f)) =
H_1(K(g)) + (P/I)^r for a minimal generating set g (Bruns-Herzog 1.6) and,
by Nakayama, H_1(K(g)) vanishes locally exactly when its fiber does.
Global claims are labeled "certified" only when a module-level vanishing
(coefficients in the target itself) backs them, otherwise "sampled-only".
The lci certificate reads the same H_1(K(f)): over the Noetherian P it
vanishes exactly when f is Koszul-regular (Bruns-Herzog 1.6.19).
"""

from __future__ import annotations

from . import linalg
from .corpus import canonical_surjection, inclusion_from_ground
from .cotangent import CotangentError, _each_point, cotangent_trunc2
from .kahler import (_tensor_square, jacobian_matrix, kahler_oracle_via_diagonal,
                     kahler_presentation, relative_presentation)
from .modules import evaluate_matrix, syzygies
from .orders import MonomialOrder
from .rings import AlgebraError, AlgebraMap, PresentedAlgebra, point_to_json


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


# -- smooth / unramified / etale ----------------------------------------------


def _twin_oracle_data(phi: AlgebraMap):
    """(presentation, Jacobian, relation syzygies) of phi recomputed under
    the other order, degrevlex for a lex map and lex otherwise; kept on the
    map by `AlgebraMap.derived`."""
    other = "degrevlex" if phi.target.ring.order.name == "lex" else "lex"
    rp = relative_presentation(_with_order(phi, other))
    syz = (syzygies([[f] for f in rp.relation_polys], 1, rp.base_algebra)
           if rp.relation_polys else [])
    return rp, jacobian_matrix(rp), syz


def is_smooth_at(phi: AlgebraMap, point: dict) -> dict:
    """Degree-1 homology vanishes at the point.

    Oracle: the Jacobian rank at the point equals the number of local
    relation generators, m minus the rank there of the syzygies of the m
    relations.  Both numbers come from a presentation recomputed under the
    other monomial order, once per map, with no truncation; they depend on
    that presentation, so only whether they agree is invariant.
    """
    pt = _require_rational(phi.target, point)
    trunc = cotangent_trunc2(phi)
    _, aq1, aq2 = trunc.dims_through(pt, 2)
    primary = aq1 == 0

    rp, jac, syz = phi.derived(_twin_oracle_data)
    alt_pt = rp.transport_point(pt)
    field = rp.algebra.field
    rank_j = linalg.rank(field, evaluate_matrix(jac, alt_pt))
    m = len(rp.relation_polys)
    local_gens = m - linalg.rank(field, evaluate_matrix(syz, alt_pt))
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
    homology); the diagonal construction is the oracle.  Both
    presentations are built once per map."""
    pt = _require_rational(phi.target, point)
    kd = kahler_presentation(phi)
    oracle_mod = kahler_oracle_via_diagonal(phi)[0]
    dim = kd.dim_at_point(pt)
    primary = dim == 0
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


def _regular_sequence_oracle(stage, point: dict) -> bool:
    """Whether the relations generate the ideal by a regular sequence near
    the point, by the count dim_k H_1(K(f)) tensor k(pt) = r of the module
    docstring.  H_1(K(f)) is built once per map, from the stage's syzygies."""
    P = stage.base
    pt = P.parse_point(point)
    r = linalg.rank(P.field, evaluate_matrix(stage.syzygy_vectors, pt))
    return stage.koszul_h1.dim_at_point(pt) == r


def is_lci_at(phi: AlgebraMap, point: dict) -> dict:
    """Degree-2 homology vanishes at the point.

    Oracle: the classical definition, a local regular sequence generating
    the relation ideal, read off the first Koszul homology of the relations.
    """
    pt = _require_rational(phi.target, point)
    trunc = cotangent_trunc2(phi)
    ambient_pt = trunc.transport_point(pt)
    _, aq1, aq2 = trunc.complex.dims_through(ambient_pt, 2)
    primary = aq2 == 0
    oracle = _regular_sequence_oracle(trunc.provenance["stages"], ambient_pt)
    if oracle != primary:
        raise ClassifyError(
            f"lci oracle disagreement at {point}: homology says {primary}, "
            f"regular-sequence test says {oracle}")
    return {"verdict": primary, "aq1": aq1, "aq2": aq2,
            "oracle": {"regular_sequence_found": oracle, "agrees": True}}


# -- regular local rings and complete intersections -------------------------------


def residue_surjection(R: PresentedAlgebra, point: dict) -> AlgebraMap:
    """R onto the residue field of a rational point, built once per algebra
    and point (`PresentedAlgebra.derived`, keyed by the point's values in
    variable order); the point is validated on every call."""
    pt = _require_rational(R, point)
    return R.derived(_residue_map, tuple(pt[v] for v in R.variables))


def _residue_map(R: PresentedAlgebra, values: tuple) -> AlgebraMap:
    ring = R.ring
    extra = [ring.var(v) - ring.const(c) for v, c in zip(R.variables, values)]
    return AlgebraMap(R, PresentedAlgebra(ring, list(R.relations) + extra), {})


def is_regular_local(R: PresentedAlgebra, point: dict) -> dict:
    """Degree-2 homology of R onto k(point) vanishes.

    Sanity oracle: smoothness of the ground-field inclusion at the point
    forces regularity; a violation is a hard error.
    """
    return _regular_at(inclusion_from_ground(R), point)


def _regular_at(ground: AlgebraMap, point: dict) -> dict:
    R = ground.target
    pt = _require_rational(R, point)
    eps = residue_surjection(R, pt)
    trunc = cotangent_trunc2(eps)
    _, aq1, aq2 = trunc.dims_through(pt, 2)
    primary = aq2 == 0
    smooth = is_smooth_at(ground, pt)
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
    return is_lci_at(canonical_surjection(R), point)


# -- the diagonal criterion ---------------------------------------------------------


def enveloping_multiplication(eta: AlgebraMap):
    """S tensor_R S for eta: R -> S, and its multiplication onto S.

    The tensor square is the one `kahler_oracle_via_diagonal` reads: each
    variable adjoined by the relative presentation is doubled, and the
    differences y - y_r, which generate the multiplication kernel, are
    adjoined as explicit relations of the presented target.
    """
    Se, copy_of, diffs = eta.derived(_tensor_square)
    T = PresentedAlgebra(Se.ring, list(Se.relations) + diffs)
    return Se, AlgebraMap(Se, T, {}), copy_of


def hkr_equivalence_check(eta: AlgebraMap, points) -> dict:
    """Smoothness of eta matches lci of the multiplication map, pointwise."""
    points = list(points)
    if not points:
        raise ClassifyError("equivalence check needs at least one point")
    _, mu, copy_of = enveloping_multiplication(eta)
    rp = relative_presentation(eta)

    def row(q):
        pt = _require_rational(eta.target, q)
        diag = rp.transport_point(pt)
        for y, c in copy_of.items():
            diag[c] = diag[y]
        smooth = is_smooth_at(eta, pt)
        lci = is_lci_at(mu, diag)
        ok = smooth["verdict"] == lci["verdict"]
        return ok, {"point": point_to_json(pt, eta.target),
                    "smooth": smooth["verdict"],
                    "diagonal_lci": lci["verdict"], "ok": ok}

    passes, per_point = _each_point(points, row)
    return {"passes": passes, "per_point": per_point}


# -- report assembly --------------------------------------------------------------


_POINTWISE = {
    "smooth": is_smooth_at,
    "unramified": is_unramified_at,
    "etale": is_etale_at,
    "lci": is_lci_at,
}

# (map into the ring, built once per algebra; its pointwise predicate)
_RINGWISE = {
    "regular": (inclusion_from_ground, _regular_at),
    "ci": (canonical_surjection, is_lci_at),
}

PROPERTIES = sorted(list(_POINTWISE) + list(_RINGWISE))
RING_PROPERTIES = tuple(_RINGWISE)


def _certificate(phi: AlgebraMap, prop: str) -> bool:
    """Theorem-backed certificates that survive passage to every fiber.

    Vanishing of degree-n homology with coefficients in the target alone
    does not control residue-field fibers (the cusp has zero degree-1
    homology as a module yet a 1-dimensional fiber at the origin), so
    each certificate also pins down the projective structure:

    - unramified: the differentials vanish as a module;
    - smooth: degree-1 homology vanishes as a module and the
      differentials are visibly projective, so the truncation splits
      into projectives and stays exact in every fiber;
    - etale: both of the above (zero differentials are projective);
    - lci: the relative relations form a Koszul-regular sequence on the
      intermediate polynomial extension, making the whole complex a
      shifted free module.  H_1(K(f)) = 0 decides it: over a Noetherian
      ring it forces every H_i(K(f)) = 0, i >= 1 (Bruns-Herzog 1.6.19).

    Each certificate is a pure function of (map, property), read through
    `phi.derived(_certificate, prop)`, so it is built once per map; the
    differentials are the ones `kahler_presentation` keeps on the map.
    """
    if prop == "etale":
        return (phi.derived(_certificate, "unramified")
                and phi.derived(_certificate, "smooth"))
    try:
        if prop == "lci":
            # the oracle builds H_1 anyway; a span test over the stages cost 4x
            stages = cotangent_trunc2(phi).provenance["stages"]
            return stages.koszul_h1.is_zero()
        kd = kahler_presentation(phi).module
        if prop == "unramified":
            return kd.is_zero()
        # smooth, the one property left
        omega_projective = (phi.derived(_certificate, "unramified")
                            or kd.free_rank() is not None)
        return (omega_projective
                and cotangent_trunc2(phi).complex.homology_is_zero(1))
    except (AlgebraError, CotangentError):
        return False


def classification_report(prop: str, subject, points) -> "ClassificationReport":
    """Run one predicate over a list of points and assemble the report."""
    points = list(points)
    if prop in _POINTWISE:
        if not isinstance(subject, AlgebraMap):
            raise ClassifyError(f"property {prop!r} classifies a map")
        op = _POINTWISE[prop]
        rows = [_point_row(subject.target, q, op(subject, q)) for q in points]
        certified = subject.derived(_certificate, prop)
        return ClassificationReport(
            prop, subject.to_json(), rows,
            "certified" if certified else "sampled-only")
    if prop in _RINGWISE:
        if isinstance(subject, AlgebraMap):
            raise ClassifyError(f"property {prop!r} classifies a ring")
        build, op = _RINGWISE[prop]
        fixed = subject.derived(build)
        rows = [_point_row(subject, q, op(fixed, q)) for q in points]
        return ClassificationReport(prop, subject.to_json(), rows,
                                    "sampled-only")
    raise ClassifyError(
        f"unknown property {prop!r}; expected one of {PROPERTIES}")


def _point_row(algebra, point, result) -> dict:
    pt = algebra.parse_point(point)
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
        "point": point_to_json(pt, algebra),
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
