"""Truncated cotangent complexes and Andre-Quillen (co)homology.

Two construction modes feed one report type.  Mode "from-resolution" reads
the complex off an explicit levelwise-free resolution: degree n is free on
the level-n variables and the differential is the alternating sum of face
Jacobians pushed to the augmentation.  Mode "general-trunc2" builds the
degree-<=2 truncation from a relative presentation: generators f, their
syzygies, and the Koszul syzygies f_i e_j - f_j e_i, the latter lifted and
recorded as relations on the degree-2 term.  The truncation is a pure
function of the map, so it is built once per map and kept on the map: Tor
and the five-term check read the same presentation stages.

Coefficients are finitely presented modules over the target, or residue
fields at rational points.  Every emitted complex is checked for dd = 0.
"""

from __future__ import annotations

from . import linalg
from .groebner import SubmoduleEngine
from .kahler import jacobian_matrix, relative_presentation, RelativePresentation
from .modules import (
    FPModule,
    FreeComplex,
    Matrix,
    dense_to_vp,
    evaluate_matrix,
    matrix_columns,
    matrix_from_columns,
    matrix_to_json,
    syzygies,
)
from .poly import Polynomial, fresh_names
from .rings import AlgebraError, AlgebraMap, PresentedAlgebra, compose, point_to_json
from .simplicial import (
    FreeExtensionLevelwise,
    SimplicialError,
    augmentation,
    augmentation_of_level,
    homotopy_modules,
)


class CotangentError(AlgebraError):
    pass


MODE_RESOLUTION = "from-resolution"
MODE_TRUNC2 = "general-trunc2"


def epsilon_entry(l: int, m: int) -> int:
    """Partial alternating sum (-1)^l + ... + (-1)^m; 0 when m - l is odd."""
    if m < l:
        return 0
    return 0 if (m - l) % 2 else (-1) ** l


def _same_presentation(a: PresentedAlgebra, b: PresentedAlgebra) -> bool:
    """Same variables and the same ideal (mutual reduction to zero)."""
    if a.ring.variables != b.ring.variables:
        return False
    for r in a.relations:
        if not b.normal_form(r.rename_into(b.ring)).is_zero():
            return False
    for r in b.relations:
        if not a.normal_form(r.rename_into(a.ring)).is_zero():
            return False
    return True


# -- the truncated complex ------------------------------------------------------


class CotangentComplexTrunc:
    """Free complex over the target with a designated usable degree range.

    `complex` holds the reported terms; `homology_complex` may carry one
    extra top differential (the lifted Koszul relations of mode trunc2) so
    that top-degree homology is computed against the correct quotient.
    """

    def __init__(self, phi, mode: str, complex: FreeComplex,
                 homology_complex: FreeComplex, provenance: dict, cutoff: int):
        self.phi = phi
        self.mode = mode
        self.complex = complex
        self.homology_complex = homology_complex
        self.provenance = provenance
        self.cutoff = cutoff

    @property
    def algebra(self) -> PresentedAlgebra:
        return self.complex.algebra

    def max_reliable_degree(self) -> int:
        return 2 if self.mode == MODE_TRUNC2 else self.cutoff - 1

    def _check_degree(self, n: int):
        if n > self.max_reliable_degree():
            raise CotangentError(
                f"degree {n} beyond this complex (reliable through "
                f"{self.max_reliable_degree()})")

    def transport_point(self, point: dict) -> dict:
        stages = self.provenance.get("stages")
        if stages is not None:
            return stages.rp.transport_point(point)
        return self.algebra.parse_point(point)

    def transport_module(self, module: FPModule | None) -> FPModule | None:
        """The module over this complex's algebra; None (the algebra
        itself) stays None."""
        if module is None or module.algebra == self.algebra:
            return module
        stages = self.provenance.get("stages")
        if stages is not None and module.algebra == self.phi.target:
            rels = [[stages.rp.lift_target(p) for p in rel]
                    for rel in module.relations]
            return FPModule(self.algebra, module.gens, rels)
        if module.algebra.ring.variables == self.algebra.ring.variables:
            rels = [[p.rename_into(self.algebra.ring) for p in rel]
                    for rel in module.relations]
            return FPModule(self.algebra, module.gens, rels)
        raise CotangentError("coefficient module lives over a different algebra")

    def homology_dim(self, n: int, point: dict) -> int:
        """dim_k AQ-position n with residue-field coefficients at the point."""
        if n < 0:
            return 0
        self._check_degree(n)
        return self.homology_complex.homology_dim_at_point(
            n, self.transport_point(point))

    def homology_module(self, n: int, coefficients: FPModule | None = None) -> FPModule:
        if n < 0:
            return FPModule(self.algebra, 0, [])
        self._check_degree(n)
        return self.homology_complex.homology(
            n, self.transport_module(coefficients))

    def dims_through(self, point: dict, n_max: int) -> list[int]:
        return [self.homology_dim(n, point) for n in range(n_max + 1)]


# -- mode 2: trunc2 from a relative presentation --------------------------------


class _Trunc2Data:
    """Presentation stages shared by trunc2, Tor, and the five-term check."""

    def __init__(self, rp: RelativePresentation):
        self.rp = rp
        P = rp.base_algebra
        self.base = P
        self.generators = [p for p in rp.relation_polys]
        m = len(self.generators)
        self.syzygy_vectors = (
            syzygies([[f] for f in self.generators], 1, P) if m else [])
        s = len(self.syzygy_vectors)
        self.second_syzygies = (
            syzygies(self.syzygy_vectors, m, P) if s else [])
        self.koszul_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        self.koszul_lifts = self._lift_koszul()

    def _koszul_vector(self, i: int, j: int) -> list[Polynomial]:
        zero = self.base.ring.zero()
        vec = [zero] * len(self.generators)
        vec[j] = self.generators[i]
        vec[i] = -self.generators[j]
        return vec

    def _lift_koszul(self) -> list[list[Polynomial]]:
        """One coefficient column per pair, over the syzygy generators."""
        m = len(self.generators)
        s = len(self.syzygy_vectors)
        if not self.koszul_pairs:
            return []
        if s == 0:
            # no syzygies at all: every Koszul vector must already be zero
            for i, j in self.koszul_pairs:
                for p in self._koszul_vector(i, j):
                    if not self.base.normal_form(p).is_zero():
                        raise CotangentError(
                            "Koszul syzygy outside the syzygy module")
            return [[] for _ in self.koszul_pairs]
        engine = SubmoduleEngine(
            self.base.ring, m,
            [dense_to_vp(v) for v in self.syzygy_vectors],
            self.base.relations)
        out = []
        for i, j in self.koszul_pairs:
            lift = engine.lift(dense_to_vp(self._koszul_vector(i, j)))
            if lift is None:
                raise CotangentError("Koszul syzygy failed to lift")
            out.append(lift)
        return out

    def top_relation_columns(self) -> list[list[Polynomial]]:
        cols = [list(c) for c in self.koszul_lifts if c]
        cols.extend([list(r) for r in self.second_syzygies])
        return cols


def cotangent_trunc2(phi: AlgebraMap) -> CotangentComplexTrunc:
    """Degrees 0..2: relation syzygies into relation symbols into differentials.

    The truncation is a pure function of the map, so it is built once per
    map and kept on the map (freed with it); every later call, including
    those of `tor_modules` and `five_term_check`, returns the same object.
    """
    trunc = getattr(phi, "_trunc2_memo", None)
    if trunc is None:
        trunc = phi._trunc2_memo = _build_trunc2(phi)
    return trunc


def _build_trunc2(phi: AlgebraMap) -> CotangentComplexTrunc:
    rp = relative_presentation(phi)
    data = _Trunc2Data(rp)
    S = rp.algebra
    g = rp.num_adjoined()
    m = len(data.generators)
    s = len(data.syzygy_vectors)
    ranks = {0: g, 1: m, 2: s}
    diffs = {}
    if g and m:
        diffs[1] = jacobian_matrix(rp)
    if m and s:
        diffs[2] = matrix_from_columns(data.syzygy_vectors, m)
    complex = FreeComplex(S, ranks, diffs)
    top = data.top_relation_columns()
    if s and top:
        h_ranks = dict(ranks)
        h_ranks[3] = len(top)
        h_diffs = dict(diffs)
        h_diffs[3] = matrix_from_columns(top, s)
        homology_complex = FreeComplex(S, h_ranks, h_diffs)
    else:
        homology_complex = complex
    return CotangentComplexTrunc(phi, MODE_TRUNC2, complex, homology_complex,
                                 {"stages": data}, cutoff=2)


# -- mode 1: complexes from explicit resolutions --------------------------------


def _verify_resolution(ext: FreeExtensionLevelwise, cutoff: int):
    ok, failures = ext.simplicial_identities_hold()
    if not ok:
        raise CotangentError("refusing an unverified resolution: "
                             f"simplicial identities fail ({failures[0]})")
    try:
        pis = homotopy_modules(ext, max(1, cutoff - 1))
    except SimplicialError as exc:
        raise CotangentError(f"refusing an unverified resolution: {exc}")
    for n in range(1, max(2, cutoff)):
        mod = pis.get(n)
        if mod is not None and not mod.is_zero():
            raise CotangentError(
                f"refusing: homotopy in degree {n} does not vanish, "
                "so the extension does not resolve its augmentation")


def cotangent_from_resolution(ext: FreeExtensionLevelwise,
                              cutoff: int | None = None) -> CotangentComplexTrunc:
    """Alternating sums of face Jacobians over the augmentation.

    The extension must actually resolve its augmentation.  Acyclicity is
    checked through the Koszul rule: an extension that contracts r_1..r_c
    (its `killed`) has pi_n = H_n(K(r)), which must vanish for n >= 1.
    An extension whose `killed` is None is refused, as is one whose
    simplicial identities fail.
    """
    if cutoff is None:
        cutoff = ext.max_level
    if cutoff > ext.max_level:
        raise CotangentError(
            f"resolution built only to level {ext.max_level}, need {cutoff}")
    _verify_resolution(ext, cutoff)
    aug = augmentation(ext)
    aug_maps = {n: augmentation_of_level(ext, n) for n in range(cutoff)}
    ranks = {n: len(ext.levels[n]) for n in range(cutoff + 1)}
    diffs = {}
    for n in range(1, cutoff + 1):
        rows = ext.levels[n - 1]
        cols = ext.levels[n]
        if not rows or not cols:
            continue
        push = aug_maps[n - 1]
        faces = {x: [ext.operator("d", n, i).images[x] for i in range(n + 1)]
                 for x in cols}
        matrix = []
        for w in rows:
            row = []
            for x in cols:
                acc = aug.ring.zero()
                for i, img in enumerate(faces[x]):
                    term = push.apply(img.derivative(w))
                    acc = acc + term if i % 2 == 0 else acc - term
                row.append(acc)
            matrix.append(row)
        diffs[n] = matrix
    complex = FreeComplex(aug, ranks, diffs)
    phi = AlgebraMap(ext.base, aug, {})
    return CotangentComplexTrunc(phi, MODE_RESOLUTION, complex, complex,
                                 {}, cutoff=cutoff)


# -- hypersurface closed forms ---------------------------------------------------


def hypersurface_rank_table(n: int) -> int:
    """Rank of the degree-n differential after passing to any residue field."""
    if n < 2:
        raise CotangentError("rank table starts at degree 2")
    return (n - 2) // 2 if n % 2 == 0 else (n + 1) // 2


def hypersurface_closed_form_differential(algebra: PresentedAlgebra,
                                          n: int) -> Matrix:
    """The (n-1) x n matrix with partial alternating-sum entries."""
    if n < 1:
        raise CotangentError("closed form needs n >= 1")
    ring = algebra.ring
    matrix = [[ring.zero() for _ in range(n)] for _ in range(n - 1)]
    for k in range(n):
        if k >= 1:
            matrix[k - 1][k] = ring.from_int(epsilon_entry(0, k))
        if k <= n - 2:
            matrix[k][k] = ring.from_int(epsilon_entry(k + 1, n))
    return matrix


def rank_exactness_check(L: FreeComplex, sample_points) -> dict:
    """Split-rank test: rank(L_n) = rank(d_n at q) + rank(d_{n+1} at q).

    Passing in degrees 2..top-1 certifies the homology there vanishes at
    the sampled residue fields, so the complex looks like its H_1 shifted.
    """
    points = list(sample_points)
    if not points:
        raise CotangentError("rank exactness needs at least one sample point")
    field = L.algebra.field
    top = L.max_degree()
    per_point = []
    passes = True
    for q in points:
        pt = L.algebra.parse_point(q)
        rows = []
        for n in range(2, top):
            dn = evaluate_matrix(L.differential(n), pt)
            dn1 = evaluate_matrix(L.differential(n + 1), pt)
            lhs = L.rank(n)
            rhs = linalg.rank(field, dn) + linalg.rank(field, dn1)
            ok = lhs == rhs
            passes = passes and ok
            rows.append({"degree": n, "rank": lhs, "split": rhs, "ok": ok})
        per_point.append({"point": point_to_json(pt, L.algebra), "degrees": rows})
    return {
        "passes": passes,
        "top_degree": top,
        "per_point": per_point,
        "conclusion": (f"homotopy equivalent to the degree-1 homology "
                       f"shifted, through degree {top - 1}") if passes else None,
    }


# -- homology and cohomology reports ---------------------------------------------


class HomologyReport:
    def __init__(self, map_json: dict, coefficients: dict, mode: str,
                 cutoff: int, entries: list[dict]):
        self.map_json = map_json
        self.coefficients = coefficients
        self.mode = mode
        self.cutoff = cutoff
        self.entries = entries

    def dims(self) -> dict[int, int]:
        return {e["n"]: e["dim"] for e in self.entries if "dim" in e}

    def to_json(self) -> dict:
        degrees = []
        for e in self.entries:
            row = {"n": e["n"]}
            if "dim" in e:
                row["dim"] = e["dim"]
            if "module" in e:
                mod = e["module"]
                row["generators"] = mod.gens
                row["presentation-matrix"] = matrix_to_json(
                    mod.presentation_matrix())
                free = mod.free_rank()
                if free is not None:
                    row["free-rank"] = free
            degrees.append(row)
        return {
            "map": self.map_json,
            "coefficients": self.coefficients,
            "mode": self.mode,
            "cutoff": self.cutoff,
            "degrees": degrees,
        }


def _coefficient_descriptor(coefficients, trunc: CotangentComplexTrunc) -> dict:
    if coefficients is None:
        return {"kind": "target-algebra"}
    if isinstance(coefficients, FPModule):
        return {"kind": "module", "generators": coefficients.gens,
                "relations": len(coefficients.relations)}
    pt = trunc.transport_point(coefficients)
    return {"kind": "residue-field",
            "point": point_to_json(pt, trunc.algebra)}


def _resolve_trunc(phi, n_max: int, resolution) -> CotangentComplexTrunc:
    if resolution is None:
        if n_max > 2:
            raise CotangentError(
                "insufficient machinery in general-trunc2 mode: degrees "
                "above 2 need an explicit resolution")
        return cotangent_trunc2(phi)
    trunc = (resolution if isinstance(resolution, CotangentComplexTrunc)
             else cotangent_from_resolution(resolution))
    if trunc.mode != MODE_RESOLUTION:
        raise CotangentError("supplied resolution is not resolution-derived")
    if phi is not None:
        if not _same_presentation(trunc.phi.target, phi.target) or \
                not _same_presentation(trunc.phi.source, phi.source):
            raise CotangentError("resolution does not resolve this map")
    if n_max > trunc.max_reliable_degree():
        raise CotangentError(
            f"resolution reliable through degree {trunc.max_reliable_degree()},"
            f" requested {n_max}")
    return trunc


def _report(phi, trunc: CotangentComplexTrunc, complex: FreeComplex,
            position, mode: str, coefficients, n_max: int) -> HomologyReport:
    """Degrees 0..n_max, degree n read off `complex` at position(n)."""
    degrees = range(n_max + 1)
    if isinstance(coefficients, dict):
        pt = trunc.transport_point(coefficients)
        entries = [{"n": n, "dim": complex.homology_dim_at_point(position(n), pt)}
                   for n in degrees]
    else:
        mod = trunc.transport_module(coefficients)
        entries = [{"n": n, "module": complex.homology(position(n), mod)}
                   for n in degrees]
    report_map = trunc.phi if phi is None else phi
    return HomologyReport(report_map.to_json(),
                          _coefficient_descriptor(coefficients, trunc),
                          mode, trunc.cutoff, entries)


def aq_homology(phi: AlgebraMap | None, coefficients=None, n_max: int = 2,
                resolution=None) -> HomologyReport:
    """Homology of the truncated cotangent complex with the given coefficients.

    `coefficients`: a point dict (residue field; dimensions reported), an
    FPModule over the target, or None for the target itself (presentations
    reported).  Degrees above 2 require an explicit resolution.
    """
    trunc = _resolve_trunc(phi, n_max, resolution)
    return _report(phi, trunc, trunc.homology_complex, lambda n: n,
                   trunc.mode, coefficients, n_max)


def _hom_dual_complex(fc: FreeComplex) -> tuple[FreeComplex, int]:
    """Transpose and flip so cohomology reads as homology of the result."""
    top = fc.max_degree()
    ranks = {top - n: fc.rank(n) for n in fc.degrees()}
    diffs = {}
    for i in range(1, top + 1):
        n = top - i + 1
        if fc.rank(n) == 0 or fc.rank(n - 1) == 0:
            continue
        diffs[i] = matrix_columns(fc.differential(n))
    return FreeComplex(fc.algebra, ranks, diffs), top


def aq_cohomology(phi: AlgebraMap | None, coefficients=None, n_max: int = 2,
                  resolution=None) -> HomologyReport:
    """Derivation-side reports: transposed differentials, same degree range."""
    trunc = _resolve_trunc(phi, n_max, resolution)
    dual, top = _hom_dual_complex(trunc.homology_complex)
    return _report(phi, trunc, dual, lambda n: top - n,
                   trunc.mode + "-dual", coefficients, n_max)


# -- Tor via iterated syzygies ----------------------------------------------------


class TorTable:
    def __init__(self, complex: FreeComplex, stages: _Trunc2Data):
        self.complex = complex
        self.stages = stages

    def dim_at_point(self, n: int, point: dict) -> int:
        pt = self.stages.rp.transport_point(point)
        return self.complex.homology_dim_at_point(n, pt)


def tor_modules(phi: AlgebraMap, n_max: int = 3) -> TorTable:
    """Tor_n(target, -) over the source, n <= n_max, for quotient maps.

    The resolution is by iterated syzygies: relations, their syzygies, and
    so on, for n_max + 1 stages.  The first stages are those of the map's
    truncation (`cotangent_trunc2`).
    """
    if n_max > 3:
        raise CotangentError("Tor table built through degree 3 only")
    data = cotangent_trunc2(phi).provenance["stages"]
    if data.rp.num_adjoined():
        raise CotangentError(
            "needs a surjective map presented as a quotient of its source")
    S = data.rp.algebra
    P = data.base
    fs = data.generators
    m = len(fs)
    s1 = data.syzygy_vectors
    s2 = data.second_syzygies
    s3 = syzygies(s2, len(s1), P) if s2 else []
    ranks = {0: 1, 1: m, 2: len(s1), 3: len(s2), 4: len(s3)}
    diffs = {}
    if m:
        diffs[1] = [list(fs)]
    if s1:
        diffs[2] = matrix_from_columns(s1, m)
    if s2:
        diffs[3] = matrix_from_columns(s2, len(s1))
    if s3:
        diffs[4] = matrix_from_columns(s3, len(s2))
    complex = FreeComplex(S, ranks, diffs)
    return TorTable(complex, data)


# -- the five-term tail -----------------------------------------------------------


def five_term_check(phi: AlgebraMap, points) -> dict:
    """dim AQ_2 = dim Tor_2 - rank(w at k) at each sampled residue field.

    w sends a wedge of two relation symbols to the lift of their Koszul
    syzygy; its rank is measured inside Tor_2 by comparing against the
    third resolution stage.  Both sides read one set of presentation
    stages, the map's truncation; what is independent is the two complexes
    over them: AQ dims come from the degree-<=2 truncation (with the lifted
    Koszul relations on top), Tor dims from the iterated-syzygy resolution.
    """
    points = list(points)
    if not points:
        raise CotangentError("five-term check needs at least one sample point")
    tor = tor_modules(phi, n_max=3)
    data = tor.stages
    trunc = cotangent_trunc2(phi)
    S = data.rp.algebra
    field = S.field
    lam_cols = [c for c in data.koszul_lifts if c]
    m3_cols = [list(r) for r in data.second_syzygies]
    per_point = []
    passes = True
    for q in points:
        pt = data.rp.transport_point(q)
        aq1 = trunc.homology_dim(1, q)
        aq2 = trunc.homology_dim(2, q)
        tor1 = tor.dim_at_point(1, q)
        tor2 = tor.dim_at_point(2, q)
        m3_eval = evaluate_matrix(m3_cols, pt)
        both_eval = m3_eval + evaluate_matrix(lam_cols, pt)
        rank_w = linalg.rank(field, both_eval) - linalg.rank(field, m3_eval)
        ok = (aq2 == tor2 - rank_w) and (aq1 == tor1)
        passes = passes and ok
        per_point.append({
            "point": point_to_json(pt, S),
            "aq1": aq1, "tor1": tor1,
            "aq2": aq2, "tor2": tor2, "rank_w": rank_w,
            "ok": ok,
        })
    return {"passes": passes, "map": phi.to_json(), "per_point": per_point}


# -- base change, retracts, and the Jacobi-Zariski window -------------------------


def pushout_map(phi_prime: AlgebraMap, rho: AlgebraMap):
    """Extend scalars: the induced map rho.target -> target(phi') tensor rho.

    Returns the induced map together with the canonical map from the
    original target into the pushout.
    """
    if phi_prime.source != rho.source:
        raise CotangentError("maps must share their source")
    rp = relative_presentation(phi_prime)
    R = rho.target
    fresh = fresh_names(rp.adjoined, R.ring.variables, "_b")
    new_ring = R.ring.extended(tuple(fresh))
    images = {}
    for w in phi_prime.source.variables:
        images[w] = rho.images[w].rename_into(new_ring)
    for y, name in zip(rp.adjoined, fresh):
        images[y] = new_ring.var(name)
    new_rels = [r.rename_into(new_ring) for r in R.relations]
    new_rels += [f.substitute(new_ring, images) for f in rp.relation_polys]
    pushout = PresentedAlgebra(new_ring, new_rels)
    induced = AlgebraMap(R, pushout, {})
    renamed = {y: name for y, name in zip(rp.adjoined, fresh)}
    prime_images = {}
    for v in phi_prime.target.variables:
        amb_name = rp.target_renaming.get(v, v)
        if amb_name in renamed:
            prime_images[v] = new_ring.var(renamed[amb_name])
        else:
            prime_images[v] = rho.images[amb_name].rename_into(new_ring)
    to_pushout = AlgebraMap(phi_prime.target, pushout, prime_images)
    return induced, to_pushout


def base_change_check(phi_prime: AlgebraMap, rho: AlgebraMap, points) -> dict:
    """AQ dims in degrees 0..2 agree before and after extending scalars.

    `rho` is trusted to be flat (polynomial or free extensions in the
    corpus); `points` are rational points of the pushout, matched to the
    original target by evaluation.
    """
    points = list(points)
    if not points:
        raise CotangentError("base change check needs at least one point")
    induced, to_pushout = pushout_map(phi_prime, rho)
    before = cotangent_trunc2(phi_prime)
    after = cotangent_trunc2(induced)
    per_point = []
    passes = True
    for q in points:
        pt = induced.target.parse_point(q)
        matched = to_pushout.pullback_point(pt)
        dims_after = after.dims_through(pt, 2)
        dims_before = before.dims_through(matched, 2)
        ok = dims_after == dims_before
        passes = passes and ok
        per_point.append({
            "point": point_to_json(pt, induced.target),
            "matched": point_to_json(matched, phi_prime.target),
            "dims": dims_after,
            "dims_before": dims_before,
            "ok": ok,
        })
    return {"passes": passes, "per_point": per_point,
            "pushout": induced.target.describe()}


def retract_check(S: PresentedAlgebra, points, var_name: str = "x") -> dict:
    """Adjoin one variable and retract it to zero; dims must shift by one.

    With R = S[x] and the retraction R -> S, the degree-n homology of the
    retraction matches the degree-(n-1) homology of the inclusion for
    n = 1, 2 at every sampled point.
    """
    points = list(points)
    if not points:
        raise CotangentError("retract check needs at least one point")
    (u,) = fresh_names([var_name], S.ring.variables, "_b")
    r_ring = S.ring.extended((u,))
    R = PresentedAlgebra(r_ring, [r.rename_into(r_ring) for r in S.relations])
    inclusion = AlgebraMap(S, R, {})
    retraction = AlgebraMap(R, S, {u: S.ring.zero()})
    down = cotangent_trunc2(retraction)
    up = cotangent_trunc2(inclusion)
    per_point = []
    passes = True
    for q in points:
        pt = S.parse_point(q)
        r_pt = dict(pt)
        r_pt[u] = S.field.zero()
        pairs = []
        for n in (1, 2):
            left = down.homology_dim(n, pt)
            right = up.homology_dim(n - 1, r_pt)
            pairs.append({"n": n, "retraction": left, "inclusion": right,
                          "ok": left == right})
        ok = all(p["ok"] for p in pairs)
        passes = passes and ok
        per_point.append({"point": point_to_json(pt, S), "pairs": pairs})
    return {"passes": passes, "per_point": per_point, "adjoined": u}


def _suffix_sums_nonnegative(dims: list[int]) -> tuple[bool, list[int]]:
    sums = []
    for k in range(len(dims)):
        acc = 0
        sign = 1
        for d in dims[k:]:
            acc += sign * d
            sign = -sign
        sums.append(acc)
    return all(x >= 0 for x in sums), sums


def jacobi_zariski_window(psi: AlgebraMap, phi: AlgebraMap, point: dict) -> dict:
    """Exactness bounds for the six-term low-degree window of a composite.

    psi: Q -> R and phi: R -> S.  The window runs from degree-1 homology of
    R over Q down to degree-0 homology of S over R, with residue-field
    coefficients at the given point of S and its image on R.  Consistency
    means every truncation of the window could sit inside an exact
    sequence: all suffix alternating sums are nonnegative.
    """
    chi = compose(phi, psi)
    pt_s = phi.target.parse_point(point)
    pt_r = phi.pullback_point(pt_s)
    t_psi = cotangent_trunc2(psi)
    t_chi = cotangent_trunc2(chi)
    t_phi = cotangent_trunc2(phi)
    dims = {
        "aq1_mid_over_base": t_psi.homology_dim(1, pt_r),
        "aq1_top_over_base": t_chi.homology_dim(1, pt_s),
        "aq1_top_over_mid": t_phi.homology_dim(1, pt_s),
        "aq0_mid_over_base": t_psi.homology_dim(0, pt_r),
        "aq0_top_over_base": t_chi.homology_dim(0, pt_s),
        "aq0_top_over_mid": t_phi.homology_dim(0, pt_s),
    }
    window = [
        dims["aq1_mid_over_base"],
        dims["aq1_top_over_base"],
        dims["aq1_top_over_mid"],
        dims["aq0_mid_over_base"],
        dims["aq0_top_over_base"],
        dims["aq0_top_over_mid"],
    ]
    consistent, sums = _suffix_sums_nonnegative(window)
    aq2 = t_phi.homology_dim(2, pt_s)
    extended = [aq2] + window
    ext_consistent, ext_sums = _suffix_sums_nonnegative(extended)
    return {
        "dims": dims,
        "window": window,
        "suffix_sums": sums,
        "consistent": consistent,
        "extended_window": extended,
        "extended_suffix_sums": ext_sums,
        "extended_consistent": ext_consistent,
        "point": point_to_json(pt_s, phi.target),
    }
