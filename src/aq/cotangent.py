"""Truncated cotangent complexes and Andre-Quillen (co)homology.

Two construction modes feed one report type, and each builds one complex.
Mode "from-resolution" reads the complex off an explicit levelwise-free
resolution through its `max_level`: degree n is free on the level-n
variables and the differential is the alternating sum of face Jacobians
pushed to the augmentation by the extension's augmentation maps.  Mode
"general-trunc2" builds the degree-<=2 truncation from a relative
presentation: generators f, their syzygies, and the Koszul syzygies
f_i e_j - f_j e_i, the latter lifted and attached, with the second
syzygies, as a degree-3 differential so that degree-2 homology is taken
against the right quotient; one elimination over the syzygies gives both.
The truncation is a pure function of the map, built once per map from
its one relative presentation and kept on it (`AlgebraMap.derived`): Tor,
the five-term check and lci read the same stages.  The stages keep, each
built on first use, the Tor resolution through degree 2 and H_1(K(f)) of
the relations f over the base P: the syzygies they already hold modulo
the Koszul vectors, so no elimination runs twice.  Over the Noetherian
P, H_1(K(f)) = 0 exactly when f is Koszul-regular: K(f) is exact at
primes not containing (f), and at the others H_1 = 0 makes f a local
regular sequence (Bruns-Herzog 1.6.19).  Only Tor in degree 3
computes third syzygies.  The Tor resolution comes back as a complex of
the same class, in mode "tor".

Coefficients are finitely presented modules over the target, or residue
fields at rational points.  Every emitted complex is checked for dd = 0.
Residue-field dimensions have one reader: `CotangentComplexTrunc.dims_through`
checks the degree bound and transports the point once, then reads every
degree through `FreeComplex.dims_through`; callers ask for all the degrees
they need in one call.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .groebner import SubmoduleEngine
from .kahler import jacobian_matrix, relative_presentation, RelativePresentation
from .modules import (
    FPModule,
    FreeComplex,
    Matrix,
    canonical_syzygies,
    dense_to_vp,
    evaluate_matrix,
    koszul_columns,
    koszul_homology_all_vanish,
    matrix_to_json,
    present_subquotient,
    syzygies,
    transpose,
)
from .poly import Polynomial, fresh_names
from .rings import AlgebraError, AlgebraMap, Point, PresentedAlgebra, compose
from .simplicial import (
    FreeExtensionLevelwise,
    augmentation_maps,
)


class CotangentError(AlgebraError):
    pass


MODE_RESOLUTION = "from-resolution"
MODE_TRUNC2 = "general-trunc2"
MODE_TOR = "tor"


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

    Every report reads `complex`; the Tor resolution (mode "tor") is read
    the same way.  In mode trunc2 it carries, above the reported degrees
    0..2, the lifted Koszul relations and the second syzygies as a
    degree-3 differential when there are any, so that degree-2 homology is
    computed against the correct quotient.
    """

    def __init__(self, phi, mode: str, complex: FreeComplex,
                 provenance: dict, cutoff: int):
        self.phi = phi
        self.mode = mode
        self.complex = complex
        self.provenance = provenance
        self.cutoff = cutoff

    @property
    def algebra(self) -> PresentedAlgebra:
        return self.complex.algebra

    def _check_degree(self, n: int):
        top = 2 if self.mode == MODE_TRUNC2 else self.cutoff - 1
        if n > top:
            raise CotangentError(
                f"complex built through degree {top}, requested {n}")

    def transport_point(self, point: dict) -> Point:
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

    def dims_through(self, point: dict, n_max: int) -> list[int]:
        """dim_k of positions 0..n_max with residue-field coefficients at a
        point of the map's target: the one residue-field reader of a map."""
        self._check_degree(n_max)
        return self.complex.dims_through(self.transport_point(point), n_max)

    def dim_at_point(self, n: int, point: dict) -> int:
        return self.dims_through(point, n)[n] if n >= 0 else 0


# -- mode 2: trunc2 from a relative presentation --------------------------------


def _column_complex(algebra: PresentedAlgebra, *stages) -> FreeComplex:
    """Rank 1 in degree 0 and d_n with the n-th list of `stages` as its
    columns: the Tor resolution."""
    ranks = {0: 1}
    diffs = {}
    for n, columns in enumerate(stages, start=1):
        ranks[n] = len(columns)
        if columns:
            diffs[n] = columns
    return FreeComplex(algebra, ranks, diffs)


class _Trunc2Data:
    """Presentation stages shared by trunc2, Tor, the five-term check and lci.

    One elimination over the syzygies of the relations gives both the
    second syzygies and the lift of each Koszul vector onto the syzygies;
    there are Koszul vectors only when there are syzygies, since each is a
    nonzero syzygy.
    """

    def __init__(self, rp: RelativePresentation):
        self.rp = rp
        P = rp.base_algebra
        self.base = P
        self.generators = [p for p in rp.relation_polys]
        m = len(self.generators)
        self.relation_columns = [[f] for f in self.generators]
        self.syzygy_vectors = (
            syzygies(self.relation_columns, 1, P) if m else [])
        self.koszul_vectors = koszul_columns(P.ring, self.generators, 2)
        self.second_syzygies, self.koszul_lifts = [], []
        if self.syzygy_vectors:
            engine = SubmoduleEngine(
                P.ring, m, [dense_to_vp(v) for v in self.syzygy_vectors],
                P.relations)
            self.second_syzygies = canonical_syzygies(engine, P)
            for vec in self.koszul_vectors:
                lift = engine.lift(dense_to_vp(vec))
                if lift is None:
                    raise CotangentError("Koszul syzygy failed to lift")
                self.koszul_lifts.append(lift)

    def top_relation_columns(self) -> list[list[Polynomial]]:
        return [list(c) for c in self.koszul_lifts + self.second_syzygies]

    @cached_property
    def tor_complex(self) -> FreeComplex:
        """The Tor resolution through degree 2, built on first use."""
        return _column_complex(self.rp.algebra, self.relation_columns,
                               self.syzygy_vectors, self.second_syzygies)

    @cached_property
    def koszul_h1(self) -> FPModule:
        """H_1(K(f)) over the base, built on first use: the syzygies of the
        relations (the cycles of d_1) modulo the Koszul vectors (the image
        of d_2).  It is zero exactly when f is Koszul-regular."""
        return present_subquotient(self.base, len(self.generators),
                                   self.syzygy_vectors, self.koszul_vectors)


def cotangent_trunc2(phi: AlgebraMap) -> CotangentComplexTrunc:
    """Degrees 0..2: relation syzygies into relation symbols into differentials.

    Built once per map by `AlgebraMap.derived` and freed with the map;
    every later call, including those of `tor_modules` and
    `five_term_check`, returns the same object.
    """
    return phi.derived(_build_trunc2)


def _build_trunc2(phi: AlgebraMap) -> CotangentComplexTrunc:
    rp = relative_presentation(phi)
    data = _Trunc2Data(rp)
    S = rp.algebra
    g = rp.num_adjoined()
    m = len(data.generators)
    s = len(data.syzygy_vectors)
    top = data.top_relation_columns()
    ranks = {0: g, 1: m, 2: s, 3: len(top)}
    diffs = {}
    if g and m:
        diffs[1] = jacobian_matrix(rp)
    if m and s:
        diffs[2] = data.syzygy_vectors
    if top:
        diffs[3] = top
    return CotangentComplexTrunc(phi, MODE_TRUNC2, FreeComplex(S, ranks, diffs),
                                 {"stages": data}, cutoff=2)


# -- mode 1: complexes from explicit resolutions --------------------------------


def _verify_resolution(ext: FreeExtensionLevelwise):
    ok, failures = ext.simplicial_identities_hold()
    if not ok:
        raise CotangentError("refusing an unverified resolution: "
                             f"simplicial identities fail ({failures[0]})")
    if ext.killed is None:
        raise CotangentError("refusing an unverified resolution: homotopy "
                             "beyond degree 0 needs a closed-form construction")
    _, vanish = koszul_homology_all_vanish(ext.algebra(0), ext.killed,
                                           max(1, ext.max_level - 1))
    for n, zero in vanish.items():
        if not zero:
            raise CotangentError(
                f"refusing: homotopy in degree {n} does not vanish, "
                "so the extension does not resolve its augmentation")


def cotangent_from_resolution(ext: FreeExtensionLevelwise) -> CotangentComplexTrunc:
    """Alternating sums of face Jacobians over the augmentation, in degrees
    0..max_level of the extension (reliable through max_level - 1).

    The entry in row w of column x of the degree-n differential is
    d/dw of sum_i (-1)^i d_i(x), pushed to the augmentation.  The sum is
    formed once per column and differentiated once per row: by linearity
    this is the alternating sum of the face Jacobians.

    The extension must actually resolve its augmentation.  Acyclicity is
    checked through the Koszul rule: an extension that contracts r_1..r_c
    (its `killed`) has pi_n = H_n(K(r)), which must vanish for n >= 1.
    It is read over the level-0 algebra A_0: (r) kills H_n(K(r)), so it
    vanishes exactly when its push to the augmentation A_0/(r) does.  The
    extension is refused when `killed` is None or an identity fails.
    """
    _verify_resolution(ext)
    cutoff = ext.max_level
    aug_maps = augmentation_maps(ext)
    aug = aug_maps[0].target
    ranks = {n: len(ext.levels[n]) for n in range(cutoff + 1)}
    diffs = {}
    for n in range(1, cutoff + 1):
        rows = ext.levels[n - 1]
        cols = ext.levels[n]
        if not rows or not cols:
            continue
        push = aug_maps[n - 1]
        faces = [ext.operator("d", n, i) for i in range(n + 1)]
        # the derivative and apply are linear, so each column's alternating
        # sum is formed once in A_{n-1}, differentiated once per row and
        # pushed to the augmentation once per entry
        sums = []
        for x in cols:
            acc = push.source.ring.zero()
            for i, face in enumerate(faces):
                acc = acc + face.images[x] if i % 2 == 0 else acc - face.images[x]
            sums.append(acc)
        diffs[n] = [[push.apply(acc.derivative(w)) for w in rows] for acc in sums]
    phi = AlgebraMap(ext.base, aug, {})
    return CotangentComplexTrunc(phi, MODE_RESOLUTION,
                                 FreeComplex(aug, ranks, diffs), {}, cutoff=cutoff)


# -- hypersurface closed forms ---------------------------------------------------


def hypersurface_rank_table(n: int) -> int:
    """Rank of the degree-n differential after passing to any residue field."""
    if n < 2:
        raise CotangentError("rank table starts at degree 2")
    return (n - 2) // 2 if n % 2 == 0 else (n + 1) // 2


def hypersurface_closed_form_differential(algebra: PresentedAlgebra,
                                          n: int) -> Matrix:
    """The (n-1) x n matrix with partial alternating-sum entries, as its n
    columns."""
    if n < 1:
        raise CotangentError("closed form needs n >= 1")
    ring = algebra.ring
    columns = [[ring.zero() for _ in range(n - 1)] for _ in range(n)]
    for k in range(n):
        if k >= 1:
            columns[k][k - 1] = ring.from_int(epsilon_entry(0, k))
        if k <= n - 2:
            columns[k][k] = ring.from_int(epsilon_entry(k + 1, n))
    return columns


def _each_point(points: list, row) -> tuple[bool, list[dict]]:
    """`row(q) -> (ok, row dict)` at every point, in order: whether every
    row is ok, and the row dicts."""
    rows = [row(q) for q in points]
    return all(ok for ok, _ in rows), [out for _, out in rows]


def rank_exactness_check(L: FreeComplex, sample_points) -> dict:
    """Split-rank test: rank(L_n) = rank(d_n at q) + rank(d_{n+1} at q).

    Passing in degrees 2..top-1 certifies the homology there vanishes at
    the sampled residue fields, so the complex looks like its H_1 shifted.
    """
    points = list(sample_points)
    if not points:
        raise CotangentError("rank exactness needs at least one sample point")
    top = L.max_degree()

    def row(q):
        pt = L.algebra.parse_point(q)
        dims = L.dims_through(pt, top - 1)
        rows = [{"degree": n, "rank": L.rank(n),
                 "split": L.rank(n) - dims[n], "ok": dims[n] == 0}
                for n in range(2, top)]
        return (all(r["ok"] for r in rows),
                {"point": pt.to_json(), "degrees": rows})

    passes, per_point = _each_point(points, row)
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
                row["presentation-matrix"] = matrix_to_json(mod.relations,
                                                            mod.gens)
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
    return {"kind": "residue-field",
            "point": trunc.transport_point(coefficients).to_json()}


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
    trunc._check_degree(n_max)
    return trunc


def _report(phi, trunc: CotangentComplexTrunc, complex: FreeComplex,
            position, mode: str, coefficients, n_max: int) -> HomologyReport:
    """Degrees 0..n_max, degree n read off `complex` at position(n); a
    negative position reads 0."""
    degrees = range(n_max + 1)
    if isinstance(coefficients, dict):
        positions = [position(n) for n in degrees]
        dims = complex.dims_through(trunc.transport_point(coefficients),
                                    max(positions, default=-1))
        entries = [{"n": n, "dim": dims[p] if p >= 0 else 0}
                   for n, p in zip(degrees, positions)]
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
    return _report(phi, trunc, trunc.complex, lambda n: n,
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
        diffs[i] = transpose(fc.differential(n), fc.rank(n - 1))
    return FreeComplex(fc.algebra, ranks, diffs), top


def aq_cohomology(phi: AlgebraMap | None, coefficients=None, n_max: int = 2,
                  resolution=None) -> HomologyReport:
    """Derivation-side reports: transposed differentials, same degree range."""
    trunc = _resolve_trunc(phi, n_max, resolution)
    dual, top = _hom_dual_complex(trunc.complex)
    return _report(phi, trunc, dual, lambda n: top - n,
                   trunc.mode + "-dual", coefficients, n_max)


# -- Tor via iterated syzygies ----------------------------------------------------


def tor_modules(phi: AlgebraMap, n_max: int = 3) -> CotangentComplexTrunc:
    """Tor_n(target, -) over the source, n <= n_max <= 3, for quotient maps.

    The resolution is by iterated syzygies over the stages of the map's
    truncation (`cotangent_trunc2`): n_max <= 2 reads the one complex
    through d_3 kept there, and n_max = 3 builds its own with the third
    syzygies as d_4.  It comes back in mode "tor" with cutoff n_max + 1, so
    it is read like any truncation and degrees above n_max are refused.
    """
    if n_max > 3:
        raise CotangentError("Tor table built through degree 3 only")
    data = cotangent_trunc2(phi).provenance["stages"]
    if data.rp.num_adjoined():
        raise CotangentError(
            "needs a surjective map presented as a quotient of its source")
    if n_max < 3:
        complex = data.tor_complex
    else:
        s2 = data.second_syzygies
        s3 = syzygies(s2, len(data.syzygy_vectors), data.base) if s2 else []
        complex = _column_complex(data.rp.algebra, data.relation_columns,
                                  data.syzygy_vectors, s2, s3)
    return CotangentComplexTrunc(phi, MODE_TOR, complex, {"stages": data},
                                 cutoff=n_max + 1)


# -- the five-term tail -----------------------------------------------------------


def five_term_check(phi: AlgebraMap, points) -> dict:
    """dim AQ_2 = dim Tor_2 - rank(w at k) at each sampled residue field.

    w sends a wedge of two relation symbols to the lift of their Koszul
    syzygy; its rank is measured inside Tor_2 by comparing against the
    third resolution stage.  Both sides read one set of presentation
    stages, the map's truncation, so the check is an identity and cannot
    fail: with s syzygies, r2 the rank of d_2 at the point, R3 that of the
    truncation's d_3 = [Koszul lifts | second syzygies] and r3 that of the
    second syzygies alone, aq2 = s - r2 - R3, tor2 = s - r2 - r3 and
    rank_w = R3 - r3; aq1 = tor1 because nothing is adjoined, and Tor
    refuses every other map.  Tor is read through degree 2, so no third
    syzygies are computed.
    """
    points = list(points)
    if not points:
        raise CotangentError("five-term check needs at least one sample point")
    tor = tor_modules(phi, n_max=2)
    data = tor.provenance["stages"]
    trunc = cotangent_trunc2(phi)
    S = data.rp.algebra
    field = S.field

    def row(q):
        pt = data.rp.transport_point(q)
        _, aq1, aq2 = trunc.complex.dims_through(pt, 2)
        _, tor1, tor2 = tor.complex.dims_through(pt, 2)
        m3_eval = evaluate_matrix(data.second_syzygies, pt)
        both_eval = m3_eval + evaluate_matrix(data.koszul_lifts, pt)
        rank_w = linalg.rank(field, both_eval) - linalg.rank(field, m3_eval)
        ok = (aq2 == tor2 - rank_w) and (aq1 == tor1)
        return ok, {"point": pt.to_json(),
                    "aq1": aq1, "tor1": tor1,
                    "aq2": aq2, "tor2": tor2, "rank_w": rank_w,
                    "ok": ok}

    passes, per_point = _each_point(points, row)
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

    def row(q):
        pt = induced.target.parse_point(q)
        matched = to_pushout.pullback_point(pt)
        dims_after = after.dims_through(pt, 2)
        dims_before = before.dims_through(matched, 2)
        ok = dims_after == dims_before
        return ok, {"point": pt.to_json(),
                    "matched": matched.to_json(),
                    "dims": dims_after,
                    "dims_before": dims_before,
                    "ok": ok}

    passes, per_point = _each_point(points, row)
    return {"passes": passes, "per_point": per_point,
            "pushout": induced.target.describe()}


def retract_check(S: PresentedAlgebra, points) -> dict:
    """Adjoin one variable x (renamed when S has an x) and retract it to
    zero; dims must shift by one.

    With R = S[x] and the retraction R -> S, the degree-n homology of the
    retraction matches the degree-(n-1) homology of the inclusion for
    n = 1, 2 at every sampled point.
    """
    points = list(points)
    if not points:
        raise CotangentError("retract check needs at least one point")
    (u,) = fresh_names(["x"], S.ring.variables, "_b")
    r_ring = S.ring.extended((u,))
    R = PresentedAlgebra(r_ring, [r.rename_into(r_ring) for r in S.relations])
    inclusion = AlgebraMap(S, R, {})
    retraction = AlgebraMap(R, S, {u: S.ring.zero()})
    down = cotangent_trunc2(retraction)
    up = cotangent_trunc2(inclusion)

    def row(q):
        pt = S.parse_point(q)
        r_pt = {**pt, u: S.field.zero()}
        left = down.dims_through(pt, 2)
        right = up.dims_through(r_pt, 1)
        pairs = [{"n": n, "retraction": left[n], "inclusion": right[n - 1],
                  "ok": left[n] == right[n - 1]} for n in (1, 2)]
        return (all(p["ok"] for p in pairs),
                {"point": pt.to_json(), "pairs": pairs})

    passes, per_point = _each_point(points, row)
    return {"passes": passes, "per_point": per_point, "adjoined": u}


def _suffix_sums_nonnegative(dims: list[int]) -> tuple[bool, list[int]]:
    """The alternating sums dims[k] - dims[k+1] + ... for every k, as one
    running sum from the right."""
    sums = []
    acc = 0
    for d in reversed(dims):
        acc = d - acc
        sums.append(acc)
    sums.reverse()
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
    mid_over_base = cotangent_trunc2(psi).dims_through(pt_r, 1)
    top_over_base = cotangent_trunc2(chi).dims_through(pt_s, 1)
    top_over_mid = cotangent_trunc2(phi).dims_through(pt_s, 2)
    dims = {
        "aq1_mid_over_base": mid_over_base[1],
        "aq1_top_over_base": top_over_base[1],
        "aq1_top_over_mid": top_over_mid[1],
        "aq0_mid_over_base": mid_over_base[0],
        "aq0_top_over_base": top_over_base[0],
        "aq0_top_over_mid": top_over_mid[0],
    }
    window = list(dims.values())  # in the order of the keys above
    consistent, sums = _suffix_sums_nonnegative(window)
    extended = [top_over_mid[2]] + window
    ext_consistent, ext_sums = _suffix_sums_nonnegative(extended)
    return {
        "dims": dims,
        "window": window,
        "suffix_sums": sums,
        "consistent": consistent,
        "extended_window": extended,
        "extended_suffix_sums": ext_sums,
        "extended_consistent": ext_consistent,
        "point": pt_s.to_json(),
    }
