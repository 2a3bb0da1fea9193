"""Kahler differentials of a map of presented algebras.

The module of differentials of phi: R -> S is presented on the symbols
dy for the variables adjoined by a relative presentation S = R[Y]/(f),
with one relation column per f given by the partial derivatives. The
independent cross-check presents the same module as I/I^2 for the kernel
I of the multiplication map S tensor_R S -> S, built once per map by
doubling the adjoined variables; the diagonal smoothness criterion reads
the same S tensor_R S.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .modules import (
    FPModule,
    Matrix,
    evaluate_matrix,
    matrix_columns,
    matrix_from_columns,
    matrix_product,
    span_contains,
    syzygies,
)
from .poly import Polynomial, PolyRing, fresh_names
from .rings import AlgebraError, AlgebraMap, PresentedAlgebra, compose
from . import linalg


class KahlerError(AlgebraError):
    pass


@dataclass
class RelativePresentation:
    """S = (base R[Y]) / (f), all living in one ambient polynomial ring."""

    phi: AlgebraMap
    algebra: PresentedAlgebra        # S in the relative ambient
    base_algebra: PresentedAlgebra   # R[Y]: same ambient, source relations only
    adjoined: tuple[str, ...]        # Y
    relation_polys: tuple[Polynomial, ...]  # f, in the ambient ring
    target_renaming: dict[str, str] = dc_field(default_factory=dict)

    @property
    def ambient(self) -> PolyRing:
        return self.algebra.ring

    def lift_target(self, p: Polynomial) -> Polynomial:
        """Transport an element of the original target into the ambient."""
        return p.rename_into(self.ambient, self.target_renaming)

    def transport_point(self, target_point: dict) -> dict:
        """Point of the original target as a point of the relative ambient."""
        pt = self.phi.target.parse_point(target_point)
        out = {}
        for v in self.phi.target.variables:
            out[self.target_renaming.get(v, v)] = pt[v]
        for w in self.phi.source.variables:
            if w not in out:
                out[w] = self.phi.images[w].evaluate(pt)
        return self.algebra.parse_point(out)

    def num_adjoined(self) -> int:
        return len(self.adjoined)


def relative_presentation(phi: AlgebraMap) -> RelativePresentation:
    """Present the target of phi as base[Y]/(f) over the source.

    When the map is a plain inclusion of presentations (source variables
    appear in the target with identity images), the target's own ambient
    is reused; otherwise every target variable gets a fresh copy, with
    relations tying source variables to their images.  Built once per map,
    so the truncation, the differentials and the diagonal oracle share one
    ambient algebra, with its Groebner basis and memos.
    """
    return phi.derived(_relative_presentation)


def _relative_presentation(phi: AlgebraMap) -> RelativePresentation:
    src, tgt = phi.source, phi.target
    if src.field != tgt.field:
        raise KahlerError("source and target over different fields")
    src_vars = set(src.variables)
    inclusion = src_vars <= set(tgt.variables) and phi.is_identity_on_common()
    if inclusion:
        base = PresentedAlgebra(
            tgt.ring, [r.rename_into(tgt.ring) for r in src.relations]
        )
        rels = [t for t in tgt.relations if not base.normal_form(t).is_zero()]
        adjoined = tuple(v for v in tgt.variables if v not in src_vars)
        # the base relations lie in the target ideal (phi is well defined)
        # and the dropped target relations in the base ideal, so S is the
        # target itself, with its Groebner basis and memos
        return RelativePresentation(
            phi=phi,
            algebra=tgt,
            base_algebra=base,
            adjoined=adjoined,
            relation_polys=tuple(rels),
            target_renaming={},
        )
    fresh = fresh_names(tgt.variables, src.variables, "_t")
    renaming = dict(zip(tgt.variables, fresh))
    ambient = PolyRing(
        src.field, tuple(src.variables) + tuple(fresh), src.ring.order
    )
    base_rels = [r.rename_into(ambient) for r in src.relations]
    rels = [t.rename_into(ambient, renaming) for t in tgt.relations]
    for w in src.variables:
        rels.append(phi.images[w].rename_into(ambient, renaming) - ambient.var(w))
    base = PresentedAlgebra(ambient, base_rels)
    rels = [r for r in rels if not base.normal_form(r).is_zero()]
    return RelativePresentation(
        phi=phi,
        algebra=PresentedAlgebra(ambient, base_rels + rels),
        base_algebra=base,
        adjoined=tuple(fresh),
        relation_polys=tuple(rels),
        target_renaming=renaming,
    )


@dataclass
class KahlerDifferentials:
    """Presentation of Omega_phi on the symbols d(y), y adjoined."""

    presentation: RelativePresentation
    module: FPModule
    jacobian: Matrix  # rows = adjoined, cols = relation polys

    def dim_at_point(self, target_point: dict) -> int:
        pt = self.presentation.transport_point(target_point)
        return self.module.dim_at_point(pt)


def jacobian(algebra: PresentedAlgebra, polys, variables) -> Matrix:
    """One row per variable v, one column per p: the normal form of dp/dv."""
    return [[algebra.normal_form(p.derivative(v)) for p in polys]
            for v in variables]


def jacobian_matrix(rp: RelativePresentation) -> Matrix:
    """Columns are d(f_i) expanded over the adjoined variables."""
    return jacobian(rp.algebra, rp.relation_polys, rp.adjoined)


def kahler_presentation(phi: AlgebraMap) -> KahlerDifferentials:
    """The Jacobian presentation of the differentials, built once per map."""
    return phi.derived(_kahler_presentation)


def _kahler_presentation(phi: AlgebraMap) -> KahlerDifferentials:
    rp = relative_presentation(phi)
    jac = jacobian_matrix(rp)
    module = FPModule(rp.algebra, rp.num_adjoined(), matrix_columns(jac))
    return KahlerDifferentials(presentation=rp, module=module, jacobian=jac)


def kahler_oracle_via_diagonal(phi: AlgebraMap):
    """Omega as I/I^2 for I = ker(S tensor_R S -> S); independent of the
    Jacobian construction. Returns (FPModule over the relative algebra,
    doubled-variable algebra used for the computation), built once per map."""
    return phi.derived(_kahler_oracle_via_diagonal)


def _tensor_square(phi: AlgebraMap):
    """(S tensor_R S, copy_of, diffs) for phi: R -> S, built once per map.

    S tensor_R S lives in the relative ambient with each adjoined variable
    y doubled to copy_of[y]; the source variables are shared.  The
    differences y - copy_of[y] generate the kernel of its multiplication
    onto S."""
    rp = relative_presentation(phi)
    amb = rp.ambient
    doubled_names = fresh_names([y + "_r" for y in rp.adjoined], amb.variables,
                                "_t")
    big = PolyRing(amb.field, amb.variables + tuple(doubled_names), amb.order)
    copy_of = dict(zip(rp.adjoined, doubled_names))
    rels = [r.rename_into(big) for r in rp.algebra.relations]
    for f in rp.relation_polys:
        rels.append(f.rename_into(big, copy_of))
    diffs = [big.var(y) - big.var(copy_of[y]) for y in rp.adjoined]
    return PresentedAlgebra(big, rels), copy_of, diffs


def _kahler_oracle_via_diagonal(phi: AlgebraMap):
    rp = relative_presentation(phi)
    tensor_alg, copy_of, diffs = phi.derived(_tensor_square)
    squares = []
    for i in range(len(diffs)):
        for j in range(i, len(diffs)):
            squares.append([diffs[i] * diffs[j]])
    # generator i must stay the class of diffs[i]
    rel_rows = syzygies([[d] for d in diffs], 1, tensor_alg, untracked=squares)
    # push the presentation down the multiplication map (second copy -> first)
    back = {copy_of[y]: y for y in rp.adjoined}
    pushed_rels = [[p.rename_into(rp.ambient, back) for p in rel]
                   for rel in rel_rows]
    return FPModule(rp.algebra, len(diffs), pushed_rels), tensor_alg


def jacobian_of_map(psi: AlgebraMap, base) -> Matrix:
    """Jacobian of a map of polynomial algebras relative to the variables
    in `base`: rows are the target's other variables, columns the partials
    of the images of the source's other variables."""
    own = [y for y in psi.source.variables if y not in base]
    return jacobian(psi.target, [psi.images[y] for y in own],
                    [v for v in psi.target.variables if v not in base])


def jacobian_chain_rule_holds(psi: AlgebraMap, sigma: AlgebraMap) -> bool:
    """J_{sigma.psi} equals J_sigma * sigma(J_psi) entrywise, all three
    relative to the source variables of psi that psi and sigma.psi both
    fix; sigma fixes those too, so leaving them out drops only zero terms."""
    composed = compose(sigma, psi)
    base = [v for v in psi.source.variables
            if all(v in f.target.ring._var_index
                   and f.images[v] == f.target.ring.var(v)
                   for f in (psi, composed))]
    pushed = [[sigma.apply(p) for p in row]
              for row in jacobian_of_map(psi, base)]
    product = matrix_product(sigma.target, jacobian_of_map(sigma, base),
                             pushed, len(psi.source.variables) - len(base))
    return product == jacobian_of_map(composed, base)


# -- towers and exact sequences ---------------------------------------------


@dataclass
class TowerPresentation:
    """Q -> R -> S with both stages presented in one shared ambient ring."""

    algebra: PresentedAlgebra            # S
    mid_adjoined: tuple[str, ...]        # Z: presents R over Q
    top_adjoined: tuple[str, ...]        # Y: presents S over R
    mid_relations: tuple[Polynomial, ...]  # g  (R = Q[Z]/(g))
    top_relations: tuple[Polynomial, ...]  # f  (S = R[Y]/(f))


def tower_presentation(psi: AlgebraMap, phi: AlgebraMap) -> TowerPresentation:
    if psi.target != phi.source:
        raise KahlerError("maps do not compose")
    rp1 = relative_presentation(psi)
    # identify rp1.algebra with R, then map on to S
    iota_images = {}
    for w in psi.source.variables:
        iota_images[w] = phi.apply(psi.images[w])
    for v in psi.target.variables:
        iota_images[rp1.target_renaming.get(v, v)] = phi.images[v]
    chi = AlgebraMap(rp1.algebra, phi.target, iota_images)
    rp2 = relative_presentation(chi)
    ambient = rp2.ambient
    mid_rel = tuple(r.rename_into(ambient) for r in rp1.relation_polys)
    return TowerPresentation(
        algebra=rp2.algebra,
        mid_adjoined=tuple(rp1.adjoined),
        top_adjoined=tuple(rp2.adjoined),
        mid_relations=mid_rel,
        top_relations=tuple(rp2.relation_polys),
    )


@dataclass
class ExactSequenceReport:
    maps: dict
    exact_at_middle: bool
    surjective_at_right: bool
    detail: dict

    @property
    def ok(self) -> bool:
        return self.exact_at_middle and self.surjective_at_right


def jacobi_zariski_right_exact(psi: AlgebraMap, phi: AlgebraMap) -> ExactSequenceReport:
    """Omega_psi ox S -> Omega_{phi.psi} -> Omega_phi -> 0, with Groebner
    certificates for exactness at the middle and surjectivity at the right."""
    tower = tower_presentation(psi, phi)
    S = tower.algebra
    Z, Y = tower.mid_adjoined, tower.top_adjoined
    g, f = tower.mid_relations, tower.top_relations
    nz, ny = len(Z), len(Y)
    # presentations: Omega_psi ox S on dZ; Omega_{phi psi} on dZ+dY; Omega_phi on dY
    omega_mid = FPModule(S, nz, matrix_columns(jacobian(S, g, Z)))
    omega_comp = FPModule(S, nz + ny, matrix_columns(
        jacobian(S, list(g) + list(f), list(Z) + list(Y))))
    omega_top = FPModule(S, ny, matrix_columns(jacobian(S, f, Y)))
    zero = S.ring.zero()
    one = S.ring.one()
    # alpha: dz -> dz (inclusion); beta: dz -> d_phi(z) = 0, dy -> dy.
    # The columns of alpha and the rows of beta are unit vectors.
    units = linalg.unit_vectors(zero, one, nz + ny)
    alpha_cols, beta = units[:nz], units[nz:]
    # surjectivity: every generator dy of Omega_phi is hit
    if ny == 0:
        surj = True
    else:
        hits = matrix_columns(beta) + omega_top.relations
        surj = span_contains(S, ny, hits, linalg.unit_vectors(zero, one, ny))
    # exactness at the middle
    if ny == 0:
        ker_beta = linalg.unit_vectors(zero, one, nz)
    else:
        ker_beta = syzygies(matrix_columns(beta), ny, S,
                            untracked=omega_top.relations)
    middle_haystack = alpha_cols + omega_comp.relations
    ker_in_im = span_contains(S, nz + ny, middle_haystack, ker_beta)
    if ny == 0:
        beta_alpha_zero = True
    else:
        beta_alpha = matrix_columns(matrix_product(
            S, beta, matrix_from_columns(alpha_cols, nz + ny)))
        beta_alpha_zero = span_contains(
            S, ny, omega_top.relations or [[zero] * ny], beta_alpha
        )
    return ExactSequenceReport(
        maps={
            "alpha_columns": [[str(p) for p in c] for c in alpha_cols],
            "beta": [[str(p) for p in row] for row in beta],
        },
        exact_at_middle=ker_in_im and beta_alpha_zero,
        surjective_at_right=surj,
        detail={
            "omega_mid": omega_mid.to_json(),
            "omega_composite": omega_comp.to_json(),
            "omega_top": omega_top.to_json(),
            "kernel_generators": [[str(p) for p in v] for v in ker_beta],
        },
    )


def conormal_sequence(psi: AlgebraMap, ideal_gens) -> ExactSequenceReport:
    """I/I^2 -> Omega_psi ox S -> Omega_{Q -> R/I} -> 0 for I in R = psi's target."""
    R = psi.target
    gens = []
    for g in ideal_gens:
        gens.append(R.poly(g) if isinstance(g, str) else g)
    rp1 = relative_presentation(psi)
    amb = rp1.ambient
    Z = rp1.adjoined
    nz = len(Z)
    lifted = [rp1.lift_target(p) for p in gens]
    S = PresentedAlgebra(amb, list(rp1.algebra.relations) + lifted)
    # I/I^2 presented over R (generator order = given ideal generators),
    # then pushed forward to S = R/I
    squares = [[fi * fj] for i, fi in enumerate(lifted) for fj in lifted[i:]]
    conormal = FPModule(S, len(lifted), syzygies(
        [[fi] for fi in lifted], 1, rp1.algebra, untracked=squares))
    g_mid = rp1.relation_polys
    omega_mid = FPModule(S, nz, matrix_columns(jacobian(S, g_mid, Z)))
    # zeta: class of f_i -> d_psi(f_i), one (possibly empty) column per f_i;
    # alpha: identity on the dz generators, whose columns are the unit vectors
    zeta_cols = (matrix_columns(jacobian(S, lifted, Z)) if Z
                 else [[] for _ in lifted])
    omega_comp = FPModule(S, nz, matrix_columns(
        jacobian(S, list(g_mid) + lifted, Z)))
    zero = S.ring.zero()
    one = S.ring.one()
    alpha = linalg.unit_vectors(zero, one, nz)
    if nz == 0:
        surj = True
        middle = True
        well_defined = True
        ker_alpha = []
    else:
        surj = span_contains(S, nz, alpha + omega_comp.relations, alpha)
        ker_alpha = syzygies(alpha, nz, S, untracked=omega_comp.relations)
        middle = span_contains(S, nz, zeta_cols + omega_mid.relations, ker_alpha)
        # relations of I/I^2 must map into the relations of Omega_mid; the
        # rows of zeta_cols, read as a matrix, are the images of the f_i
        images = matrix_product(S, conormal.relations, zeta_cols)
        well_defined = span_contains(
            S, nz, omega_mid.relations or [[zero] * nz], images
        )
    return ExactSequenceReport(
        maps={"zeta_columns": [[str(p) for p in c] for c in zeta_cols]},
        exact_at_middle=middle and well_defined,
        surjective_at_right=surj,
        detail={
            "conormal": conormal.to_json(),
            "omega_mid": omega_mid.to_json(),
            "omega_composite": omega_comp.to_json(),
            "kernel_generators": [[str(p) for p in v] for v in ker_alpha],
            "map_well_defined": well_defined,
        },
    )


# -- derivations --------------------------------------------------------------


def derivation_basis_at_point(phi: AlgebraMap, target_point: dict):
    """Basis of Der_R(S, k(point)) as value vectors on the adjoined variables."""
    kd = kahler_presentation(phi)
    rp = kd.presentation
    pt = rp.transport_point(target_point)
    field = rp.algebra.field
    jac = evaluate_matrix(kd.jacobian, pt)
    # relations: J^T v = 0 where v assigns a value to each dy
    return kd, linalg.nullspace(field, matrix_columns(jac), rp.num_adjoined())


def derivation_value(kd: KahlerDifferentials, values, element, target_point: dict):
    """delta(element) for the derivation with the given dy-values; the
    element lives in the presentation's ambient ring."""
    rp = kd.presentation
    pt = rp.transport_point(target_point)
    field = rp.algebra.field
    total = field.zero()
    for y, v in zip(rp.adjoined, values):
        total = field.add(total, field.mul(element.derivative(y).evaluate(pt), v))
    return total


def leibniz_holds(kd: KahlerDifferentials, values, target_point: dict, samples) -> bool:
    """delta(pq) = delta(p) q(pt) + p(pt) delta(q) on the sample pairs, and
    delta kills relations and base images."""
    rp = kd.presentation
    pt = rp.transport_point(target_point)
    field = rp.algebra.field
    for p, q in samples:
        if isinstance(p, str):
            p = rp.ambient.poly(p)
        if isinstance(q, str):
            q = rp.ambient.poly(q)
        lhs = derivation_value(kd, values, p * q, target_point)
        rhs = field.add(
            field.mul(derivation_value(kd, values, p, target_point), q.evaluate(pt)),
            field.mul(p.evaluate(pt), derivation_value(kd, values, q, target_point)),
        )
        if lhs != rhs:
            return False
    for f in rp.relation_polys:
        if not field.is_zero(derivation_value(kd, values, f, target_point)):
            return False
    for w in rp.phi.source.variables:
        img = rp.ambient.var(w) if w in rp.ambient._var_index else None
        if img is not None and not field.is_zero(
            derivation_value(kd, values, img, target_point)
        ):
            return False
    return True
