"""Kahler differentials of a map of presented algebras.

The module of differentials of phi: R -> S is presented on the symbols
dy for the variables adjoined by a relative presentation S = R[Y]/(f),
with one relation column per f given by the partial derivatives. The
independent cross-check presents the same module as I/I^2 for the kernel
I of the multiplication map S tensor_R S -> S, built once per map by
doubling the adjoined variables; the diagonal smoothness criterion reads
the same S tensor_R S.

Both right-exact sequences of differentials, Jacobi-Zariski and conormal,
go through one check, `_right_exact`: the maps are well defined and
compose to zero, the kernel at the middle lies in the image, and the
last map is onto.
"""

from __future__ import annotations

from .modules import (
    FPModule,
    Matrix,
    evaluate_matrix,
    matrix_product,
    matrix_to_json,
    span_contains,
    syzygies,
    transpose,
)
from .poly import Polynomial, PolyRing, fresh_names
from .rings import AlgebraError, AlgebraMap, Point, PresentedAlgebra, compose
from . import linalg


class KahlerError(AlgebraError):
    pass


class RelativePresentation:
    """S = (base R[Y]) / (f), all living in one ambient polynomial ring.

    `algebra` is S in the relative ambient, `base_algebra` is R[Y] (the same
    ambient, source relations only), `adjoined` is Y, `relation_polys` is f
    in the ambient ring, and `target_renaming` sends each target variable
    to its name in the ambient (empty when none is renamed).  Each
    transported point is kept (`transport_point`).
    """

    def __init__(self, phi: AlgebraMap, algebra: PresentedAlgebra,
                 base_algebra: PresentedAlgebra, adjoined: tuple[str, ...],
                 relation_polys: tuple[Polynomial, ...],
                 target_renaming: dict[str, str] | None = None):
        self.phi, self.algebra, self.base_algebra = phi, algebra, base_algebra
        self.adjoined, self.relation_polys = adjoined, relation_polys
        self.target_renaming = {} if target_renaming is None else target_renaming
        self._points: dict[tuple, Point] = {}  # see `transport_point`

    @property
    def ambient(self) -> PolyRing:
        return self.algebra.ring

    def lift_target(self, p: Polynomial) -> Polynomial:
        """Transport an element of the original target into the ambient."""
        return p.rename_into(self.ambient, self.target_renaming)

    def transport_point(self, target_point: dict) -> Point:
        """Point of the original target as a point of the relative ambient.

        The target point is validated on every call; its transport is kept
        on the presentation, keyed by the parsed target values."""
        pt = self.phi.target.parse_point(target_point)
        key = tuple(pt.values())
        if key not in self._points:
            out = {self.target_renaming.get(v, v): c for v, c in pt.items()}
            for w in self.phi.source.variables:
                if w not in out:
                    out[w] = self.phi.images[w].evaluate(pt)
            self._points[key] = self.algebra.parse_point(out)
        return self._points[key]

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


class KahlerDifferentials:
    """Presentation of Omega_phi on the symbols d(y), y adjoined."""

    def __init__(self, presentation: RelativePresentation, module: FPModule):
        self.presentation, self.module = presentation, module

    def dim_at_point(self, target_point: dict) -> int:
        return self.module.dim_at_point(self.presentation.transport_point(target_point))


def jacobian(algebra: PresentedAlgebra, polys, variables) -> Matrix:
    """One column per p, one entry per variable v: the normal form of dp/dv."""
    return [[algebra.normal_form(p.derivative(v)) for v in variables]
            for p in polys]


def jacobian_matrix(rp: RelativePresentation) -> Matrix:
    """Columns are d(f_i) expanded over the adjoined variables."""
    return jacobian(rp.algebra, rp.relation_polys, rp.adjoined)


def kahler_presentation(phi: AlgebraMap) -> KahlerDifferentials:
    """The Jacobian presentation of the differentials, built once per map."""
    return phi.derived(_kahler_presentation)


def _kahler_presentation(phi: AlgebraMap) -> KahlerDifferentials:
    rp = relative_presentation(phi)
    module = FPModule(rp.algebra, rp.num_adjoined(), jacobian_matrix(rp))
    return KahlerDifferentials(presentation=rp, module=module)


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
    in `base`: one column per other variable of the source, the partials
    of its image along the target's other variables."""
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
    pushed = [[sigma.apply(p) for p in col]
              for col in jacobian_of_map(psi, base)]
    product = matrix_product(sigma.target, jacobian_of_map(sigma, base),
                             pushed, len(sigma.target.variables) - len(base))
    return product == jacobian_of_map(composed, base)


# -- towers and exact sequences ---------------------------------------------


def tower_presentation(psi: AlgebraMap, phi: AlgebraMap):
    """Q -> R -> S with both stages presented in one shared ambient ring:
    (S, Z, Y, g, f) with R = Q[Z]/(g) and S = R[Y]/(f)."""
    if psi.target != phi.source:
        raise KahlerError("maps do not compose")
    rp1 = relative_presentation(psi)
    # identify rp1.algebra with R, then map on to S
    iota_images = {w: phi.apply(psi.images[w]) for w in psi.source.variables}
    iota_images.update((rp1.target_renaming.get(v, v), phi.images[v])
                       for v in psi.target.variables)
    chi = AlgebraMap(rp1.algebra, phi.target, iota_images)
    rp2 = relative_presentation(chi)
    g = tuple(r.rename_into(rp2.ambient) for r in rp1.relation_polys)
    return rp2.algebra, rp1.adjoined, rp2.adjoined, g, rp2.relation_polys


class ExactSequenceReport:
    def __init__(self, maps: dict, exact_at_middle: bool,
                 surjective_at_right: bool, detail: dict):
        self.maps, self.detail = maps, detail
        self.exact_at_middle = exact_at_middle
        self.surjective_at_right = surjective_at_right

    @property
    def ok(self) -> bool:
        return self.exact_at_middle and self.surjective_at_right


def _right_exact(S: PresentedAlgebra, first: FPModule, second: FPModule,
                 third: FPModule, f: Matrix, g: Matrix):
    """Groebner certificates for first --f--> second --g--> third -> 0 over
    S, f and g given by their columns: (f and g send relations into
    relations and g.f = 0, ker g lies in im f, g is onto, generators of
    ker g).  With no generators in third, ker g is all of second."""
    m, n = second.gens, third.gens
    well_defined = (
        span_contains(S, m, second.relations,
                      matrix_product(S, f, first.relations, m))
        and span_contains(S, n, third.relations,
                          matrix_product(S, g, second.relations + f, n)))
    zero, one = S.ring.zero(), S.ring.one()
    ker_g = (syzygies(g, n, S, untracked=third.relations) if n
             else linalg.unit_vectors(zero, one, m))
    middle = span_contains(S, m, f + second.relations, ker_g)
    onto = span_contains(S, n, g + third.relations,
                         linalg.unit_vectors(zero, one, n))
    return well_defined, middle, onto, ker_g


def jacobi_zariski_right_exact(psi: AlgebraMap, phi: AlgebraMap) -> ExactSequenceReport:
    """Omega_psi ox S -> Omega_{phi.psi} -> Omega_phi -> 0, with Groebner
    certificates for exactness at the middle and surjectivity at the right."""
    S, Z, Y, g, f = tower_presentation(psi, phi)
    nz, ny = len(Z), len(Y)
    # presentations: Omega_psi ox S on dZ; Omega_{phi psi} on dZ+dY; Omega_phi on dY
    omega_mid = FPModule(S, nz, jacobian(S, g, Z))
    omega_comp = FPModule(S, nz + ny, jacobian(S, g + f, Z + Y))
    omega_top = FPModule(S, ny, jacobian(S, f, Y))
    # alpha: dz -> dz (inclusion); beta: dz -> d_phi(z) = 0, dy -> dy.
    # The columns of alpha and the rows of beta are unit vectors.
    units = linalg.unit_vectors(S.ring.zero(), S.ring.one(), nz + ny)
    alpha_cols, beta = units[:nz], transpose(units[nz:], nz + ny)
    well_defined, middle, onto, ker_beta = _right_exact(
        S, omega_mid, omega_comp, omega_top, alpha_cols, beta)
    return ExactSequenceReport(
        maps={"alpha_columns": [[str(p) for p in c] for c in alpha_cols],
              "beta": matrix_to_json(beta, ny)},
        exact_at_middle=middle and well_defined,
        surjective_at_right=onto,
        detail={
            "omega_mid": omega_mid.to_json(),
            "omega_composite": omega_comp.to_json(),
            "omega_top": omega_top.to_json(),
            "kernel_generators": [[str(p) for p in v] for v in ker_beta],
        },
    )


def conormal_sequence(psi: AlgebraMap, ideal_gens) -> ExactSequenceReport:
    """I/I^2 -> Omega_psi ox S -> Omega_{Q -> R/I} -> 0 for I in R = psi's target."""
    rp1 = relative_presentation(psi)
    Z, nz = rp1.adjoined, len(rp1.adjoined)
    lifted = [rp1.lift_target(psi.target.poly(p) if isinstance(p, str) else p)
              for p in ideal_gens]
    S = PresentedAlgebra(rp1.ambient, list(rp1.algebra.relations) + lifted)
    # I/I^2 presented over R (generator order = given ideal generators),
    # then pushed forward to S = R/I
    squares = [[fi * fj] for i, fi in enumerate(lifted) for fj in lifted[i:]]
    conormal = FPModule(S, len(lifted), syzygies(
        [[fi] for fi in lifted], 1, rp1.algebra, untracked=squares))
    omega_mid = FPModule(S, nz, jacobian(S, rp1.relation_polys, Z))
    omega_comp = FPModule(S, nz, jacobian(S, rp1.relation_polys + tuple(lifted), Z))
    # zeta: class of f_i -> d_psi(f_i), one (possibly empty) column per f_i;
    # alpha: identity on the dz generators, whose columns are the unit vectors
    zeta_cols = jacobian(S, lifted, Z)
    alpha = linalg.unit_vectors(S.ring.zero(), S.ring.one(), nz)
    well_defined, middle, onto, ker_alpha = _right_exact(
        S, conormal, omega_mid, omega_comp, zeta_cols, alpha)
    return ExactSequenceReport(
        maps={"zeta_columns": [[str(p) for p in c] for c in zeta_cols]},
        exact_at_middle=middle and well_defined,
        surjective_at_right=onto,
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
    # relations: J^T v = 0 where v assigns a value to each dy; the relation
    # columns span the rows of J^T
    return kd, linalg.nullspace(field, evaluate_matrix(kd.module.relations, pt),
                                rp.num_adjoined())


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
