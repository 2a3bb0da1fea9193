"""Truncated cotangent complexes: both construction modes, their
cross-agreement, Tor comparisons, and the structural checks."""

from itertools import product

import pytest
from shared import CORPUS_BUILDERS

from aq import corpus, linalg
from aq.classify import _with_order, classification_report
from aq.corpus import algebra, canonical_surjection, inclusion_from_ground
from aq.cotangent import (
    CotangentError,
    aq_cohomology,
    aq_homology,
    base_change_check,
    cotangent_from_resolution,
    cotangent_trunc2,
    epsilon_entry,
    five_term_check,
    hypersurface_closed_form_differential,
    hypersurface_rank_table,
    jacobi_zariski_window,
    rank_exactness_check,
    retract_check,
    tor_modules,
)
from aq.fields import GF, QQ
from aq.groebner import SubmoduleEngine
from aq.kahler import RelativePresentation
from aq.modules import FPModule, FreeComplex, evaluate_matrix, koszul_complex
from aq.orders import MonomialOrder
from aq.rings import AlgebraError, AlgebraMap, PointError, compose
from aq.simplicial import (bar_construction, constant_extension,
                           hypersurface_resolution, tensor_resolutions)

ORIGIN = {"x": 0, "y": 0}


def cusp():
    return algebra(QQ, ("x", "y"), ["x^3 - y^2"])


def fat_point():
    return algebra(QQ, ("x", "y"), ["x^2", "x*y", "y^2"])


# -- degree <= 2 truncation ---------------------------------------------------


def test_cusp_over_ground_dims():
    trunc = cotangent_trunc2(inclusion_from_ground(cusp()))
    assert trunc.dims_through(ORIGIN, 2) == [2, 1, 0]
    assert trunc.dims_through({"x": 1, "y": 1}, 2) == [1, 0, 0]


def test_cusp_surjection_dims():
    phi = canonical_surjection(cusp())
    trunc = cotangent_trunc2(phi)
    assert trunc.dims_through(ORIGIN, 2) == [0, 1, 0]


def test_fat_point_sees_degree_two():
    trunc = cotangent_trunc2(inclusion_from_ground(fat_point()))
    assert trunc.dims_through(ORIGIN, 2) == [2, 3, 2]


def test_polynomial_extension_vanishing():
    base = algebra(QQ, ("t",))
    target = algebra(QQ, ("t", "u", "v"))
    trunc = cotangent_trunc2(AlgebraMap(base, target, {}))
    assert trunc.dims_through({"t": 1, "u": 0, "v": 2}, 2) == [2, 0, 0]


def test_degree_three_needs_resolution():
    with pytest.raises(CotangentError, match="insufficient machinery"):
        aq_homology(inclusion_from_ground(cusp()), ORIGIN, n_max=3)


# -- resolution mode and cross-agreement ----------------------------------------


def test_resolution_matches_truncation_on_hypersurface():
    plane = algebra(QQ, ("x", "y"))
    f = plane.poly("x^3 - y^2")
    ext = hypersurface_resolution(plane, f, 4)
    res = cotangent_from_resolution(ext)
    surj = AlgebraMap(plane, algebra(QQ, ("x", "y"), ["x^3 - y^2"]), {})
    tr2 = cotangent_trunc2(surj)
    for q in (ORIGIN, {"x": 1, "y": 1}):
        assert [res.dim_at_point(n, q) for n in range(3)] == \
               [tr2.dim_at_point(n, q) for n in range(3)]


def test_hypersurface_homology_is_shifted_quotient():
    line = algebra(QQ, ("x",))
    ext = hypersurface_resolution(line, line.poly("x^2"), 6)
    trunc = cotangent_from_resolution(ext)
    assert trunc.complex.homology(1).free_rank() == 1
    for n in (0, 2, 3, 4):
        assert trunc.complex.homology(n).is_zero()


def test_homology_is_zero_equals_the_presented_homology_on_hypersurfaces():
    for case in corpus.hypersurface_instances():
        ext = hypersurface_resolution(case["algebra"], case["element"], 5)
        complex = cotangent_from_resolution(ext).complex
        for n in range(5):
            assert (complex.homology_is_zero(n)
                    == complex.homology(n).is_zero()), (case["name"], n)


def test_closed_form_differentials_square_to_zero():
    S = algebra(QQ, ("x",), ["x^2"])
    for n in range(2, 7):
        a = hypersurface_closed_form_differential(S, n)
        b = hypersurface_closed_form_differential(S, n + 1)
        prod = [[sum((a[i][k] * b[k][j] for k in range(len(b))), S.ring.zero())
                 for j in range(len(b[0]))] for i in range(len(a))]
        assert all(S.normal_form(e).is_zero() for row in prod for e in row)


def test_resolution_complex_applies_once_per_entry(monkeypatch):
    import aq.cotangent
    plane = algebra(QQ, ("x", "y"))
    ext = hypersurface_resolution(plane, "x^3 - y^2", 6)
    applied = []
    real = aq.cotangent.augmentation_maps

    def counting_maps(ext):
        maps = real(ext)
        for amap in maps:
            amap.apply = (lambda p, apply=amap.apply:
                          applied.append(p) or apply(p))
        return maps

    monkeypatch.setattr(aq.cotangent, "augmentation_maps", counting_maps)
    diffs = cotangent_from_resolution(ext).complex.diffs
    assert sorted(diffs) == list(range(2, ext.max_level + 1))
    assert len(applied) == sum(len(m) * len(m[0]) for m in diffs.values())


def test_epsilon_rank_table_values():
    assert [hypersurface_rank_table(n) for n in range(2, 7)] == [0, 2, 1, 3, 2]
    assert epsilon_entry(0, 1) == 0  # degree-2 differential vanishes


def test_closed_forms_refuse_degrees_below_their_range():
    assert epsilon_entry(3, 1) == 0  # the empty alternating sum
    with pytest.raises(CotangentError, match="rank table starts at degree 2"):
        hypersurface_rank_table(1)
    with pytest.raises(CotangentError, match="closed form needs n >= 1"):
        hypersurface_closed_form_differential(cusp(), 0)


@pytest.mark.parametrize("target", [
    lambda: algebra(QQ, ("x", "t")),
    lambda: algebra(QQ, ("x", "y")),
    fat_point,
], ids=["other-variables", "fewer-relations", "more-relations"])
def test_a_resolution_of_another_map_is_refused(target):
    ext = hypersurface_resolution(algebra(QQ, ("x", "y")), "x^3 - y^2", 3)
    with pytest.raises(CotangentError, match="resolution does not resolve this map"):
        aq_homology(canonical_surjection(target()), ORIGIN, resolution=ext)


def test_a_truncation_is_no_resolution():
    phi = canonical_surjection(cusp())
    with pytest.raises(CotangentError, match="not resolution-derived"):
        aq_homology(phi, ORIGIN, resolution=cotangent_trunc2(phi))


def test_coefficients_over_an_unrelated_algebra_are_refused():
    module = FPModule(algebra(QQ, ("t",)), 1, [])
    with pytest.raises(CotangentError, match="module lives over a different algebra"):
        aq_homology(inclusion_from_ground(cusp()), module)


def test_resolution_failing_its_identities_is_refused():
    line = algebra(QQ, ("x",))
    ext = bar_construction(line, "x", 4)
    # the correct s_0 sends x1_0 to x2_1
    ext.set_operator("s", 1, 0, {"x1_0": ext.ring(2).var("x2_0")})
    ok, failures = ext.simplicial_identities_hold()
    assert not ok and failures
    with pytest.raises(CotangentError, match="simplicial identities fail"):
        cotangent_from_resolution(ext)


def test_a_constant_tensor_factor_changes_nothing():
    # K(nothing) is the algebra itself, so the tensor resolves like bar alone
    plane = algebra(QQ, ("x", "y"))
    bar = bar_construction(plane, "y", 4)
    ext = tensor_resolutions(constant_extension(plane, 4), bar)
    for coefficients in (None, {"x": 1, "y": 0}):
        want = aq_homology(None, coefficients, n_max=3, resolution=bar)
        got = aq_homology(None, coefficients, n_max=3, resolution=ext)
        assert got.to_json() == want.to_json()


def test_rank_exactness_certificate():
    line = algebra(QQ, ("x",))
    ext = hypersurface_resolution(line, line.poly("x^2"), 6)
    trunc = cotangent_from_resolution(ext)
    result = rank_exactness_check(trunc.complex, [{"x": 0}])
    assert result["passes"]


# -- homology and cohomology reports ---------------------------------------------


def test_homology_report_shapes():
    report = aq_homology(inclusion_from_ground(cusp()), ORIGIN, n_max=2)
    assert report.dims() == {0: 2, 1: 1, 2: 0}
    mod_report = aq_homology(inclusion_from_ground(cusp()), None, n_max=2)
    js = mod_report.to_json()
    assert {d["n"] for d in js["degrees"]} == {0, 1, 2}


def test_cohomology_dims_match_homology_over_field():
    phi = inclusion_from_ground(cusp())
    hom = aq_homology(phi, ORIGIN, n_max=2).dims()
    coh = aq_cohomology(phi, ORIGIN, n_max=2).dims()
    assert hom == coh


# -- Tor and the five-term comparison ---------------------------------------------


def test_tor_of_hypersurface():
    tor = tor_modules(canonical_surjection(cusp()), n_max=3)
    assert tor.dim_at_point(0, ORIGIN) == 1
    assert tor.dim_at_point(1, ORIGIN) == 1
    assert tor.dim_at_point(2, ORIGIN) == 0


def test_tor_of_fat_point():
    tor = tor_modules(canonical_surjection(fat_point()), n_max=2)
    assert tor.dim_at_point(1, ORIGIN) == 3
    assert tor.dim_at_point(2, ORIGIN) == 2


def test_tor_stops_at_degree_three():
    with pytest.raises(CotangentError, match="built through degree 3 only"):
        tor_modules(canonical_surjection(cusp()), n_max=4)


def test_tor_requires_surjection():
    base = algebra(QQ, ("t",))
    target = algebra(QQ, ("t", "y"))
    with pytest.raises(CotangentError):
        tor_modules(AlgebraMap(base, target, {}), n_max=2)


def test_five_term_identity_on_fat_point():
    result = five_term_check(canonical_surjection(fat_point()), [ORIGIN])
    assert result["passes"]
    row = result["per_point"][0]
    assert row["aq2"] == row["tor2"] - row["rank_w"]


def test_tor_matches_the_koszul_complex_of_the_point():
    # Tor is balanced: Tor_n^P(B, k(q)) is also H_n of the Koszul complex
    # on x_i - q_i over B, which shares no stage with the syzygy resolution
    compared = 0
    for entry in corpus.random_surjections():
        phi = entry["map"]
        B, ring = phi.target, phi.target.ring
        tor = tor_modules(phi, 2)
        for q in entry["points"]:
            koszul = koszul_complex(
                B, [ring.var(v) - ring.from_int(q[v]) for v in B.variables])
            dims = tor.dims_through(q, 2)
            for n in (1, 2):
                assert koszul.homology(n).dim_at_point(q) == dims[n], \
                    (entry["name"], q, n)
                compared += 1
    assert compared == 100


# -- one truncation per map ----------------------------------------------------


def test_truncation_is_built_once_per_map():
    phi = canonical_surjection(fat_point())
    assert cotangent_trunc2(phi) is cotangent_trunc2(phi)


def test_tor_reads_the_stages_of_the_truncation():
    phi = canonical_surjection(fat_point())
    assert tor_modules(phi).provenance["stages"] is \
        cotangent_trunc2(phi).provenance["stages"]


def test_five_term_check_builds_the_stages_once(monkeypatch):
    from aq.cotangent import _Trunc2Data
    built = []
    init = _Trunc2Data.__init__

    def counting_init(self, rp):
        built.append(rp)
        init(self, rp)

    monkeypatch.setattr(_Trunc2Data, "__init__", counting_init)
    assert five_term_check(canonical_surjection(cusp()), [ORIGIN])["passes"]
    assert len(built) == 1


def test_a_koszul_vector_that_is_no_syzygy_is_refused(monkeypatch):
    """Each Koszul vector must lift onto the syzygies of the relations;
    this lift is what checks d_1 d_2 = 0 of K(f)."""
    import aq.cotangent

    def not_a_syzygy(ring, elements, n):
        return [[ring.one()] + [ring.zero()] * (len(elements) - 1)]

    monkeypatch.setattr(aq.cotangent, "koszul_columns", not_a_syzygy)
    phi = canonical_surjection(algebra(QQ, ("x", "y"), ["x", "y"]))
    with pytest.raises(CotangentError, match="Koszul syzygy failed to lift"):
        cotangent_trunc2(phi)


def test_truncation_builds_one_complex(monkeypatch):
    built = []
    init = FreeComplex.__init__

    def counting_init(self, algebra, ranks, diffs):
        built.append(ranks)
        init(self, algebra, ranks, diffs)

    monkeypatch.setattr(FreeComplex, "__init__", counting_init)
    trunc = cotangent_trunc2(canonical_surjection(fat_point()))
    assert len(built) == 1
    top = trunc.provenance["stages"].top_relation_columns()
    assert top and trunc.complex.rank(3) == len(top)


def test_tor_builds_only_the_stages_its_degrees_need(monkeypatch):
    import aq.cotangent
    origin = {"x": 0, "y": 0, "z": 0}
    phi = canonical_surjection(algebra(QQ, ("x", "y", "z"), ["x", "y", "z"]))
    assert cotangent_trunc2(phi).provenance["stages"].second_syzygies
    calls = []
    real = aq.cotangent.syzygies

    def counting_syzygies(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(aq.cotangent, "syzygies", counting_syzygies)
    tor = tor_modules(phi, n_max=1)
    assert calls == []
    assert tor.dim_at_point(1, origin) == 3
    with pytest.raises(CotangentError, match="through degree 1"):
        tor.dim_at_point(2, origin)
    # Tor_3(k, k) over k[x, y, z] is one-dimensional
    assert tor_modules(phi, n_max=3).dim_at_point(3, origin) == 1
    assert len(calls) == 1


def test_five_term_check_reads_tor_through_degree_two(monkeypatch):
    phi = canonical_surjection(algebra(QQ, ("x", "y", "z"), ["x", "y", "z"]))
    built = []
    init = SubmoduleEngine.__init__

    def counting_init(self, ring, rank, *args):
        built.append(rank)
        init(self, ring, rank, *args)

    monkeypatch.setattr(SubmoduleEngine, "__init__", counting_init)
    assert five_term_check(phi, [{"x": 0, "y": 0, "z": 0}])["passes"]
    # one elimination over the relations and one over their syzygies, which
    # gives both the second syzygies and the Koszul lifts; no third syzygies
    assert built == [1, 3]


def test_five_term_check_and_degree_one_tor_build_one_tor_complex(
        monkeypatch):
    import aq.cotangent
    phi = canonical_surjection(cusp())
    cotangent_trunc2(phi)
    built = []

    class CountingComplex(FreeComplex):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(aq.cotangent, "FreeComplex", CountingComplex)
    assert five_term_check(phi, [ORIGIN, {"x": 1, "y": 1}])["passes"]
    # one relation: Tor_1 at the origin is the fiber of the ideal
    assert tor_modules(phi, n_max=1).dim_at_point(1, ORIGIN) == 1
    assert len(built) == 1


def test_each_point_is_transported_once(monkeypatch):
    from aq.classify import is_lci_at
    calls = []
    real = RelativePresentation.transport_point

    def counting_transport(self, point):
        calls.append(point)
        return real(self, point)

    monkeypatch.setattr(RelativePresentation, "transport_point",
                        counting_transport)
    points = [ORIGIN, {"x": 1, "y": 1}]
    phi = canonical_surjection(cusp())
    assert five_term_check(phi, points)["passes"]
    assert len(calls) == len(points)
    calls.clear()
    assert is_lci_at(phi, ORIGIN)["verdict"]
    assert len(calls) == 1


# -- one residue-field reader ----------------------------------------------------


def _reference_dim(complex, n, point):
    """dim_k H_n(C tensor k(point)), one degree at a time, each degree
    ranking both of its differentials."""
    pt = complex.algebra.parse_point(point)
    field = complex.algebra.field
    rn = complex.rank(n)
    if rn == 0:
        return 0
    rank_in = rank_out = 0
    if complex.rank(n - 1):
        rank_in = linalg.rank(
            field, evaluate_matrix(complex.differential(n), pt))
    if complex.rank(n + 1):
        rank_out = linalg.rank(
            field, evaluate_matrix(complex.differential(n + 1), pt))
    return rn - rank_in - rank_out


def _outcome(compute):
    try:
        return compute()
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)


def _corpus_maps():
    for family in CORPUS_BUILDERS:
        for entry in getattr(corpus, family)():
            points = entry.get("points") or [entry.get("point", {})]
            for key in sorted(entry):
                if isinstance(entry[key], AlgebraMap):
                    yield entry[key], points


def test_reader_matches_the_per_degree_formula_on_the_corpus():
    compared = 0
    for phi, points in _corpus_maps():
        readers = [(cotangent_trunc2(phi), 2)]
        tor = _outcome(lambda: tor_modules(phi, 3))
        if not isinstance(tor, tuple):
            readers.append((tor, 3))
        for trunc, top in readers:
            for q in points:
                want = _outcome(lambda: [
                    _reference_dim(trunc.complex, n, trunc.transport_point(q))
                    for n in range(top + 1)])
                assert _outcome(lambda: trunc.dims_through(q, top)) == want
                compared += not isinstance(want, tuple)
    assert compared > 100


def _verdicts(report):
    return [r["verdict"] for r in report.rows], report.global_flag


def test_residue_dims_and_verdicts_do_not_depend_on_the_monomial_order():
    # dims of D_0..D_2 at a rational point are invariants of the map, and so
    # are the classifier's verdicts: under degrevlex and under lex, the same
    # map must give the same
    compared = 0
    for family in ("random_surjections", "polynomial_extension_instances",
                   "random_base_extensions", "classifier_corpus"):
        for entry in getattr(corpus, family)():
            subject = entry.get("map", entry.get("subject"))
            twin = (_with_order(subject, "lex") if isinstance(subject, AlgebraMap)
                    else subject.with_order(MonomialOrder("lex")))
            if "property" in entry:
                assert _verdicts(classification_report(
                    entry["property"], twin, entry["points"])) == _verdicts(
                    classification_report(entry["property"], subject, entry["points"]))
            if not isinstance(subject, AlgebraMap):
                continue
            for q in entry["points"]:
                want = _outcome(lambda: cotangent_trunc2(subject).dims_through(q, 2))
                assert _outcome(lambda: cotangent_trunc2(twin).dims_through(q, 2)) \
                    == want, (entry["name"], q)
                compared += not isinstance(want, tuple)
    assert compared == 135


def test_reader_matches_the_per_degree_formula_on_resolutions():
    plane = algebra(QQ, ("x", "y"))
    exts = [bar_construction(plane, "x", 4),
            bar_construction(cusp(), "x", 4),
            hypersurface_resolution(plane, plane.poly("x^3 - y^2"), 4),
            hypersurface_resolution(plane, plane.poly("x*y"), 4)]
    for ext in exts:
        trunc = cotangent_from_resolution(ext)
        complex = trunc.complex
        point = _rational_point(complex.algebra)
        assert point is not None
        top = trunc.cutoff
        want = [_reference_dim(complex, n, point) for n in range(top + 1)]
        assert complex.dims_through(point, top) == want
        assert trunc.dims_through(point, top - 1) == want[:top]


def test_reader_transports_the_point_once(monkeypatch):
    trunc = cotangent_trunc2(inclusion_from_ground(cusp()))
    calls = []
    real = RelativePresentation.transport_point

    def counting_transport(self, point):
        calls.append(point)
        return real(self, point)

    monkeypatch.setattr(RelativePresentation, "transport_point",
                        counting_transport)
    assert trunc.dims_through(ORIGIN, 2) == [2, 1, 0]
    assert len(calls) == 1


# -- base change, retracts, composite windows -------------------------------------


def test_base_change_along_polynomial_extension():
    F5 = GF(5)
    base = algebra(F5, ())
    target = algebra(F5, ("x",), ["x^2 - 4"])
    rho = AlgebraMap(base, algebra(F5, ("t",)), {})
    result = base_change_check(inclusion_from_ground(target), rho,
                               [{"t": 0, "x": 2}, {"t": 1, "x": 3}])
    assert result["passes"]


@pytest.mark.parametrize("phi_prime, rho, points", [
    # the cusp's surjection, with a free variable t adjoined
    (lambda: canonical_surjection(cusp()),
     lambda: AlgebraMap(algebra(QQ, ("x", "y")), algebra(QQ, ("x", "y", "t")), {}),
     [{"x": 0, "y": 0, "t": 0}, {"x": 1, "y": 1, "t": 2}]),
    # the diagonal x = y, pulled back along x -> u^2, y -> u^3
    (lambda: canonical_surjection(algebra(QQ, ("x", "y"), ["x - y"])),
     lambda: AlgebraMap(algebra(QQ, ("x", "y")), algebra(QQ, ("u",)),
                        {"x": "u^2", "y": "u^3"}),
     [{"u": 0}, {"u": 1}]),
], ids=["cusp-times-line", "diagonal-on-a-cusp"])
def test_base_change_with_a_source_that_has_variables(phi_prime, rho, points):
    result = base_change_check(phi_prime(), rho(), points)
    assert result["passes"]
    assert [row["dims"] for row in result["per_point"]] == [[0, 1, 0]] * 2


def test_base_change_needs_maps_with_one_source():
    with pytest.raises(CotangentError, match="maps must share their source"):
        base_change_check(
            inclusion_from_ground(cusp()),
            AlgebraMap(algebra(QQ, ("t",)), algebra(QQ, ("t", "u")), {}),
            [{"t": 0, "u": 0}])


def test_retract_shifts_degrees():
    result = retract_check(cusp(), [ORIGIN, {"x": 1, "y": 1}])
    assert result["passes"]


@pytest.mark.parametrize("check, message", [
    (lambda: rank_exactness_check(
        cotangent_trunc2(inclusion_from_ground(cusp())).complex, []),
     "rank exactness needs at least one sample point"),
    # not a surjection, so Tor would refuse the map if it were built first
    (lambda: five_term_check(inclusion_from_ground(cusp()), []),
     "five-term check needs at least one sample point"),
    # the maps share no source, so the pushout would refuse them if built
    (lambda: base_change_check(
        inclusion_from_ground(cusp()),
        AlgebraMap(algebra(QQ, ("t",)), algebra(QQ, ("t", "u")), {}), []),
     "base change check needs at least one point"),
    (lambda: retract_check(cusp(), []),
     "retract check needs at least one point"),
], ids=["rank-exactness", "five-term", "base-change", "retract"])
def test_sampled_checks_refuse_an_empty_point_list_first(check, message):
    with pytest.raises(CotangentError) as refused:
        check()
    assert str(refused.value) == message


def test_jacobi_zariski_window_on_cusp_tower():
    plane = algebra(QQ, ("x", "y"))
    psi = inclusion_from_ground(plane)
    phi = AlgebraMap(plane, cusp(), {})
    result = jacobi_zariski_window(psi, phi, ORIGIN)
    assert result["consistent"] and result["extended_consistent"]
    assert result["window"] == [0, 1, 1, 2, 2, 0]


def test_window_composite_agrees_with_direct():
    plane = algebra(QQ, ("x", "y"))
    psi = inclusion_from_ground(plane)
    phi = AlgebraMap(plane, cusp(), {})
    chi = compose(phi, psi)
    direct = cotangent_trunc2(chi)
    assert direct.dims_through(ORIGIN, 2) == [2, 1, 0]


# -- coefficients and resolution length -----------------------------------------


def _residue_module(S, point):
    return FPModule(S, 1, [[S.poly(f"{v} - {point[v]}")] for v in S.variables])


@pytest.mark.parametrize("make_map, point, dims", [
    (inclusion_from_ground, ORIGIN, [2, 1, 0]),
    (inclusion_from_ground, {"x": 1, "y": 1}, [1, 0, 0]),
    (canonical_surjection, ORIGIN, [0, 1, 0]),
    (canonical_surjection, {"x": 1, "y": 1}, [0, 1, 0]),
])
def test_residue_field_as_a_module_gives_the_point_dims(make_map, point, dims):
    S = cusp()
    phi = make_map(S)
    residue = _residue_module(S, point)
    assert aq_homology(phi, point).dims() == dict(enumerate(dims))
    for report in (aq_homology, aq_cohomology):
        want = report(phi, point).dims()
        got = {e["n"]: e["module"].dim_at_point(point)
               for e in report(phi, residue).entries}
        assert got == want


@pytest.mark.parametrize("point, dims", [
    ({"x": 0, "y": 0}, [1, 1, 0]),
    ({"x": 1, "y": 1}, [0, 0, 0]),
])
def test_a_target_module_is_lifted_to_the_relative_presentation(point, dims):
    """t -> x + y presents the cusp over QQ[t] on the ambient t, x, y, so a
    module over the cusp reaches the truncation through `lift_target`."""
    S = cusp()
    psi = AlgebraMap(algebra(QQ, ("t",)), S, {"t": "x + y"})
    trunc = cotangent_trunc2(psi)
    assert trunc.algebra.variables == ("t", "x", "y")
    at = trunc.transport_point(point)
    got = [e["module"].dim_at_point(at)
           for e in aq_homology(psi, _residue_module(S, point)).entries]
    assert got == dims == list(aq_homology(psi, point).dims().values())


def test_a_target_module_is_renamed_onto_a_resolution():
    """The resolution of 2*x^3 - 2*y^2 ends in another presentation of the
    cusp on the same variables, so a module over the cusp is renamed onto
    it."""
    S = cusp()
    phi = canonical_surjection(S)
    trunc = cotangent_from_resolution(hypersurface_resolution(
        algebra(QQ, ("x", "y")), "2*x^3 - 2*y^2", 4))
    assert trunc.algebra != S and trunc.algebra.variables == S.variables
    at = trunc.transport_point(ORIGIN)
    got = [e["module"].dim_at_point(at)
           for e in aq_homology(phi, _residue_module(S, ORIGIN), n_max=3,
                                resolution=trunc).entries]
    want = aq_homology(phi, ORIGIN, n_max=3, resolution=trunc).dims()
    assert got == [0, 1, 0, 0] == list(want.values())


def _rational_point(algebra):
    """A point with coordinates in -2..2, or None."""
    for values in product(range(-2, 3), repeat=len(algebra.variables)):
        try:
            return algebra.parse_point(dict(zip(algebra.variables, values)))
        except PointError:
            continue
    return None


@pytest.mark.parametrize("case", corpus.hypersurface_instances(),
                         ids=lambda case: case["name"])
def test_one_level_past_the_degree_is_enough(case):
    """Homology through degree d from a (d+1)-level resolution equals that
    from a (d+2)-level one."""
    truncs = {}
    for level in range(4, 9):
        ext = hypersurface_resolution(case["algebra"], case["element"], level)
        truncs[level] = cotangent_from_resolution(ext)
    point = _rational_point(truncs[4].algebra)
    for d in range(3, 7):
        short, long = truncs[d + 1], truncs[d + 2]
        a = aq_homology(None, None, n_max=d, resolution=short).to_json()
        b = aq_homology(None, None, n_max=d, resolution=long).to_json()
        assert a["degrees"] == b["degrees"]
        if point is not None:
            assert (aq_homology(None, point, n_max=d, resolution=short).dims()
                    == aq_homology(None, point, n_max=d, resolution=long).dims())
