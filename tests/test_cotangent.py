"""Truncated cotangent complexes: both construction modes, their
cross-agreement, Tor comparisons, and the structural checks."""

from itertools import product

import pytest

from aq import corpus
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
from aq.modules import FPModule
from aq.rings import AlgebraMap, PointError, compose
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
        assert [res.homology_dim(n, q) for n in range(3)] == \
               [tr2.homology_dim(n, q) for n in range(3)]


def test_hypersurface_homology_is_shifted_quotient():
    line = algebra(QQ, ("x",))
    ext = hypersurface_resolution(line, line.poly("x^2"), 6)
    trunc = cotangent_from_resolution(ext)
    assert trunc.homology_module(1).free_rank() == 1
    for n in (0, 2, 3, 4):
        assert trunc.homology_module(n).is_zero()


def test_closed_form_differentials_square_to_zero():
    S = algebra(QQ, ("x",), ["x^2"])
    for n in range(2, 7):
        a = hypersurface_closed_form_differential(S, n)
        b = hypersurface_closed_form_differential(S, n + 1)
        prod = [[sum((a[i][k] * b[k][j] for k in range(len(b))), S.ring.zero())
                 for j in range(len(b[0]))] for i in range(len(a))]
        assert all(S.normal_form(e).is_zero() for row in prod for e in row)


def test_epsilon_rank_table_values():
    assert [hypersurface_rank_table(n) for n in range(2, 7)] == [0, 2, 1, 3, 2]
    assert epsilon_entry(0, 1) == 0  # degree-2 differential vanishes


def test_resolution_failing_its_identities_is_refused():
    line = algebra(QQ, ("x",))
    ext = bar_construction(line, "x", 4)
    # the correct s_0 sends x1_0 to x2_1
    ext.set_operator("s", 1, 0, {"x1_0": ext.ring(2).var("x2_0")})
    ok, failures = ext.simplicial_identities_hold()
    assert not ok and failures
    with pytest.raises(CotangentError, match="simplicial identities fail"):
        cotangent_from_resolution(ext, 3)


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


# -- one truncation per map ----------------------------------------------------


def test_truncation_is_built_once_per_map():
    phi = canonical_surjection(fat_point())
    assert cotangent_trunc2(phi) is cotangent_trunc2(phi)


def test_tor_reads_the_stages_of_the_truncation():
    phi = canonical_surjection(fat_point())
    assert tor_modules(phi).stages is \
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


# -- base change, retracts, composite windows -------------------------------------


def test_base_change_along_polynomial_extension():
    F5 = GF(5)
    base = algebra(F5, ())
    target = algebra(F5, ("x",), ["x^2 - 4"])
    rho = AlgebraMap(base, algebra(F5, ("t",)), {})
    result = base_change_check(inclusion_from_ground(target), rho,
                               [{"t": 0, "x": 2}, {"t": 1, "x": 3}])
    assert result["passes"]


def test_retract_shifts_degrees():
    result = retract_check(cusp(), [ORIGIN, {"x": 1, "y": 1}])
    assert result["passes"]


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


@pytest.mark.parametrize("make_map, point, dims", [
    (inclusion_from_ground, ORIGIN, [2, 1, 0]),
    (inclusion_from_ground, {"x": 1, "y": 1}, [1, 0, 0]),
    (canonical_surjection, ORIGIN, [0, 1, 0]),
    (canonical_surjection, {"x": 1, "y": 1}, [0, 1, 0]),
])
def test_residue_field_as_a_module_gives_the_point_dims(make_map, point, dims):
    S = cusp()
    phi = make_map(S)
    residue = FPModule(S, 1, [[S.poly(f"x - {point['x']}")],
                              [S.poly(f"y - {point['y']}")]])
    assert aq_homology(phi, point).dims() == dict(enumerate(dims))
    for report in (aq_homology, aq_cohomology):
        want = report(phi, point).dims()
        got = {e["n"]: e["module"].dim_at_point(point)
               for e in report(phi, residue).entries}
        assert got == want


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
