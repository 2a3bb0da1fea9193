"""Levelwise-free simplicial algebras: identities, augmentations,
homotopy closed forms, and the two chain models."""

import pytest

from aq.corpus import algebra
from aq.fields import GF, QQ
from aq.simplicial import (
    SimplicialError,
    SimplicialModuleFR,
    _operators,
    _simplicial_identities,
    augmentation,
    augmentation_of_level,
    bar_construction,
    bar_kill_equivalence_holds,
    constant_extension,
    homology_models_agree,
    homotopy_modules,
    hypersurface_resolution,
    kill_cycle,
    tensor_resolutions,
)


def line():
    return algebra(QQ, ("y",))


def plane():
    return algebra(QQ, ("x", "y"))


def test_constant_extension_is_simplicially_trivial():
    ext = constant_extension(plane(), 3)
    ok, failures = ext.simplicial_identities_hold()
    assert ok, failures
    assert augmentation(ext) == plane()


def test_bar_identities_and_cells():
    ext = bar_construction(line(), "y", 5)
    ok, failures = ext.simplicial_identities_hold()
    assert ok, failures
    assert [len(ext.levels[n]) for n in range(6)] == [0, 1, 2, 3, 4, 5]


def test_bar_augmentation_kills_the_variable():
    ext = bar_construction(line(), "y", 3)
    aug = augmentation(ext)
    assert aug.normal_form(aug.poly("y")).is_zero()


def test_bar_homotopy_closed_form():
    # y is a nonzerodivisor, so homotopy is concentrated in degree 0
    ext = bar_construction(line(), "y", 4)
    pis = homotopy_modules(ext, 3)
    assert pis[0].free_rank() == 1
    assert pis[1].is_zero()
    assert pis[2].is_zero() and pis[3].is_zero()


def test_hypersurface_zerodivisor_has_pi1():
    # contracting x inside QQ[x]/(x*y) leaves the annihilator as pi_1
    base = algebra(QQ, ("x", "y"), ["x*y"])
    ext = hypersurface_resolution(base, "x", 4)
    ok, _ = ext.simplicial_identities_hold()
    assert ok
    pis = homotopy_modules(ext, 2)
    assert not pis[1].is_zero()


def test_kill_cycle_identities_and_cell_count():
    ext = kill_cycle(constant_extension(plane(), 4), "x*y", 1)
    ok, failures = ext.simplicial_identities_hold()
    assert ok, failures
    # one cell per monotone surjection [n] ->> [1]
    assert [len(ext.levels[n]) for n in range(5)] == [0, 1, 2, 3, 4]


def test_kill_cycle_rejects_non_cycles():
    base = bar_construction(line(), "y", 3)
    # y at level 1 is not a strict cycle there: d_0 differs from zero
    with pytest.raises(SimplicialError, match="cycle is nonzero"):
        kill_cycle(base, base.ring(1).var("x1_0"), 2)


def test_tensor_identities():
    left = bar_construction(plane(), "x", 4)
    right = bar_construction(plane(), "y", 4)
    ext = tensor_resolutions(left, right)
    ok, failures = ext.simplicial_identities_hold()
    assert ok, failures
    assert augmentation(ext).normal_form(
        augmentation(ext).poly("x + y")).is_zero()


def test_tensor_homotopy_is_koszul_homology():
    # two coordinates: regular sequence, so pi_1 and pi_2 vanish
    left = bar_construction(plane(), "x", 4)
    right = bar_construction(plane(), "y", 4)
    pis = homotopy_modules(tensor_resolutions(left, right), 2)
    assert pis[1].is_zero() and pis[2].is_zero()


def test_homotopy_refuses_unknown_shapes():
    ext = kill_cycle(constant_extension(plane(), 3), "x", 1)
    extra = kill_cycle(ext, "y", 1)
    with pytest.raises(SimplicialError, match="closed-form"):
        homotopy_modules(extra, 2)


def test_augmentation_of_level_commutes_with_faces():
    ext = bar_construction(line(), "y", 3)
    aug2 = augmentation_of_level(ext, 2)
    aug1 = augmentation_of_level(ext, 1)
    for x in ext.levels[2]:
        xv = ext.ring(2).var(x)
        via_face = aug1.apply(ext.operator("d", 2, 0).apply(xv))
        assert via_face == aug2.apply(xv)


def test_chain_models_agree_on_bar():
    ext = bar_construction(line(), "y", 4)
    result = homology_models_agree(ext, {"y": 0}, max_degree=2)
    assert result["ok"], result
    assert result["moore"] == result["normalized"]


def test_chain_models_agree_on_kill_cycle():
    ext = kill_cycle(constant_extension(line(), 4), "y^2", 1)
    result = homology_models_agree(ext, {"y": 0}, max_degree=2)
    assert result["ok"], result


def test_both_identity_checks_flag_the_same_identities():
    ext = bar_construction(line(), "y", 4)
    # the correct s_0 sends x1_0 to x2_1
    ext.set_operator("s", 1, 0, {"x1_0": ext.ring(2).var("x2_0")})
    ok, failures = ext.simplicial_identities_hold()
    ok_fr, failures_fr = SimplicialModuleFR.from_extension(
        ext, {"y": 0}, max_degree=2).validate()
    assert not ok and not ok_fr
    assert "s0 s0 level 1 on x1_0" in failures
    assert list(dict.fromkeys(f.split(" on ")[0] for f in failures)) \
        == failures_fr


def test_reassigning_an_operator_drops_its_map():
    ext = bar_construction(line(), "y", 4)
    assert ext.simplicial_identities_hold() == (True, [])
    # the correct s_0 sends x1_0 to x2_1
    ext.set_operator("s", 1, 0, {"x1_0": ext.ring(2).var("x2_0")})
    ok, failures = ext.simplicial_identities_hold()
    assert not ok
    assert "s0 s0 level 1 on x1_0" in failures


@pytest.mark.parametrize("L", range(1, 7))
def test_identities_name_exactly_the_operators(L):
    named = set()
    for _, _, lhs, rhs in _simplicial_identities(L):
        named.update(lhs)
        named.update(rhs or ())
    listed = [(kind, n, i) for kind, n, i, _ in _operators(L)]
    assert len(listed) == len(set(listed)) == L * L + 2 * L
    assert named == set(listed)


def test_operators_outside_the_table_are_refused():
    L = 3
    ext = bar_construction(line(), "y", L)
    with pytest.raises(SimplicialError):
        ext.operator("d", 0, 0)
    with pytest.raises(SimplicialError):
        ext.operator("s", L, 0)
    with pytest.raises(SimplicialError, match="cover"):
        ext.set_operator("d", 2, 0, {"x2_0": ext.ring(1).var("x1_0")})


def test_bar_equals_killing_the_variable():
    assert bar_kill_equivalence_holds(line(), "y", 5)
    assert bar_kill_equivalence_holds(algebra(GF(5), ("t",)), "t", 4)
