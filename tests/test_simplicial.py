"""Levelwise-free simplicial algebras: identities, augmentations,
homotopy closed forms, and the two chain models."""

from collections import Counter

import pytest

from aq.corpus import algebra
from aq.cotangent import CotangentError, cotangent_from_resolution
from aq.fields import GF, QQ
from aq.linalg import mat_mul
from aq.modules import FPModule, koszul_complex
import aq.simplicial
from aq.simplicial import (
    FreeExtensionLevelwise,
    OrdinalMap,
    SimplicialError,
    SimplicialModuleFR,
    _operators,
    _simplicial_identities,
    augmentation,
    augmentation_maps,
    bar_construction,
    bar_kill_equivalence_holds,
    codegeneracy,
    coface,
    constant_extension,
    homology_models_agree,
    homotopy_modules,
    hypersurface_resolution,
    kill_cycle,
    monotone_surjections,
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


def test_a_resolution_without_a_closed_form_is_refused():
    extra = kill_cycle(kill_cycle(constant_extension(plane(), 3), "x", 1),
                       "y", 1)
    with pytest.raises(CotangentError) as info:
        cotangent_from_resolution(extra)
    assert str(info.value) == (
        "refusing an unverified resolution: homotopy beyond degree 0 needs "
        "a closed-form construction")


def node():
    return algebra(QQ, ("x", "y"), ["x*y"])


def pushed_koszul_homology(ext, elements, n):
    """H_n of the Koszul complex on explicit elements over the level-0
    algebra, pushed to the augmentation, as JSON."""
    aug = augmentation(ext)
    h = koszul_complex(ext.algebra(0), elements).homology(n)
    return FPModule(aug, h.gens,
                    [[aug.normal_form(p.rename_into(aug.ring)) for p in rel]
                     for rel in h.relations]).to_json()


@pytest.mark.parametrize("build, elements", [
    (lambda: bar_construction(line(), "y", 4), ["y"]),
    (lambda: bar_construction(node(), "x", 4), ["x"]),
    (lambda: hypersurface_resolution(plane(), "x^3 - y^2", 4), ["x^3 - y^2"]),
    (lambda: hypersurface_resolution(algebra(GF(3), ("x", "y")), "x^2 - y", 4),
     ["x^2 - y"]),
    (lambda: kill_cycle(constant_extension(plane(), 4), "x*y", 1), ["x*y"]),
    (lambda: tensor_resolutions(bar_construction(plane(), "x", 4),
                                bar_construction(plane(), "y", 4)), ["x", "y"]),
    (lambda: tensor_resolutions(bar_construction(node(), "x", 4),
                                bar_construction(node(), "y", 4)), ["x", "y"]),
], ids=["bar-line", "bar-node", "hypersurface-cusp-element", "hypersurface-gf3",
        "kill-plane", "tensor-plane", "tensor-node"])
def test_homotopy_is_koszul_homology(build, elements):
    ext = build()
    pis = homotopy_modules(ext, 3)
    for n in range(1, 4):
        assert pis[n].to_json() == pushed_koszul_homology(ext, elements, n), n


def test_a_nested_tensor_with_a_repeated_element_is_refused():
    # (x, y, x) is not a regular sequence: H_1 of its Koszul complex survives
    ext = tensor_resolutions(
        tensor_resolutions(bar_construction(plane(), "x", 3),
                           bar_construction(plane(), "y", 3)),
        bar_construction(plane(), "x", 3))
    pi1 = homotopy_modules(ext, 1)[1]
    assert not pi1.is_zero()
    assert pi1.to_json() == pushed_koszul_homology(ext, ["x", "y", "x"], 1)
    with pytest.raises(CotangentError, match="does not vanish"):
        cotangent_from_resolution(ext)


def test_each_construction_names_what_it_kills():
    P = plane()
    x, y = P.poly("x"), P.poly("y")
    const = constant_extension(P, 3)
    assert const.killed == ()
    assert bar_construction(P, "x", 3).killed == (x,)
    # the element is kept in normal form, as a polynomial
    C = cusp()
    assert hypersurface_resolution(C, "x^3 + x", 3).killed == (C.poly("y^2 + x"),)
    once = kill_cycle(const, "x*y", 1)
    assert once.killed == (x * y,)
    assert kill_cycle(once, "y", 1).killed is None
    assert kill_cycle(const, "0", 2).killed is None
    both = tensor_resolutions(bar_construction(P, "x", 3),
                              bar_construction(P, "y", 3))
    assert both.killed == (x, y)
    assert tensor_resolutions(const, both).killed == (x, y)
    assert tensor_resolutions(both, kill_cycle(once, "y", 1)).killed is None


def test_augmentation_of_level_commutes_with_faces():
    ext = bar_construction(line(), "y", 3)
    aug1, aug2 = augmentation_maps(ext)[1:3]
    for x in ext.levels[2]:
        xv = ext.ring(2).var(x)
        via_face = aug1.apply(ext.operator("d", 2, 0).apply(xv))
        assert via_face == aug2.apply(xv)


def _iterated_d0_image(ext, n, x):
    """Reference: apply d_0 n times to x, then reduce in the augmentation."""
    aug = augmentation(ext)
    p = ext.ring(n).var(x)
    for m in range(n, 0, -1):
        p = ext.operator("d", m, 0).apply(p)
    return aug.normal_form(p.rename_into(aug.ring))


def _augmentation_cases():
    plane = algebra(QQ, ("x", "y"))
    node = algebra(QQ, ("x", "y"), ["x*y"])
    return {
        "bar line": bar_construction(line(), "y", 4),
        "bar node": bar_construction(node, "x", 4),
        "hypersurface cusp element GF(3)": hypersurface_resolution(
            algebra(GF(3), ("x", "y")), "x^3 - y^2", 4),
        "kill plane": kill_cycle(constant_extension(plane, 4), "x*y", 1),
        "tensor of two bars": tensor_resolutions(
            bar_construction(plane, "x", 3), bar_construction(plane, "y", 3)),
        "constant": constant_extension(plane, 3),
    }


@pytest.mark.parametrize("name", sorted(_augmentation_cases()))
def test_augmentation_maps_collapse_by_iterated_d0(name):
    ext = _augmentation_cases()[name]
    maps = augmentation_maps(ext)
    assert len(maps) == ext.max_level + 1
    for n, to_aug in enumerate(maps):
        for x in ext.levels[n]:
            assert to_aug.images[x] == _iterated_d0_image(ext, n, x), (n, x)


def test_identities_hold_over_the_zero_ring():
    zero_ring = algebra(QQ, ("x", "y"), ["1"])
    for ext in (bar_construction(zero_ring, "x", 3),
                hypersurface_resolution(zero_ring, "x^3 - y^2", 3)):
        assert ext.simplicial_identities_hold() == (True, [])


def test_chain_models_agree_on_bar():
    ext = bar_construction(line(), "y", 4)
    result = homology_models_agree(ext, {"y": 0}, max_degree=2)
    assert result["ok"], result
    assert result["moore"] == result["normalized"]


def test_chain_models_agree_on_kill_cycle():
    ext = kill_cycle(constant_extension(line(), 4), "y^2", 1)
    result = homology_models_agree(ext, {"y": 0}, max_degree=2)
    assert result["ok"], result


@pytest.mark.parametrize("build, dims", [
    (lambda: bar_construction(line(), "y", 4), {0: 1, 1: 1, 2: 0, 3: 0}),
    (lambda: hypersurface_resolution(plane(), "x^3 - y^2", 4),
     {0: 1, 1: 1, 2: 0, 3: 0}),
    (lambda: kill_cycle(constant_extension(algebra(GF(3), ("x", "y")), 4),
                        "x^2 - y", 1), {0: 1, 1: 1, 2: 0, 3: 0}),
    (lambda: kill_cycle(constant_extension(plane(), 4), "x*y", 1),
     {0: 1, 1: 1, 2: 0, 3: 0}),
    (lambda: tensor_resolutions(bar_construction(plane(), "x", 4),
                                bar_construction(plane(), "y", 4)),
     {0: 1, 1: 2, 2: 1, 3: 0}),
    (lambda: constant_extension(plane(), 4), {0: 1, 1: 0, 2: 0, 3: 0}),
], ids=["bar", "hypersurface", "kill-gf3", "kill-qq", "tensor", "constant"])
def test_the_three_chain_models_agree_at_the_origin(build, dims):
    # Dold-Kan: Moore, unnormalized and normalized chains have one homology
    ext = build()
    result = homology_models_agree(ext, {v: 0 for v in ext.base.variables})
    assert result["identity_failures"] == [] and result["ok"]
    assert result["moore"] == result["unnormalized"] == result["normalized"] \
        == dims


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


def test_a_resolution_builds_its_augmentation_once(monkeypatch):
    import aq.simplicial
    built = []
    real = aq.simplicial.augmentation

    def counting_augmentation(ext):
        built.append(ext)
        return real(ext)

    monkeypatch.setattr(aq.simplicial, "augmentation", counting_augmentation)
    cotangent_from_resolution(hypersurface_resolution(plane(), "x^3 - y^2", 6))
    assert len(built) == 1


def test_reassigning_a_level_one_face_drops_the_augmentation():
    ext = bar_construction(line(), "y", 3)
    killed_y = ext.pi_0()
    assert killed_y is ext.pi_0()
    ext.set_operator("s", 0, 0, {})
    assert ext.pi_0() is killed_y
    # with d_0 = d_1 on x1_0 nothing is identified: pi_0 is the line
    ext.set_operator("d", 1, 0, {"x1_0": ext.operator("d", 1, 1).images["x1_0"]})
    assert ext.pi_0() == line()
    assert augmentation_maps(ext)[0].target == line()


@pytest.mark.parametrize("L", range(1, 7))
def test_identities_name_exactly_the_operators(L):
    named = set()
    for _, _, lhs, rhs in _simplicial_identities(L):
        named.update(lhs)
        named.update(rhs or ())
    listed = [(kind, n, i) for kind, n, i, _ in _operators(L)]
    assert len(listed) == len(set(listed)) == L * L + 2 * L
    assert named == set(listed)


@pytest.mark.parametrize("L", range(1, 8))
def test_each_identity_family_has_its_closed_form_count(L):
    # d_i d_j = d_{j-1} d_i for i < j <= n: C(n+1, 2) out of level n >= 2;
    # s_i s_j = s_{j+1} s_i for i <= j <= n: C(n+2, 2) out of level n <= L-2;
    # d_i s_j for i <= n+1, j <= n: (n+1)(n+2) out of level n <= L-1
    want = {}
    for n in range(2, L + 1):
        want[("d", "d", n)] = (n + 1) * n // 2
    for n in range(0, L - 1):
        want[("s", "s", n)] = (n + 2) * (n + 1) // 2
    for n in range(0, L):
        want[("d", "s", n)] = (n + 1) * (n + 2)
    got = Counter()
    for tag, n, _, _ in _simplicial_identities(L):
        outer, inner, _, level = tag.split()
        assert int(level) == n, tag
        got[(outer[0], inner[0], n)] += 1
    assert got == want


@pytest.mark.parametrize("L", [3, 4, 5])
def test_a_broken_top_face_and_degeneracy_are_named(L):
    ext = bar_construction(cusp(), "x", L)
    _replace_one_face_image(ext, L, 0)
    _swap_degeneracies(ext, L - 1)
    ok, failures = ext.simplicial_identities_hold()
    assert not ok
    # a failure reads "d0 d2 level 3 on x3_1"
    families = {(w[0][0], w[1][0], int(w[3])) for w in map(str.split, failures)}
    assert ("d", "d", L) in families
    assert ("s", "s", L - 2) in families


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


def test_a_bar_with_a_moved_face_is_not_the_cell_attachment(monkeypatch):
    real = aq.simplicial.bar_construction

    def moved_face(base, var_name, max_level):
        ext = real(base, var_name, max_level)
        _replace_one_face_image(ext, 2, 0)
        return ext

    monkeypatch.setattr(aq.simplicial, "bar_construction", moved_face)
    assert not bar_kill_equivalence_holds(line(), "y", 3)


@pytest.mark.parametrize("build, message", [
    (lambda: OrdinalMap(1, 1, (0,)), "value list does not match the source ordinal"),
    (lambda: OrdinalMap(1, 1, (0, 2)), "value outside the target ordinal"),
    (lambda: OrdinalMap(1, 1, (1, 0)), "map is not monotone"),
    (lambda: coface(2, 0).compose(coface(2, 0)), "ordinal maps do not compose"),
    (lambda: coface(2, 3), "coface index out of range"),
    (lambda: coface(2, -1), "coface index out of range"),
    (lambda: codegeneracy(1, 2), "codegeneracy index out of range"),
], ids=["length", "value", "monotone", "compose", "coface", "coface-negative",
        "codegeneracy"])
def test_ordinal_maps_refuse_what_is_not_one(build, message):
    with pytest.raises(SimplicialError) as info:
        build()
    assert str(info.value) == message


def test_ordinal_maps_are_values():
    assert coface(2, 1) == OrdinalMap(1, 2, (0, 2))
    assert hash(coface(2, 1)) == hash(OrdinalMap(1, 2, (0, 2)))
    assert codegeneracy(1, 0).compose(coface(2, 0)).is_identity()
    assert monotone_surjections(1, 2) == monotone_surjections(1, -1) == []


@pytest.mark.parametrize("build, message", [
    (lambda: FreeExtensionLevelwise(plane(), 1, {1: ("y",)}, None),
     "level 1 variable 'y' collides with the base"),
    (lambda: bar_construction(line(), "y", 2).ring(3), "level 3 outside 0..2"),
    (lambda: bar_construction(line(), "y", 2).set_operator("d", 0, 0, {}),
     "no operator d_0 at level 0"),
    (lambda: bar_construction(line(), "t", 2), "'t' is not a variable of the base"),
    (lambda: kill_cycle(constant_extension(plane(), 2), "x", 0),
     "cells can only be attached in positive degrees"),
    (lambda: tensor_resolutions(bar_construction(plane(), "x", 2),
                                bar_construction(line(), "y", 2)),
     "tensor factors must share the base"),
    # the cycle is moved from the base ring to level 1 before its faces are read
    (lambda: kill_cycle(bar_construction(plane(), "x", 2), plane().ring.var("y"), 2),
     "face d_0 of the cycle is nonzero: y"),
], ids=["collision", "level", "operator", "bar-variable", "degree", "tensor-base",
        "cycle"])
def test_constructions_refuse_bad_arguments(build, message):
    with pytest.raises(SimplicialError) as info:
        build()
    assert str(info.value) == message


def test_a_single_level_is_its_own_augmentation():
    ext = constant_extension(plane(), 0)
    assert augmentation(ext) is ext.algebra(0)
    assert list(homotopy_modules(bar_construction(line(), "y", 2), 0)) == [0]


def _constant_module(field, L):
    ops = {(kind, n, i): [[field.one()]] for kind, n, i, _ in _operators(L)}
    return SimplicialModuleFR(field, {n: 1 for n in range(L + 1)}, ops, L)


def test_the_constant_simplicial_space_has_homology_in_degree_zero():
    # every operator is the identity of k; each level above 0 is degenerate
    sm = _constant_module(QQ, 3)
    assert sm.validate() == (True, [])
    # asked past the top level, each model stops where its data ends
    for dims in (sm.moore_homology_dims(5), sm.alternating_homology_dims(5),
                 sm.normalized_homology_dims(5)):
        assert dims == {0: 1, 1: 0, 2: 0}


def test_a_degenerate_face_is_reduced_away_in_the_normalized_complex():
    # k[S^2] through level 2, S^2 = Delta[2] / its boundary: the point p,
    # its degeneracies s0 p and s0 s0 p, and t at level 2, each of whose
    # faces is the degenerate s0 p
    one, zero = QQ.one(), QQ.zero()
    ops = {("s", 0, 0): [[one]], ("d", 1, 0): [[one]], ("d", 1, 1): [[one]],
           ("s", 1, 0): [[one], [zero]], ("s", 1, 1): [[one], [zero]]}
    ops.update({("d", 2, i): [[one, one]] for i in range(3)})
    sm = SimplicialModuleFR(QQ, {0: 1, 1: 1, 2: 2}, ops, 2)
    assert sm.validate() == (True, [])
    for dims in (sm.moore_homology_dims(1), sm.alternating_homology_dims(1),
                 sm.normalized_homology_dims(1)):
        assert dims == {0: 1, 1: 0}


def test_an_operator_of_the_wrong_shape_fails_validation():
    sm = _constant_module(QQ, 2)
    sm.operators[("d", 1, 0)] = [[QQ.one(), QQ.zero()]]
    ok, failures = sm.validate()
    assert not ok and all(tag.endswith(" (shape)") for tag in failures)


def test_a_composite_of_mismatched_operators_fails_on_shape():
    # d_0 out of level 1 made 1x2 on 1-dimensional levels: every identity
    # that multiplies it by a 1x1 factor fails on shape, and d0 s0 at
    # level 0 no longer passes as the identity
    one, zero = QQ.one(), QQ.zero()
    with pytest.raises(ValueError):
        mat_mul(QQ, [[one, zero]], [[one]])
    sm = _constant_module(QQ, 2)
    sm.operators[("d", 1, 0)] = [[one, zero]]
    assert sm.validate() == (False, [
        "d0 d1 level 2 (shape)", "d0 d2 level 2 (shape)",
        "d0 s0 level 0 (shape)", "d0 s1 level 1 (shape)"])


def cusp():
    return algebra(QQ, ("x", "y"), ["x^3 - y^2"])


@pytest.mark.parametrize("build", [
    lambda: bar_construction(line(), "y", 4),
    lambda: bar_construction(cusp(), "x", 4),
    lambda: hypersurface_resolution(plane(), "x^3 - y^2", 4),
    lambda: hypersurface_resolution(cusp(), "x*y + y", 4),
    lambda: kill_cycle(constant_extension(plane(), 4), "x*y", 1),
    lambda: kill_cycle(constant_extension(algebra(GF(3), ("x", "y")), 4),
                       "x^2 - y", 1),
    lambda: tensor_resolutions(bar_construction(plane(), "x", 4),
                               bar_construction(plane(), "y", 4)),
], ids=["bar-line", "bar-cusp", "hypersurface-cusp", "hypersurface-on-cusp",
        "kill-qq", "kill-gf3", "tensor"])
def test_an_operator_sends_a_generator_to_its_stored_image(build):
    ext = build()
    for kind, n, i, _ in _operators(ext.max_level):
        op = ext.operator(kind, n, i)
        for x in ext.levels[n]:
            assert op.apply(ext.ring(n).var(x)) == op.images[x]


def test_finite_rank_model_refuses_a_nonaffine_image():
    ext = bar_construction(line(), "y", 3)
    x1 = ext.ring(1).var("x1_0")
    ext.set_operator("d", 2, 0, {"x2_0": x1 * x1, "x2_1": x1})
    with pytest.raises(SimplicialError, match="not affine"):
        SimplicialModuleFR.from_extension(ext, {"y": 0}, max_degree=2)


def _per_generator_identity_check(ext):
    """Reference: each identity, generator by generator, comparing the two
    sides as polynomials and recording a tag at each mismatch."""
    bad = []
    identity = {n: {x: ext.algebra(n).normal_form(ext.ring(n).var(x))
                    for x in ext.levels[n]}
                for n in range(ext.max_level)}
    for tag, n, lhs, rhs in _simplicial_identities(ext.max_level):
        outer, inner = (ext.operator(*op) for op in lhs)
        if rhs is not None:
            r_outer, r_inner = (ext.operator(*op) for op in rhs)
        for x in ext.levels[n]:
            got = outer.apply(inner.images[x])
            want = (identity[n][x] if rhs is None
                    else r_outer.apply(r_inner.images[x]))
            if got != want:
                bad.append(f"{tag} on {x}")
    return (not bad, bad)


def _bar_like_reference(base, element, max_level):
    """Reference: the bar-like chain with every image assembled name by
    name, one `var` lookup per entry."""
    levels = {n: tuple(f"x{n}_{k}" for k in range(n)) for n in range(1, max_level + 1)}
    ext = FreeExtensionLevelwise(base, max_level, levels, (element,))
    for n in range(1, max_level + 1):
        rng = ext.ring(n - 1)
        elem = element.rename_into(rng)
        for i in range(n + 1):
            images = {}
            for k in range(n):
                name = f"x{n}_{k}"
                if i == 0:
                    images[name] = elem if k == 0 else rng.var(f"x{n-1}_{k-1}")
                elif i < n:
                    images[name] = rng.var(f"x{n-1}_{k-1}" if i <= k else f"x{n-1}_{k}")
                else:
                    images[name] = rng.zero() if k == n - 1 else rng.var(f"x{n-1}_{k}")
            ext.set_operator("d", n, i, images)
    for n in range(0, max_level):
        rng = ext.ring(n + 1)
        for j in range(n + 1):
            images = {}
            for k in range(n):
                name = f"x{n}_{k}"
                images[name] = rng.var(f"x{n+1}_{k+1}" if j <= k else f"x{n+1}_{k}")
            ext.set_operator("s", n, j, images)
    return ext


@pytest.mark.parametrize("L", range(1, 7))
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("construction", ["bar", "hypersurface"])
def test_bar_like_operators_match_the_name_by_name_reference(construction, field, L):
    base = algebra(field, ("x", "y"), ["x^3 - y^2"])
    if construction == "bar":
        ext, element = bar_construction(base, "x", L), base.ring.var("x")
    else:
        ext = hypersurface_resolution(base, "x^2*y + y", L)
        element = base.normal_form(base.poly("x^2*y + y"))
    ref = _bar_like_reference(base, element, L)
    assert ext.levels == ref.levels
    for kind, n, i, _ in _operators(L):
        assert ext.operator(kind, n, i).images == ref.operator(kind, n, i).images, \
            (kind, n, i)


def _level_images(ext, kind, n, i):
    images = ext.operator(kind, n, i).images
    return {x: images[x] for x in ext.levels[n]}


def _replace_one_face_image(ext, n, i):
    images = _level_images(ext, "d", n, i)
    x = ext.levels[n][-1]
    images[x] = images[x] + ext.ring(n - 1).var(ext.levels[n - 1][0])
    ext.set_operator("d", n, i, images)


def _swap_degeneracies(ext, n):
    s0, s1 = (_level_images(ext, "s", n, j) for j in (0, 1))
    ext.set_operator("s", n, 0, s1)
    ext.set_operator("s", n, 1, s0)


def _set_one_image(ext, kind, n, i, x, image):
    images = _level_images(ext, kind, n, i)
    images[x] = image
    ext.set_operator(kind, n, i, images)


# each construction over a field, with the base element its bottom contracts
CONSTRUCTIONS = {
    "bar": lambda F: (bar_construction(
        algebra(F, ("x", "y"), ["x^2 - y^3"]), "y", 4), "y"),
    "kill-cycle": lambda F: (kill_cycle(
        constant_extension(algebra(F, ("x", "y")), 4), "x*y", 1), "x*y"),
    # d_0 sends x1_0 to a polynomial, not a variable
    "hypersurface": lambda F: (hypersurface_resolution(
        algebra(F, ("x", "y")), "x^3 - y^2", 4), "x^3 - y^2"),
    "tensor": lambda F: (tensor_resolutions(
        bar_construction(algebra(F, ("x", "y")), "x", 4),
        bar_construction(algebra(F, ("x", "y")), "y", 4)), "x"),
    # y*x1_0 is a strict cycle at level 1 over the node: its cells' faces
    # include the moved cycle, a polynomial image
    "kill-cycle-degree-2": lambda F: (kill_cycle(
        bar_construction(algebra(F, ("x", "y"), ["x*y"]), "x", 4),
        "y*x1_0", 2), "x"),
}


def _break(ext, breakage, killed):
    """Apply one named breakage; the single-image ones act under d_1 on the
    last generator of level 3 that d_1 does not send to zero."""
    if breakage in ("face", "both"):
        _replace_one_face_image(ext, 3, 1)
    if breakage in ("degeneracy", "both"):
        _swap_degeneracies(ext, 2)
    images, ring = ext.operator("d", 3, 1).images, ext.ring(2)
    x = next(x for x in reversed(ext.levels[3]) if not images[x].is_zero())
    current = images[x]
    image = {
        "zero": lambda: ring.zero(),
        "variable": lambda: next(ring.var(v) for v in ext.levels[2]
                                 if ring.var(v) != current),
        "killed": lambda: ring.poly(killed),
        "two-term": lambda: ring.var(ext.levels[2][0]) + ring.var("x"),
    }.get(breakage)
    if image is not None:
        _set_one_image(ext, "d", 3, 1, x, image())


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("construction", list(CONSTRUCTIONS))
@pytest.mark.parametrize("breakage", ["face", "degeneracy", "both", "zero",
                                      "variable", "killed", "two-term"])
def test_identity_failures_match_the_per_generator_check(field, construction, breakage):
    ext, killed = CONSTRUCTIONS[construction](field)
    assert ext.simplicial_identities_hold() == _per_generator_identity_check(ext) \
        == (True, [])
    _break(ext, breakage, killed)
    got = ext.simplicial_identities_hold()
    assert got == _per_generator_identity_check(ext)
    assert not got[0] and got[1]


@pytest.mark.parametrize("build", [
    lambda: bar_construction(line(), "y", 3),
    lambda: kill_cycle(constant_extension(plane(), 3), "x*y", 1),
], ids=["bar", "kill-cycle"])
def test_every_single_perturbed_image_fails_as_the_per_generator_check(build):
    # adding a base variable, which every operator fixes, to one image
    # changes one side of an identity through it and not the other
    ext = build()
    y = ext.base.variables[-1]
    for kind, n, i, m in _operators(ext.max_level):
        for x in ext.levels[n]:
            image = ext.operator(kind, n, i).images[x]
            _set_one_image(ext, kind, n, i, x, image + ext.ring(m).var(y))
            got = ext.simplicial_identities_hold()
            assert not got[0], (kind, n, i, x)
            assert got == _per_generator_identity_check(ext), (kind, n, i, x)
            _set_one_image(ext, kind, n, i, x, image)
    assert ext.simplicial_identities_hold() == (True, [])


def _per_face_jacobian(ext, n, push, w, x):
    """Reference: sum_i (-1)^i d(d_i(x))/dw, each face pushed to the
    augmentation on its own."""
    acc = push.target.ring.zero()
    for i in range(n + 1):
        term = push.apply(ext.operator("d", n, i).images[x].derivative(w))
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


@pytest.mark.parametrize("build", [
    lambda: bar_construction(line(), "y", 4),
    lambda: bar_construction(cusp(), "x", 4),
    lambda: hypersurface_resolution(plane(), "x^3 - y^2", 5),
    lambda: hypersurface_resolution(algebra(GF(5), ("x",)), "x^5 - x + 1", 5),
    lambda: hypersurface_resolution(algebra(GF(5), ("x", "y")), "x^5*y - y^2", 4),
    lambda: kill_cycle(constant_extension(plane(), 4), "x*y", 1),
    lambda: tensor_resolutions(bar_construction(plane(), "x", 4),
                               bar_construction(plane(), "y", 4)),
], ids=["bar-line", "bar-cusp", "hypersurface-cusp", "hypersurface-gf5-artin-schreier",
        "hypersurface-gf5", "kill-cycle", "tensor"])
def test_face_jacobians_match_the_per_face_formula(build):
    ext = build()
    complex_ = cotangent_from_resolution(ext).complex
    push = augmentation_maps(ext)
    for n in range(1, ext.max_level + 1):
        rows, cols = ext.levels[n - 1], ext.levels[n]
        if not rows or not cols:
            continue
        want = [[_per_face_jacobian(ext, n, push[n - 1], w, x) for w in rows]
                for x in cols]
        assert complex_.differential(n) == want, n
