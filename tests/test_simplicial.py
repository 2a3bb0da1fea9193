"""Levelwise-free simplicial algebras: identities, augmentations,
homotopy closed forms, and the two chain models."""

import pytest

from aq.corpus import algebra
from aq.cotangent import CotangentError, cotangent_from_resolution
from aq.fields import GF, QQ
from aq.modules import FPModule, koszul_complex
from aq.rings import AlgebraMap
from aq.simplicial import (
    SimplicialError,
    SimplicialModuleFR,
    _operators,
    _simplicial_identities,
    augmentation,
    augmentation_maps,
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


@pytest.mark.parametrize("build", [
    lambda: bar_construction(line(), "y", 4),
    lambda: kill_cycle(constant_extension(plane(), 4), "x*y", 1),
], ids=["bar", "kill-cycle"])
def test_the_identity_check_applies_every_composite(build, monkeypatch):
    ext = build()
    # per identity: the left side on each generator, and the right side too
    # unless it is the identity
    want = sum(len(ext.levels[n]) * (1 if rhs is None else 2)
               for _, n, _, rhs in _simplicial_identities(ext.max_level))
    calls = []
    real = AlgebraMap.apply

    def counting_apply(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(AlgebraMap, "apply", counting_apply)
    assert ext.simplicial_identities_hold() == (True, [])
    assert len(calls) == want > 0


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


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("construction", ["bar", "kill-cycle"])
@pytest.mark.parametrize("breakage", ["face", "degeneracy", "both"])
def test_identity_failures_match_the_per_generator_check(field, construction, breakage):
    if construction == "bar":
        ext = bar_construction(algebra(field, ("x", "y"), ["x^2 - y^3"]), "y", 4)
    else:
        ext = kill_cycle(constant_extension(algebra(field, ("x", "y")), 4), "x*y", 1)
    assert ext.simplicial_identities_hold() == _per_generator_identity_check(ext) \
        == (True, [])
    if breakage in ("face", "both"):
        _replace_one_face_image(ext, 3, 1)
    if breakage in ("degeneracy", "both"):
        _swap_degeneracies(ext, 2)
    got = ext.simplicial_identities_hold()
    assert got == _per_generator_identity_check(ext)
    assert not got[0] and got[1]


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
        want = [[_per_face_jacobian(ext, n, push[n - 1], w, x) for x in cols]
                for w in rows]
        assert complex_.differential(n) == want, n
