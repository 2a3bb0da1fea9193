"""The lci oracle's one Koszul count against the subset search it replaced.

`reference_oracle` keeps the earlier oracle: search the size-mu subsets of
the relations that span the relation fiber (mu = the local number of
generators), and accept one whose first Koszul homology vanishes after
localization, tested generator by generator with an annihilator.  Above
five relations the reference answers None and only the oracle speaks.

The lci certificate reads the same Koszul H_1 as the oracle; the full
Koszul complex (`koszul_homology_all_vanish`) is its reference.
"""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from aq import linalg
from aq.classify import (_regular_sequence_oracle, classification_report,
                         enveloping_multiplication, is_lci_at)
from aq.corpus import (algebra, canonical_surjection, classifier_corpus,
                       hkr_instances, random_surjections)
from aq.cotangent import cotangent_trunc2
from aq.fields import GF, QQ
from aq.groebner import SubmoduleEngine
from aq.modules import (FreeComplex, evaluate_matrix, koszul_complex,
                        koszul_homology_all_vanish, syzygies)
from aq.poly import PolyRing
from aq.rings import AlgebraMap, PresentedAlgebra


def _annihilator_meets_units(module, i, pt) -> bool:
    """Some element killing generator i of the module is nonzero at pt."""
    A = module.algebra
    unit = linalg.unit_vectors(A.ring.zero(), A.ring.one(), module.gens)[i]
    syz = syzygies([unit] + list(module.relations), module.gens, A)
    return any(not A.field.is_zero(row[0].evaluate(pt)) for row in syz)


def _vanishes_locally(module, pt) -> bool:
    return all(_annihilator_meets_units(module, i, pt)
               for i in range(module.gens))


def reference_oracle(stage, point):
    """The subset search: True/False, or None above five relations."""
    P = stage.base
    fs = stage.generators
    m = len(fs)
    if m > 5:
        return None
    field = P.field
    pt = P.parse_point(point)
    d2 = evaluate_matrix(stage.syzygy_vectors, pt)
    mu = m - linalg.rank(field, d2)
    if mu == 0:
        return True
    units = linalg.unit_vectors(field.zero(), field.one(), m)
    for subset in combinations(range(m), mu):
        if linalg.rank(field, [units[i] for i in subset] + d2) != m:
            continue
        h1 = koszul_complex(P, [fs[i] for i in subset]).homology(1)
        if _vanishes_locally(h1, pt):
            return True
    return False


def assert_oracles_agree(phi, point):
    trunc = cotangent_trunc2(phi)
    stage = trunc.provenance["stages"]
    pt = trunc.transport_point(point)
    new = _regular_sequence_oracle(stage, pt)
    ref = reference_oracle(stage, pt)
    assert ref is None or new == ref, (phi.to_json(), point)
    # the primary verdict agrees as well, or is_lci_at raises
    is_lci_at(phi, point)
    return new


def assert_certificate_matches_koszul(phi):
    """The lci certificate is the vanishing of every Koszul H_n, n >= 1."""
    rp = cotangent_trunc2(phi).provenance["stages"].rp
    vanish, _ = koszul_homology_all_vanish(rp.base_algebra,
                                           list(rp.relation_polys))
    flag = classification_report("lci", phi, []).global_flag
    assert flag == ("certified" if vanish else "sampled-only"), phi.to_json()


def _ambient_map(R):
    return AlgebraMap(PresentedAlgebra(R.ring, []), R, {})


def _diagonal(case):
    """The multiplication map of an hkr case, with its diagonal points."""
    _, mu, copy_of = enveloping_multiplication(case["map"])
    points = []
    for q in case["points"]:
        diag = dict(q)
        diag.update({c: q[v] for v, c in copy_of.items()})
        points.append(diag)
    return mu, points


@pytest.mark.parametrize("case", [
    c for c in classifier_corpus() if c["property"] in ("lci", "ci")
], ids=lambda c: c["name"])
def test_oracles_agree_on_the_classifier_corpus(case):
    subject = case["subject"]
    phi = subject if case["property"] == "lci" else _ambient_map(subject)
    for q in case["points"]:
        assert_oracles_agree(phi, q)


@pytest.mark.parametrize("case", hkr_instances(), ids=lambda c: c["name"])
def test_oracles_agree_on_diagonal_points(case):
    mu, points = _diagonal(case)
    for diag in points:
        assert_oracles_agree(mu, diag)


def test_oracles_agree_on_random_surjections():
    for case in random_surjections():
        for q in case["points"]:
            assert_oracles_agree(case["map"], q)


def test_a_non_lci_point_is_found_by_both():
    fat = algebra(QQ, ("x", "y"), ["x^2", "x*y", "y^2"])
    assert assert_oracles_agree(canonical_surjection(fat),
                                {"x": 0, "y": 0}) is False


# -- more than five relations ------------------------------------------------------


COORDINATES = tuple(f"x{i}" for i in range(1, 9))
SQUARES = ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]


@pytest.mark.parametrize("names, relations, lci", [
    (("x", "y", "z"), SQUARES, False),
    (COORDINATES, COORDINATES, True),
], ids=["six-squares", "eight-coordinates"])
def test_lci_rows_above_five_relations_carry_an_agreeing_oracle(
        names, relations, lci):
    phi = canonical_surjection(algebra(QQ, names, relations))
    origin = {v: 0 for v in names}
    report = classification_report("lci", phi, [origin])
    assert [row["verdict"] for row in report.rows] == [lci]
    assert [row["oracle"] for row in report.rows] == [
        {"regular_sequence_found": lci, "agrees": True}]
    assert report.global_flag == ("certified" if lci else "sampled-only")
    assert assert_oracles_agree(phi, origin) is lci


# -- the certificate against the full Koszul complex -------------------------------


def test_the_certificate_matches_koszul_on_the_classifier_corpus():
    for case in classifier_corpus():
        subject = case["subject"]
        assert_certificate_matches_koszul(
            subject if isinstance(subject, AlgebraMap)
            else _ambient_map(subject))


def test_the_certificate_matches_koszul_on_random_surjections():
    for case in random_surjections():
        assert_certificate_matches_koszul(case["map"])


@pytest.mark.parametrize("case", hkr_instances(), ids=lambda c: c["name"])
def test_the_certificate_matches_koszul_on_diagonal_maps(case):
    mu, _ = _diagonal(case)
    assert_certificate_matches_koszul(mu)


def test_an_lci_report_builds_no_koszul_degree_above_two(monkeypatch):
    """On eight relations the full Koszul complex has rank 2^8 = 256;
    the report builds no complex over the base at all: H_1 is the stage's
    syzygies modulo its Koszul vectors."""
    built = []
    real = FreeComplex.__init__

    def recording_init(self, algebra, ranks, diffs):
        real(self, algebra, ranks, diffs)
        built.append((algebra, self.max_degree()))

    monkeypatch.setattr(FreeComplex, "__init__", recording_init)
    phi = canonical_surjection(algebra(QQ, COORDINATES, COORDINATES))
    report = classification_report("lci", phi,
                                   [{v: 0 for v in COORDINATES}])
    assert report.global_flag == "certified"
    base = cotangent_trunc2(phi).provenance["stages"].base
    over_base = [top for alg, top in built if alg is base]
    assert over_base == []


def test_the_oracle_reads_its_cycles_off_the_stages(monkeypatch):
    """The stage's syzygies of the relations are the cycles of the
    oracle's H_1, so they are one elimination: on surjection-4 (two
    relations) an lci report builds four engines, not five."""
    built = []
    real = SubmoduleEngine.__init__

    def recording_init(self, *args):
        real(self, *args)
        built.append(self)

    monkeypatch.setattr(SubmoduleEngine, "__init__", recording_init)
    case = random_surjections.__wrapped__()[4]  # a map nothing has read
    assert len(case["map"].target.relations) == 2
    report = classification_report("lci", case["map"], case["points"])
    assert report.global_flag == "sampled-only"
    assert len(built) == 4


# -- ideals at the origin --------------------------------------------------------


NAMES = ("x", "y", "z")


@st.composite
def ideals_at_origin(draw):
    """Up to four generators vanishing at the origin, some of them
    monomials in m^2, plus sometimes the redundant g_1*h + g_last."""
    field = draw(st.sampled_from([QQ, GF(3), GF(5)]))
    ring = PolyRing(field, NAMES[:draw(st.integers(1, 3))])
    n = ring.nvars
    deep = exponents_of_degree(n, 2)
    exponents = exponents_of_degree(n, 1) + deep

    def poly(monomials):
        terms = draw(st.dictionaries(st.sampled_from(monomials),
                                     st.integers(-2, 2), min_size=1,
                                     max_size=3))
        return ring.from_terms({e: field.from_int(c)
                                for e, c in terms.items()})

    gens = [poly(exponents)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            gens.append(ring.monomial(draw(st.sampled_from(deep))))
        else:
            gens.append(poly(exponents))
    if draw(st.booleans()):
        h = poly(exponents + [(0,) * n])
        gens.append(gens[0] * h + gens[-1])
    gens = [g for g in gens if not g.is_zero()]
    return ring, gens


def exponents_of_degree(n, total):
    """Exponent tuples of length n summing to total."""
    if n == 1:
        return [(total,)]
    return [(k,) + rest for k in range(total + 1)
            for rest in exponents_of_degree(n - 1, total - k)]


@settings(max_examples=40, deadline=None)
@given(ideals_at_origin())
def test_oracles_agree_on_ideals_at_the_origin(ideal):
    ring, gens = ideal
    if not gens:
        return
    phi = canonical_surjection(PresentedAlgebra(ring, gens))
    assert_oracles_agree(phi, {v: 0 for v in ring.variables})


@settings(max_examples=25, deadline=None)
@given(ideals_at_origin())
def test_the_certificate_matches_koszul_on_ideals_at_the_origin(ideal):
    ring, gens = ideal
    if not gens:
        return
    assert_certificate_matches_koszul(
        canonical_surjection(PresentedAlgebra(ring, gens)))


def test_the_certificate_decides_a_five_generator_ideal_quickly():
    """Five generators at the origin of GF(5)[x, y, z], the last a
    redundant quintic.  The certificate's H_1 needs the kernel of 13
    cycles modulo 10 Koszul columns in rank 5; with the Koszul columns
    tracked as well, that elimination did not end within a minute."""
    A = algebra(GF(5), NAMES, [
        "2*x*y + 3*y*z + 4*z", "z^2", "2*x*y + 3*x*z + 2*z", "y^2 + 3*y*z",
        "x^3*y + 4*x^2*y*z + x*y*z^2 + 4*y*z^3 + 2*x^2*z + 2*x*y*z"
        " + 3*y*z^2 + 2*z^3 + y^2 + 3*y*z + 4*z^2"])
    start = time.process_time()
    stages = cotangent_trunc2(canonical_surjection(A)).provenance["stages"]
    # five elements of a three-dimensional local ring are no regular sequence
    assert not stages.koszul_h1.is_zero()
    assert time.process_time() - start < 2


# -- H_1 is built once per map ---------------------------------------------------


def test_a_two_point_lci_report_builds_koszul_h1_once(monkeypatch):
    """Both rows' oracles and the certificate read one H_1, presented once
    as a subquotient."""
    import aq.cotangent
    built = []
    real = aq.cotangent.present_subquotient

    def counting_present_subquotient(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(aq.cotangent, "present_subquotient",
                        counting_present_subquotient)
    cusp = algebra(QQ, ("x", "y"), ["x^3 - y^2"])
    report = classification_report("lci", canonical_surjection(cusp),
                                   [{"x": 0, "y": 0}, {"x": 1, "y": 1}])
    assert [row["oracle"]["regular_sequence_found"]
            for row in report.rows] == [True, True]
    assert report.global_flag == "certified"
    assert len(built) == 1
