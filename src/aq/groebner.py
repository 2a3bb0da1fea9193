"""Buchberger engine for ideals and submodules of free modules.

Module elements are {component index: Polynomial} maps. The module order
is position-over-term: lower component index dominates, ties broken by
the ring's monomial order. Syzygies, kernels, membership, and lifts all
run through one elimination embedding: each generator whose
coefficients are read is paired with a unit vector in a tracking block of
components placed after the real block, so elements whose lead lands in
the tracking block are exactly the syzygies.  The other generators (the
relations of a kernel, the whole span a membership test reads, the
quotient relations) join the real block with no unit.

Reduction works in place on one mutable work map {component: {monomial:
coefficient}}: its lead is the largest monomial of the lowest component,
the first basis element (in basis order) whose lead divides it cancels
it, and a lead that no basis lead divides moves into the result.  A
cancellation adds each shifted, scaled term of the reducer straight into
its row, with no intermediate polynomial, in one loop per field kind that
does the arithmetic inline: mod p for GF(p), int and Fraction operators
for QQ (see `_sub_multiple`).  The lead is picked with the ring order's
key, which a degrevlex order computes once per monomial and keeps (see
`orders`); a one-term row or a one-component map needs no comparison at
all, and a reducer with lead coefficient one (every monic basis element)
needs no division.

Leads live with the basis, not with the reduction: each element's lead
(component, monomial, coefficient) is found once, when the element enters
a basis, and kept in a lead index ({component: [(monomial, coefficient,
element)]} in basis order, see `lead_index`) that every reduction against
that basis reads.  `module_groebner` extends its index as the basis grows;
a `SubmoduleEngine` and a `PresentedAlgebra` keep theirs next to their
basis.

Pair selection is the normal strategy (minimal lcm degree, then creation
order), which together with full tail reduction and final inter-reduction
makes every returned basis deterministic.  An element enters the basis
monic (an element already monic is kept, not rescaled) and as a full
normal form against the elements before it, so the final inter-reduction
tail-reduces only the elements with a term that a later lead divides.
Two classical criteria (Buchberger's; Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, section 2.10; installed as Gebauer and Moeller
do) drop S-pairs whose reduction would only give zero.  The product
criterion drops a pair whose leads are coprime, but only when both
elements live in one component: in a module an element with several
components can have a coprime lead and still leave a remainder.  The
chain criterion drops a popped pair (i, j) when another element k with
its lead in the same component divides lcm(lead i, lead j) and neither
(i, k) nor (j, k) is still pending (pushed and not yet popped; a pair
dropped by the product criterion is never pushed).  It scans only the
elements with their lead in that component.  The reduced basis is unique,
so the criteria change the work, never the result.
"""

from __future__ import annotations

import heapq
import operator

from .orders import mono_deg, mono_div, mono_divides, mono_lcm
from .poly import Polynomial, PolyRing

VP = dict  # {component: Polynomial}, zero polys never stored


def vp_lead(v: VP, ring: PolyRing):
    """Leading (component, monomial, coefficient) under position-over-term."""
    comp = min(v)
    p = v[comp]
    m = p.leading_monomial()
    return comp, m, p.terms[m]


def vp_from_poly(poly: Polynomial, comp: int) -> VP:
    return {} if poly.is_zero() else {comp: poly}


def lead_index(basis: list[VP], ring: PolyRing) -> dict:
    """{component: [(monomial, coefficient, element)]} of the basis leads,
    each list in basis order: what `vp_normal_form` reduces against."""
    return _index(basis, [vp_lead(g, ring) for g in basis])


def _index(basis: list[VP], leads: list) -> dict:
    index: dict[int, list] = {}
    for g, (c, m, lc) in zip(basis, leads):
        index.setdefault(c, []).append((m, lc, g))
    return index


def _sub_multiple(work: dict, g: VP, q, factor, field) -> None:
    """Subtract factor * x^q * g from the work map in place.  Each shifted,
    scaled term goes straight into its row; a sum that cancels drops its
    monomial and a row that empties drops its component.

    This is the innermost loop of every reduction, so it does its field's
    arithmetic inline, in one loop per field kind: GF(p) reduces each
    product and sum mod p, and QQ uses the int and Fraction operators and
    turns a Fraction with denominator 1 into its int (the `fields` rule for
    integral rationals).  A factor and a stored coefficient are nonzero, so
    a product arriving at an empty slot is nonzero too."""
    shift = operator.add
    p = field.characteristic
    if p:
        neg_factor = -factor % p
        for c, poly in g.items():
            row = work.get(c)
            if row is None:
                row = work[c] = {}
            get = row.get
            for e, k in poly.terms.items():
                m = tuple(map(shift, e, q))
                prev = get(m)
                if prev is None:
                    row[m] = neg_factor * k % p
                else:
                    t = (prev + neg_factor * k) % p
                    if t:
                        row[m] = t
                    else:
                        del row[m]
            if not row:
                del work[c]
        return
    neg_factor = -factor
    for c, poly in g.items():
        row = work.get(c)
        if row is None:
            row = work[c] = {}
        get = row.get
        for e, k in poly.terms.items():
            m = tuple(map(shift, e, q))
            t = neg_factor * k
            prev = get(m)
            if prev is not None:
                t += prev
                if not t:
                    del row[m]
                    continue
            if t.denominator == 1:  # an int is its own numerator
                t = t.numerator
            row[m] = t
        if not row:
            del work[c]


def _monic(v: VP, ring: PolyRing):
    """(v scaled to lead coefficient one, its lead); v itself when its lead
    coefficient is one already."""
    c, m, lc = vp_lead(v, ring)
    if lc == 1:
        return v, (c, m, lc)
    inv = ring.field.inv(lc)
    g = {k: p.scale(inv) for k, p in v.items()}
    return g, (c, m, g[c].terms[m])


def vp_normal_form(v: VP, index: dict, ring: PolyRing, skip: VP | None = None) -> VP:
    """Full normal form of v against a basis (every term reduced), given by
    its `lead_index`; the element `skip`, if any, is left out of it.

    The basis leads are read from the index, never recomputed.  The
    remainder lives in one work map {component: {monomial: coeff}}.  Its
    lead (lowest component, largest monomial there) is cancelled by the
    first basis element, in basis order, whose lead divides it, or else
    moved into the result.
    """
    field, key = ring.field, ring.order.key
    one = field.one()
    work = {c: dict(p.terms) for c, p in v.items()}
    result: dict = {}
    while work:
        c = min(work) if len(work) > 1 else next(iter(work))
        row = work[c]
        m = max(row, key=key) if len(row) > 1 else next(iter(row))
        coeff = row[m]
        for gm, glc, g in index.get(c, ()):
            if mono_divides(gm, m) and g is not skip:
                if glc != one:
                    coeff = field.div(coeff, glc)
                _sub_multiple(work, g, mono_div(m, gm), coeff, field)
                break
        else:
            result.setdefault(c, {})[m] = coeff
            del row[m]
            if not row:
                del work[c]
    return {c: Polynomial(ring, terms) for c, terms in result.items()}


def _spair(f: VP, f_lead, g: VP, g_lead, ring: PolyRing) -> VP:
    field = ring.field
    _, mf, lf = f_lead
    _, mg, lg = g_lead
    lcm = mono_lcm(mf, mg)
    work: dict = {}
    _sub_multiple(work, f, mono_div(lcm, mf), field.neg(field.inv(lf)), field)
    _sub_multiple(work, g, mono_div(lcm, mg), field.inv(lg), field)
    return {c: Polynomial(ring, terms) for c, terms in work.items()}


def module_groebner(generators: list[VP], ring: PolyRing) -> list[VP]:
    """Reduced monic Groebner basis of the submodule the generators span."""
    basis: list[VP] = []
    leads: list = []
    index: dict[int, list] = {}

    def add(nf: VP):
        g, lead = _monic(nf, ring)
        c, m, lc = lead
        basis.append(g)
        leads.append(lead)
        index.setdefault(c, []).append((m, lc, g))

    for gen in generators:
        if not gen:
            continue
        nf = vp_normal_form(gen, index, ring)
        if nf:
            add(nf)

    pairs: list = []
    pending: set = set()  # (i, j), i < j: pushed and not yet popped
    members: dict[int, list] = {}  # component: basis positions with their lead there
    counter = 0

    def push_pairs(new: int):
        nonlocal counter
        cn, mn, _ = leads[new]
        alone = len(basis[new]) == 1
        dn = mono_deg(mn)
        same = members.setdefault(cn, [])
        for i in same:
            mi = leads[i][1]
            lcm = mono_lcm(mi, mn)
            deg = mono_deg(lcm)
            if alone and len(basis[i]) == 1 and deg == mono_deg(mi) + dn:
                continue  # product criterion: coprime leads, one component each
            heapq.heappush(pairs, (deg, counter, i, new, lcm))
            pending.add((i, new))
            counter += 1
        same.append(new)

    for idx in range(len(basis)):
        push_pairs(idx)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        pending.remove((i, j))
        if any(k != i and k != j and mono_divides(leads[k][1], lcm)
               and ((i, k) if i < k else (k, i)) not in pending
               and ((j, k) if j < k else (k, j)) not in pending
               for k in members[leads[i][0]]):
            continue  # chain criterion: S(i, j) follows from S(i, k), S(j, k)
        s = _spair(basis[i], leads[i], basis[j], leads[j], ring)
        nf = vp_normal_form(s, index, ring)
        if not nf:
            continue
        add(nf)
        push_pairs(len(basis) - 1)

    return _interreduce(basis, leads, ring)


def _interreduce(basis: list[VP], leads: list, ring: PolyRing) -> list[VP]:
    """The reduced basis: drop each element whose lead another lead
    divides, tail-reduce the rest against each other, sort.

    Every element entered the basis as a full normal form against the
    elements before it, and is monic, so only a lead that came later can
    reduce one of its terms: an element that no later kept lead reduces is
    already its own reduced form, and is kept as it is.  Tail reduction
    leaves the lead, and so its coefficient one, in place."""
    keep, keep_leads = [], []
    for i, (g, (ci, mi, _)) in enumerate(zip(basis, leads)):
        divisible = False
        for j, (cj, mj, _) in enumerate(leads):
            if i == j:
                continue
            if cj == ci and mono_divides(mj, mi):
                if mj != mi or j < i:
                    divisible = True
                    break
        if not divisible:
            keep.append(g)
            keep_leads.append(leads[i])
    index = _index(keep, keep_leads)
    key = ring.order.key
    out = []
    for i, (g, (c, m, _)) in enumerate(zip(keep, keep_leads)):
        if any(cj in g and any(mono_divides(mj, e) for e in g[cj].terms)
               for cj, mj, _ in keep_leads[i + 1:]):
            g = vp_normal_form(g, index, ring, skip=g)
        out.append(((-c, key(m)), g))
    out.sort(key=lambda pair: pair[0], reverse=True)
    return [reduced for _, reduced in out]


def ideal_groebner(polys, ring: PolyRing) -> list[Polynomial]:
    """Reduced Groebner basis of an ideal (rank-1 module)."""
    gens = [vp_from_poly(p, 0) for p in polys if not p.is_zero()]
    gb = module_groebner(gens, ring)
    return [g[0] for g in gb]


def poly_normal_form(p: Polynomial, gb: list[Polynomial], ring: PolyRing) -> Polynomial:
    if p.is_zero() or not gb:
        return p
    index = lead_index([vp_from_poly(g, 0) for g in gb], ring)
    return vp_normal_form(vp_from_poly(p, 0), index, ring).get(0, ring.zero())


class SubmoduleEngine:
    """Span of vectors plus untracked vectors in A^rank over a quotient
    ring A = P/I.

    Builds one elimination Groebner basis for the `vectors` paired with
    tracking units, and the nonzero `untracked` vectors and the quotient
    relations spread over the real block with none.  Everything else
    (membership mod I, lifts, syzygies, canonical normal forms) reads off
    that basis; lifts and syzygies give coefficients of the tracked
    `vectors` only.
    """

    def __init__(self, ring: PolyRing, rank: int, vectors: list[VP],
                 relations=(), untracked=()):
        self.ring = ring
        self.rank = rank
        self.vectors = [dict(v) for v in vectors]
        self.relations = [r for r in relations if not r.is_zero()]
        big = []
        for i, v in enumerate(self.vectors):
            e = dict(v)
            e[rank + i] = ring.one()
            big.append(e)
        big.extend(dict(v) for v in untracked if v)
        for r in self.relations:
            for j in range(rank):
                big.append({j: r})
        self._gb = module_groebner(big, ring)
        self._index = lead_index(self._gb, ring)

    def _split(self, v: VP):
        real = {c: p for c, p in v.items() if c < self.rank}
        track = {c - self.rank: p for c, p in v.items() if c >= self.rank}
        return real, track

    def reduce(self, v: VP):
        """(remainder, lift) with v = sum(lift_i * vectors_i) + remainder
        mod I and the span of the untracked vectors."""
        nf = vp_normal_form(v, self._index, self.ring)
        real, track = self._split(nf)
        lift = [
            -track[i] if i in track else self.ring.zero()
            for i in range(len(self.vectors))
        ]
        return real, lift

    def contains(self, v: VP) -> bool:
        real, _ = self.reduce(v)
        return not real

    def lift(self, v: VP):
        """Coefficients of the vectors reaching v mod I and the span of the
        untracked vectors, or None when v is not in the span."""
        real, lift = self.reduce(v)
        return None if real else lift

    def syzygies(self) -> list[list[Polynomial]]:
        """Coefficient vectors c with sum(c_i * vectors_i) = 0 mod I·A^rank
        and the span of the untracked vectors."""
        out = []
        k = len(self.vectors)
        for g in self._gb:
            real, track = self._split(g)
            if not real and track:
                out.append([track.get(i, self.ring.zero()) for i in range(k)])
        return out
