"""Buchberger engine for ideals and submodules of free modules.

Module elements are {component index: Polynomial} maps. The module order
is position-over-term: lower component index dominates, ties broken by
the ring's monomial order. Syzygies, kernels, membership, and lifts all
run through one elimination embedding: each generator is paired with a
unit vector in a tracking block of components placed after the real
block, so elements whose lead lands in the tracking block are exactly
the syzygies.

Pair selection is the normal strategy (minimal lcm degree, then creation
order), which together with full tail reduction and final inter-reduction
makes every returned basis deterministic.
"""

from __future__ import annotations

import heapq

from .orders import mono_deg, mono_div, mono_divides, mono_lcm
from .poly import Polynomial, PolyRing

VP = dict  # {component: Polynomial}, zero polys never stored


def vp_is_zero(v: VP) -> bool:
    return not v


def vp_add(v: VP, w: VP) -> VP:
    out = dict(v)
    for c, p in w.items():
        if c in out:
            s = out[c] + p
            if s.is_zero():
                del out[c]
            else:
                out[c] = s
        else:
            out[c] = p
    return out


def vp_neg(v: VP) -> VP:
    return {c: -p for c, p in v.items()}


def vp_sub(v: VP, w: VP) -> VP:
    return vp_add(v, vp_neg(w))


def vp_scale(v: VP, coeff, ring: PolyRing) -> VP:
    if ring.field.is_zero(coeff):
        return {}
    return {c: p.scale(coeff) for c, p in v.items()}


def vp_mul_monomial(v: VP, expo, coeff) -> VP:
    return {c: p.mul_monomial(expo, coeff) for c, p in v.items()}


def vp_lead(v: VP, ring: PolyRing):
    """Leading (component, monomial, coefficient) under position-over-term."""
    comp = min(v)
    p = v[comp]
    m = p.leading_monomial()
    return comp, m, p.terms[m]


def vp_from_poly(poly: Polynomial, comp: int) -> VP:
    return {} if poly.is_zero() else {comp: poly}


def _lead_key(v: VP, ring: PolyRing):
    c, m, _ = vp_lead(v, ring)
    return (-c, ring.order.key(m))


def vp_normal_form(v: VP, basis: list[VP], ring: PolyRing) -> VP:
    """Full normal form of v against basis (every term reduced)."""
    field = ring.field
    # index reducers by lead component for quick lookup
    by_comp: dict[int, list] = {}
    for g in basis:
        c, m, lc = vp_lead(g, ring)
        by_comp.setdefault(c, []).append((m, lc, g))
    result: VP = {}
    work = dict(v)
    while work:
        c, m, coeff = vp_lead(work, ring)
        reduced = False
        for gm, glc, g in by_comp.get(c, ()):
            if mono_divides(gm, m):
                factor = field.div(coeff, glc)
                work = vp_sub(work, vp_mul_monomial(g, mono_div(m, gm), factor))
                reduced = True
                break
        if not reduced:
            # move the irreducible lead term into the result
            term = vp_from_poly(ring.monomial(m, coeff), c)
            result = vp_add(result, term)
            work = vp_sub(work, term)
    return result


def _spair(f: VP, g: VP, ring: PolyRing) -> VP:
    field = ring.field
    cf, mf, lf = vp_lead(f, ring)
    cg, mg, lg = vp_lead(g, ring)
    lcm = mono_lcm(mf, mg)
    a = vp_mul_monomial(f, mono_div(lcm, mf), field.inv(lf))
    b = vp_mul_monomial(g, mono_div(lcm, mg), field.inv(lg))
    return vp_sub(a, b)


def module_groebner(generators: list[VP], ring: PolyRing) -> list[VP]:
    """Reduced monic Groebner basis of the submodule the generators span."""
    basis: list[VP] = []
    for gen in generators:
        if vp_is_zero(gen):
            continue
        nf = vp_normal_form(gen, basis, ring)
        if not vp_is_zero(nf):
            _, _, lc = vp_lead(nf, ring)
            basis.append(vp_scale(nf, ring.field.inv(lc), ring))

    pairs: list = []
    counter = 0

    def push_pairs(new_index: int):
        nonlocal counter
        cn, mn, _ = vp_lead(basis[new_index], ring)
        for i in range(new_index):
            ci, mi, _ = vp_lead(basis[i], ring)
            if ci != cn:
                continue
            lcm = mono_lcm(mi, mn)
            heapq.heappush(pairs, (mono_deg(lcm), counter, i, new_index))
            counter += 1

    for idx in range(len(basis)):
        push_pairs(idx)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        s = _spair(basis[i], basis[j], ring)
        nf = vp_normal_form(s, basis, ring)
        if vp_is_zero(nf):
            continue
        _, _, lc = vp_lead(nf, ring)
        basis.append(vp_scale(nf, ring.field.inv(lc), ring))
        push_pairs(len(basis) - 1)

    return _interreduce(basis, ring)


def _interreduce(basis: list[VP], ring: PolyRing) -> list[VP]:
    # drop elements whose lead is divisible by another lead
    keep = []
    leads = [vp_lead(g, ring) for g in basis]
    for i, g in enumerate(basis):
        ci, mi, _ = leads[i]
        divisible = False
        for j, h in enumerate(basis):
            if i == j:
                continue
            cj, mj, _ = leads[j]
            if cj == ci and mono_divides(mj, mi):
                if mj != mi or j < i:
                    divisible = True
                    break
        if not divisible:
            keep.append(g)
    # tail-reduce each against the others
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        nf = vp_normal_form(g, others, ring)
        if not vp_is_zero(nf):
            _, _, lc = vp_lead(nf, ring)
            out.append(vp_scale(nf, ring.field.inv(lc), ring))
    out.sort(key=lambda v: _lead_key(v, ring), reverse=True)
    return out


def ideal_groebner(polys, ring: PolyRing) -> list[Polynomial]:
    """Reduced Groebner basis of an ideal (rank-1 module)."""
    gens = [vp_from_poly(p, 0) for p in polys if not p.is_zero()]
    gb = module_groebner(gens, ring)
    return [g[0] for g in gb]


def poly_normal_form(p: Polynomial, gb: list[Polynomial], ring: PolyRing) -> Polynomial:
    if p.is_zero() or not gb:
        return p
    nf = vp_normal_form(vp_from_poly(p, 0), [vp_from_poly(g, 0) for g in gb], ring)
    return nf.get(0, ring.zero())


class SubmoduleEngine:
    """Span of vectors in A^rank over a quotient ring A = P/I.

    Builds one elimination Groebner basis for the generators paired with
    tracking units and the quotient relations spread over the real block.
    Everything else (membership mod I, lifts, syzygies, canonical normal
    forms) reads off that basis.
    """

    def __init__(self, ring: PolyRing, rank: int, vectors: list[VP], relations=()):
        self.ring = ring
        self.rank = rank
        self.vectors = [dict(v) for v in vectors]
        self.relations = [r for r in relations if not r.is_zero()]
        big = []
        for i, v in enumerate(self.vectors):
            e = dict(v)
            e[rank + i] = ring.one()
            big.append(e)
        for r in self.relations:
            for j in range(rank):
                big.append({j: r})
        self._gb = module_groebner(big, ring)

    def _split(self, v: VP):
        real = {c: p for c, p in v.items() if c < self.rank}
        track = {c - self.rank: p for c, p in v.items() if c >= self.rank}
        return real, track

    def reduce(self, v: VP):
        """(remainder, lift) with v = sum(lift_i * vectors_i) + remainder mod I."""
        nf = vp_normal_form(v, self._gb, self.ring)
        real, track = self._split(nf)
        lift = [
            -track[i] if i in track else self.ring.zero()
            for i in range(len(self.vectors))
        ]
        return real, lift

    def contains(self, v: VP) -> bool:
        real, _ = self.reduce(v)
        return vp_is_zero(real)

    def lift(self, v: VP):
        real, lift = self.reduce(v)
        return None if not vp_is_zero(real) else lift

    def normal_form(self, v: VP) -> VP:
        return self.reduce(v)[0]

    def syzygies(self) -> list[list[Polynomial]]:
        """Coefficient vectors c with sum(c_i * vectors_i) = 0 mod I·A^rank."""
        out = []
        k = len(self.vectors)
        for g in self._gb:
            real, track = self._split(g)
            if vp_is_zero(real) and track:
                out.append([track.get(i, self.ring.zero()) for i in range(k)])
        return out
