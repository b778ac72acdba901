"""Reflection-group data: built-in catalog (trivial, cyclic, dihedral, G4),
JSON ingestion with invariant validation, class fusion, induction
and fake-degree computation."""

from __future__ import annotations

import json
import os
from contextvars import ContextVar
from fractions import Fraction
from functools import cache
from math import lcm
from pathlib import Path

from .cyclotomic import _unit_generators, dot, from_literal, integer, json_list, one, rat, zero, zeta
from .laurent import LaurentPoly, factor_unit_part, laurent_from_doc, orbit_quotients, unit_shaped
from .ntheory import join, orbit_walk, permutation
from .schur import cyclic_schur, dihedral_schur, poincare_roots, schur_numerators

ENUMERATION_BOUND = 50_000

DATA_DIR_ENV = "HECKEFAM_DATA_DIR"


class GroupDataError(ValueError):
    """Raised when a group document violates the schema or an invariant."""


class ParabolicEmbedding:
    def __init__(self, subgroup: "GroupDatum", generator_words: tuple, induction_matrix: tuple):
        self.subgroup = subgroup
        self.generator_words = generator_words
        self.induction_matrix = induction_matrix  # rows: Irr(W'), cols: Irr(W)

    def __repr__(self):
        return f"<Parabolic {self.subgroup.name}>"


class GroupDatum:
    """Complete per-group dataset; treat as immutable after construction.

    Enumeration builds one multiplication table, table[i][g] the position of
    element i times generator g + 1, with the BFS parent of each element
    (`_enumeration`).  The element set, word matrices, class representatives,
    conjugacy classes and parabolic fusion are read off that table, so no
    matrix product is taken after the BFS.  Derived values (`elements`,
    `class_matrices`, ...) are kept by functools.cache, keyed by the datum's
    identity, for the life of the process."""

    def __init__(self, *, name, order, mu, rank, generators, degrees, classes,
                 char_names, irr, fake_degrees, schur_elements, spetsial,
                 conj_perm=None, det_index=None, parabolic_specs=()):
        self.name = name
        self.order = order
        self.mu = mu
        self.rank = rank
        self.generators = generators          # tuple of rank x rank Cyclotomic matrices
        self.degrees = degrees
        self.classes = classes                # tuple of (size, word)
        self.char_names = char_names
        self.irr = irr                        # rows: characters, cols: classes
        self.fake_degrees = fake_degrees
        self.schur_elements = schur_elements
        self.conj_perm = conj_perm            # None: inferred by validation
        self.det_index = det_index            # None: inferred by validation
        self.spetsial = spetsial
        self.parabolic_specs = parabolic_specs
        self.parabolics: tuple[ParabolicEmbedding, ...] = ()

    # -- simple accessors ---------------------------------------------------

    @property
    def n_irr(self) -> int:
        return len(self.irr)

    def char_degree(self, i: int) -> int:
        return int(self.irr[i][0].as_rational())

    def char_index(self, name: str) -> int:
        return self.char_names.index(name)

    @property
    @cache
    def field_conductor(self) -> int:
        n = 1
        for row in self.irr:
            for v in row:
                n = lcm(n, v.conductor)
        for c in self.schur_elements:
            n = lcm(n, c.conductor_lcm())
        return n

    def poincare(self) -> LaurentPoly:
        """prod_i (1 + x + ... + x^(d_i - 1)) over the degrees d_i, built
        from its roots (`schur.poincare_roots`)."""
        return unit_shaped(one, 0, poincare_roots(self.degrees, self.mu), self.mu)

    # -- enumeration ----------------------------------------------------------

    def _matmul(self, A, B):
        r = self.rank
        return tuple(
            tuple(sum((A[i][t] * B[t][j] for t in range(r)), zero) for j in range(r))
            for i in range(r)
        )

    def _identity(self):
        return tuple(tuple(one if i == j else zero for j in range(self.rank)) for i in range(self.rank))

    @cache
    def _enumeration(self) -> tuple:
        """(elements, index, table, parent): the BFS from the identity, the
        one place a matrix product is taken.  elements lists the element
        matrices in discovery order, index[m] is the position of matrix m,
        table[i][g] the position of elements[i] * generators[g], and
        parent[i] = (j, g) the product elements[j] * generators[g] that found
        elements[i] (None for the identity).  The spec bound is enforced."""
        ident = self._identity()
        elements, index, table, parent = [ident], {ident: 0}, [], [None]
        for i, m in enumerate(elements):  # grows as the BFS discovers elements
            row = []
            for gi, g in enumerate(self.generators):
                mm = self._matmul(m, g)
                j = index.get(mm)
                if j is None:
                    _check_order(self.name, len(elements) + 1)
                    j = index[mm] = len(elements)
                    elements.append(mm)
                    parent.append((i, gi))
                row.append(j)
            table.append(tuple(row))
        if len(elements) != self.order:
            raise GroupDataError(
                f"{self.name}: generated group has order {len(elements)}, datum says {self.order}"
            )
        return elements, index, table, parent

    def _word_index(self, word) -> int:
        """The position of the product of the generators in `word`."""
        table = self._enumeration()[2]
        i = 0
        for g in word:
            i = table[i][g - 1]
        return i

    def word_matrix(self, word) -> tuple:
        return self._enumeration()[0][self._word_index(word)]

    @property
    @cache
    def class_matrices(self) -> tuple:
        """The matrix of each class representative word."""
        return tuple(self.word_matrix(word) for _size, word in self.classes)

    @cache
    def elements(self) -> frozenset:
        """The set of element matrices, enumerated by BFS (spec bound enforced)."""
        return frozenset(self._enumeration()[1])

    @cache
    def class_index_map(self) -> dict:
        """Map every element matrix to its class index.  The classes are the
        join of the pairs {m, g^-1 * m * g} over the elements m and the
        generators g, and each stated class must be the whole class of its
        representative.  Left multiplication by g^-1, the x with x * g = 1,
        is tabulated along the BFS tree, as g^-1 * m = (g^-1 * parent(m)) *
        gen(m), so each conjugate is two lookups in the table."""
        elements, _index, table, parent = self._enumeration()
        pairs = []
        for gi in range(len(self.generators)):
            left = [next(x for x, row in enumerate(table) if row[gi] == 0)]
            for j, g in parent[1:]:
                left.append(table[left[j]][g])
            pairs += [(m, table[x][gi]) for m, x in enumerate(left)]
        parts = join(len(elements), pairs)
        part_of = {m: pi for pi, part in enumerate(parts) for m in part}
        owner: list = [None] * len(parts)
        for ci, (size, word) in enumerate(self.classes):
            pi = part_of[self._word_index(word)]
            if len(parts[pi]) != size:
                raise GroupDataError(
                    f"{self.name}: class {ci} has size {len(parts[pi])}, datum says {size}"
                )
            if owner[pi] is not None:
                raise GroupDataError(f"{self.name}: classes {owner[pi]} and {ci} overlap")
            owner[pi] = ci
        if None in owner:
            raise GroupDataError(f"{self.name}: classes do not cover the group")
        return {m: owner[part_of[i]] for i, m in enumerate(elements)}

    @cache
    def reflection_counts(self) -> tuple[int, int]:
        """(number of reflecting hyperplanes, number of reflections), by enumeration.

        m is a reflection exactly when m - 1 has rank one; its hyperplane
        ker(m - 1) is then the kernel of the first nonzero row of m - 1, and
        that row, scaled to lead with 1, is the hyperplane's key."""
        r = self.rank
        nref = 0
        hyperplanes = set()
        for m in self.elements():
            rows = [[m[i][j] - one if i == j else m[i][j] for j in range(r)] for i in range(r)]
            a = next((row for row in rows if any(row)), None)
            if a is None:
                continue
            p = next(j for j, v in enumerate(a) if v)
            if all(b[j] * a[p] == b[p] * a[j] for b in rows for j in range(r)):
                nref += 1
                inv = a[p].inverse()
                hyperplanes.add(tuple(v * inv for v in a))
        return len(hyperplanes), nref


# -- class fusion and induction ------------------------------------------------


def enumerate_and_fuse(W: GroupDatum, P: ParabolicEmbedding) -> tuple:
    """Map each class of the parabolic subgroup to the ambient class of its
    representative, looked up in the class map of the enumerated group."""
    cmap = W.class_index_map()
    sub = P.subgroup
    fusion = []
    for size, word in sub.classes:
        ambient_word = tuple(w for g in word for w in P.generator_words[g - 1])
        fusion.append(cmap[W.word_matrix(ambient_word)])
    return tuple(fusion)


def induction_matrix_from_fusion(W: GroupDatum, sub: GroupDatum, fusion) -> tuple:
    """Induction multiplicities by Frobenius reciprocity,

        <Ind psi, chi> = (1/|W'|) sum_C' |C'| psi(C') conj(chi(fusion(C'))),

    a sum over the classes C' of the subgroup W'; validated nonneg integers."""
    inv_order = Fraction(1, sub.order)
    conj_fused = [[W.irr[W.conj_perm[j]][ci] for ci in fusion] for j in range(W.n_irr)]
    rows = []
    for psi in sub.irr:
        weighted = [v * size for v, (size, _w) in zip(psi, sub.classes)]
        row = []
        for chi_bar in conj_fused:
            ip = dot(weighted, chi_bar) * inv_order
            if not ip.is_rational() or ip.as_rational().denominator != 1 or ip.as_rational() < 0:
                raise GroupDataError(
                    f"{W.name}: induction from {sub.name} gives non-integral multiplicity {ip}"
                )
            row.append(int(ip.as_rational()))
        rows.append(tuple(row))
    return tuple(rows)


def induce(P: ParabolicEmbedding, v) -> tuple:
    """Linear extension of the induction matrix to virtual characters."""
    if len(v) != len(P.induction_matrix):
        raise ValueError("virtual character has wrong length for induction")
    ncols = len(P.induction_matrix[0])
    out = [0] * ncols
    for i, mult in enumerate(v):
        if mult:
            for j in range(ncols):
                out[j] += mult * P.induction_matrix[i][j]
    return tuple(out)


# -- fake degrees (Molien) -------------------------------------------------------


def _molien_parts(W: GroupDatum) -> tuple:
    """(prod(1 - x^d_i), [det(1 - xw) at the representative w of each
    class, in class order]): the Molien term at a class is their quotient."""
    unit = LaurentPoly.const(one, W.mu)
    prod = unit
    for d in W.degrees:
        prod = prod * (unit - LaurentPoly.x_power(d, W.mu))
    r = W.rank
    dets = []
    for m in W.class_matrices:
        one_minus_xw = [
            [LaurentPoly({0: one if i == j else zero, W.mu: -m[i][j]}, W.mu) for j in range(r)]
            for i in range(r)
        ]
        dets.append(_det(one_minus_xw, unit))
    return prod, dets


def _at_one(f: LaurentPoly):
    """f at y = 1 (so at x = 1): the sum of its coefficients, in one `dot`."""
    vals = list(f.coeffs.values())
    return dot(vals, [one] * len(vals))


def _by_exponent(polys) -> dict:
    """e -> (the y^e coefficients of polys, the positions of their polynomials)."""
    out: dict = {}
    for i, f in enumerate(polys):
        for e, v in f.coeffs.items():
            vals, rows = out.setdefault(e, ([], []))
            vals.append(v)
            rows.append(i)
    return out


def _weighted_sum(by_exp: dict, weights) -> dict:
    """The nonzero coefficients of sum_i weights[i] f_i for the polynomials
    f_i of `_by_exponent`: one `dot` per exponent."""
    out = {}
    for e, (vals, rows) in by_exp.items():
        v = dot(vals, [weights[i] for i in rows])
        if v:
            out[e] = v
    return out


def _first_invalid(W: GroupDatum, fds) -> int | None:
    """The first i whose R_chi = fds[i] fails the fake-degree checks: a
    nonzero integral series with R_chi(1) = chi(1), R_triv = 1, and x^N on
    the determinant character, N the number of reflections."""
    unit = LaurentPoly.const(one, W.mu)
    top = LaurentPoly.x_power(W.reflection_counts()[1], W.mu)
    for i, f in enumerate(fds):
        if (
            f.is_zero()
            or any(not v.is_rational() or v.as_rational().denominator != 1
                for v in f.coeffs.values())
            or _at_one(f) != W.irr[i][0]
            or all(v == one for v in W.irr[i]) and f != unit  # R_triv = 1
            or i == W.det_index and f != top  # det carries the top coinvariant degree
        ):
            return i
    return None


def fake_degrees_molien(W: GroupDatum) -> tuple:
    """All fake degrees by the plain Molien sum

        R_chi = (1/|W|) sum_w chi(w) prod(1 - x^d_i) / det(1 - xw),

    which every bundled group satisfies: each R_chi is an integral series
    with R_chi(1) = chi(1), R_triv = 1, and the determinant character gets
    x^N, N the number of reflections (`_validate` checks det_index first).
    The conjugate sum, over conj(chi(w)), is a different convention; it
    agrees with this one only when V is self-dual, and it is not accepted.
    """
    # columns[e][ci] = |class ci| * (prod(1 - x^d_i) / det(1 - xw))[y^e] at w in ci
    columns: dict = {}
    prod, dets = _molien_parts(W)
    for ci, ((size, _w), q) in enumerate(zip(W.classes, orbit_quotients(prod, dets))):
        for e, v in q.coeffs.items():
            columns.setdefault(e, [zero] * len(W.classes))[ci] = v * size
    inv_order = Fraction(1, W.order)
    fds = []
    for chi in W.irr:
        coeffs = ((e, dot(chi, col) * inv_order) for e, col in columns.items())
        fds.append(LaurentPoly({e: v for e, v in coeffs if v}, W.mu, _clean=True))
    bad = _first_invalid(W, fds)
    if bad is not None:
        raise GroupDataError(
            f"{W.name}: the Molien sum gives no valid fake degree for {W.char_names[bad]}"
        )
    return tuple(fds)


def _stated_fake_degrees_hold(W: GroupDatum, conj_irr, images) -> bool:
    """Whether the stated fake degrees R are the Molien sums, decided
    without summing: R passes the checks of `fake_degrees_molien`, and at
    every class C

        sum_chi R_chi conj(chi(C)) = prod(1 - x^d_i) / det(1 - x w_C).

    Put into the Molien sum, the identity and row orthogonality (checked
    before) give R^Molien_chi = sum_psi R_psi <chi, psi> = R_chi.

    The checks of `fake_degrees_molien` come first, so R is integral, and
    sigma_u fixes it.  The identity is then checked at one class per orbit
    of the Galois generators sigma_u that move whole columns
    (`_column_permutations`): sigma_u carries it at C to the class C' whose
    column is sigma_u of C's and det(1 - x w_C') = sigma_u(det(1 - x w_C)).
    Images are the pairs (u, sigma_u of the table) of `_galois_images`."""
    R = W.fake_degrees
    if not R or _first_invalid(W, R) is not None:
        return False
    prod, dets = _molien_parts(W)
    by_exp = _by_exponent(R)
    reps = _orbit_representatives(len(W.classes), _column_permutations(W, dets, images))
    for ci, q in zip(reps, orbit_quotients(prod, [dets[ci] for ci in reps])):
        if _weighted_sum(by_exp, [row[ci] for row in conj_irr]) != q.coeffs:
            return False
    return True


def _column_permutations(W: GroupDatum, dets, images) -> list:
    """The class permutations C -> C' of the Galois generators sigma_u that
    carry the column identity (`_stated_fake_degrees_hold`) from C to C':
    sigma_u(chi(C)) = chi(C') for every chi, and det(1 - x w_C') =
    sigma_u(det(1 - x w_C)).  The images of the table are retaken at a
    larger conductor when some det(1 - xw) needs one."""
    n_table = _table_conductor(W.irr)
    n = lcm(n_table, *(f.conductor_lcm() for f in dets))
    if n != n_table:
        images = _galois_images(W.irr, n)
    columns = list(zip(*W.irr))
    perms = []
    for u, table in images:
        perm = permutation(list(zip(*table)), columns)
        if perm is not None and all(det.galois(u) == dets[perm[c]] for c, det in enumerate(dets)):
            perms.append(perm)
    return perms


# -- Galois orbits of characters, pairs and classes ------------------------------


def _table_conductor(irr) -> int:
    """The lcm of the conductors of the values of a character table."""
    return lcm(*(v.conductor for row in irr for v in row))


def _galois_images(irr, n: int) -> list:
    """[(u, the table sigma_u(irr))] over the generators u of (Z/n)^*
    (`_unit_generators`), for n a multiple of every conductor of the table;
    sigma_u: zeta_n -> zeta_n^u."""
    return [(u, [tuple(v.galois(u) for v in row) for row in irr])
            for u, _order in _unit_generators(n)]


def _orbit_representatives(k: int, perms) -> list[int]:
    """The least element of each orbit of range(k) under the group that the
    permutations perms generate, ascending; range(k) when perms is empty."""
    return [x for x, y, _g in orbit_walk(k, perms) if y is None]


def _check_orthogonality(W: GroupDatum, conj_irr, images) -> None:
    """Row orthogonality, sum_C |C| chi_i(C) conj(chi_j(C)) = |W| delta_ij,
    on one pair {i, j} per orbit of the Galois generators sigma_u that
    permute the rows: sigma_u(chi_i) = chi_pi(i) for every i.  sigma_u
    commutes with complex conjugation and fixes |W| delta_ij, so the
    relation holds at {i, j} exactly when it holds at {pi(i), pi(j)}.  The
    least pair of each orbit is checked, so the first pair that fails is
    the first of all pairs that fail, in the order (i, j) with i <= j."""
    k = W.n_irr
    perms = [p for p in (permutation(table, W.irr) for _u, table in images) if p]
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    index = {pair: t for t, pair in enumerate(pairs)}
    pair_perms = [[index[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs] for p in perms]
    weighted: dict = {}
    for t in _orbit_representatives(len(pairs), pair_perms):
        i, j = pairs[t]
        if j not in weighted:
            weighted[j] = tuple(v * size for v, (size, _w) in zip(conj_irr[j], W.classes))
        expect = rat(W.order) if i == j else zero
        if dot(W.irr[i], weighted[j]) != expect:
            raise GroupDataError(
                f"{W.name}: orthogonality fails for characters "
                f"({W.char_names[i]}, {W.char_names[j]})"
            )


# -- validation --------------------------------------------------------------------


def _validate(W: GroupDatum) -> GroupDatum:
    name = W.name
    k = W.n_irr
    ncl = len(W.classes)
    if any(len(row) != ncl for row in W.irr):
        raise GroupDataError(f"{name}: character table is not {k} x {ncl}")
    if sum(size for size, _ in W.classes) != W.order:
        raise GroupDataError(f"{name}: class sizes sum to "
                             f"{sum(s for s, _ in W.classes)}, group order is {W.order}")
    deg_prod = 1
    for d in W.degrees:
        deg_prod *= d
    if deg_prod != W.order:
        raise GroupDataError(f"{name}: product of degrees {deg_prod} != |W| = {W.order}")
    _check_indices(W)
    conj_irr = [tuple(v.conjugate() for v in row) for row in W.irr]
    images = _galois_images(W.irr, _table_conductor(W.irr))
    _check_orthogonality(W, conj_irr, images)
    # identity column = degrees, positive integers
    for i in range(k):
        d = W.irr[i][0]
        if not d.is_rational() or d.as_rational() < 1 or d.as_rational().denominator != 1:
            raise GroupDataError(f"{name}: character {W.char_names[i]} has bad degree {d}")
    if sum(W.char_degree(i) ** 2 for i in range(k)) != W.order:
        raise GroupDataError(f"{name}: sum of squared degrees != |W|")
    # enumeration-backed checks
    W.class_index_map()
    # conj_perm, inferred when the document leaves it out
    if W.conj_perm is None:
        try:
            W.conj_perm = tuple(W.irr.index(row) for row in conj_irr)
        except ValueError:
            raise GroupDataError(
                f"{name}: character table is not closed under complex conjugation"
            ) from None
    for i in range(k):
        if W.irr[W.conj_perm[i]] != conj_irr[i]:
            raise GroupDataError(f"{name}: conj_perm wrong at {W.char_names[i]}")
    # det character, inferred when the document leaves it out
    det_vals = tuple(_det(m, one) for m in W.class_matrices)
    if W.det_index is None:
        try:
            W.det_index = W.irr.index(det_vals)
        except ValueError:
            raise GroupDataError(f"{name}: determinant character not found in the table") from None
    if W.irr[W.det_index] != det_vals:
        raise GroupDataError(f"{name}: det_index does not match the determinant character")
    # fake degrees: stated ones proved by the column identity; the Molien
    # sum otherwise, and to name the character on a mismatch
    if not _stated_fake_degrees_hold(W, conj_irr, images):
        molien = fake_degrees_molien(W)
        if W.fake_degrees:
            if tuple(W.fake_degrees) != molien:
                bad = next(i for i in range(k) if W.fake_degrees[i] != molien[i])
                raise GroupDataError(
                    f"{name}: stored fake degree for {W.char_names[bad]} disagrees with Molien"
                )
        else:
            W.fake_degrees = molien
    P = W.poincare()
    if _weighted_sum(_by_exponent(W.fake_degrees), [row[0] for row in W.irr]) != P.coeffs:
        raise GroupDataError(f"{name}: sum of deg * fake degree != Poincare polynomial")
    _check_schur_elements(W)
    # parabolics
    paras = []
    for pspec in W.parabolic_specs:
        sub = pspec["datum"]
        emb = ParabolicEmbedding(sub, tuple(map(tuple, pspec["generators"])), ())
        fusion = enumerate_and_fuse(W, emb)
        matrix = induction_matrix_from_fusion(W, sub, fusion)
        if pspec.get("induction_matrix") not in (None, matrix):
            raise GroupDataError(
                f"{name}: supplied induction matrix for {sub.name} disagrees with fusion"
            )
        emb.induction_matrix = matrix
        # dimension identity: sum_chi M[psi,chi] deg(chi) = [W:W'] deg(psi)
        index = W.order // sub.order
        for si in range(sub.n_irr):
            total = sum(matrix[si][j] * W.char_degree(j) for j in range(k))
            if total != index * sub.char_degree(si):
                raise GroupDataError(
                    f"{name}: induction column sums for {sub.name} violate degree identity"
                )
        paras.append(emb)
    # always provide the trivial parabolic (recursion ground)
    if W.order > 1:
        triv = trivial_group()
        emb = ParabolicEmbedding(triv, (), ())
        emb.induction_matrix = (tuple(W.char_degree(i) for i in range(k)),)
        paras.append(emb)
    W.parabolics = tuple(paras)
    return W


def _check_schur_elements(W: GroupDatum) -> None:
    """The Schur-element rules: one per character, c(1) = |W|/chi(1), each
    unit-shaped, xi y^k prod (y - zeta_m^j)^mult (Chlouveraki, LNM 1981),
    and sum_chi chi(1)/c_chi = 1, checked as sum_chi chi(1) D/c_chi = D
    over their common unit multiple D, one `dot` per exponent of the
    numerators of `schur.schur_numerators`.  A spetsial document also needs
    every y-exponent divisible by mu, and every P/c a Laurent polynomial:
    no root of c above its multiplicity in the Poincare polynomial P
    (`schur.poincare_roots`)."""
    name, chars = W.name, W.char_names
    if len(W.schur_elements) != W.n_irr:
        raise GroupDataError(f"{name}: expected {W.n_irr} Schur elements")
    facts = []
    for i, c in enumerate(W.schur_elements):
        val_at_1 = _at_one(c)
        if val_at_1 != rat(Fraction(W.order, W.char_degree(i))):
            raise GroupDataError(f"{name}: c({chars[i]})(1) != |W|/deg (got {val_at_1})")
        facts.append(factor_unit_part(c))
        if not facts[i].is_unit():
            raise GroupDataError(f"{name}: c({chars[i]}) has a non-unit part {facts[i].non_unit}")
        if W.spetsial and not c.is_x_polynomial():
            raise GroupDataError(f"{name}: spetsial flag set but c({chars[i]}) has "
                                 "y-exponents not divisible by mu")
    if W.spetsial:
        roots_P = poincare_roots(W.degrees, W.mu)
        for i, fact in enumerate(facts):
            if any(mult > roots_P.get(root, 0) for root, mult in fact.unit_factors):
                raise GroupDataError(f"{name}: generic degree P/c is not a Laurent polynomial "
                                     f"for {chars[i]}")
    D, lo, rows = schur_numerators(W)
    degrees = [row[0] for row in W.irr]
    total = {lo + j: v for j, column in enumerate(zip(*rows)) if (v := dot(column, degrees))}
    if total != D.coeffs:
        raise GroupDataError(f"{name}: symmetrizing-form gate sum deg/c != 1 fails")


def _check_indices(W: GroupDatum) -> None:
    """Reject every index of the datum that would point outside what it
    indexes: generator shapes, word letters, parabolic words, conj_perm,
    det_index and the number of fake degrees."""
    name, k, r = W.name, W.n_irr, W.rank
    ngen = len(W.generators)
    for gi, g in enumerate(W.generators, start=1):
        if len(g) != r or any(len(row) != r for row in g):
            raise GroupDataError(f"{name}: generator {gi} is not {r} x {r}")
    words = [(f"class {ci}", word) for ci, (_size, word) in enumerate(W.classes)]
    for pspec in W.parabolic_specs:
        sub = pspec["datum"]
        if len(pspec["generators"]) != len(sub.generators):
            raise GroupDataError(
                f"{name}: parabolic {sub.name} has {len(pspec['generators'])} generator "
                f"words for {len(sub.generators)} generators"
            )
        words += [(f"parabolic {sub.name}", word) for word in pspec["generators"]]
    for where, word in words:
        if any(not 1 <= g <= ngen for g in word):
            raise GroupDataError(
                f"{name}: {where} word {list(word)} names a generator outside 1..{ngen}"
            )
    if W.conj_perm is not None and sorted(W.conj_perm) != list(range(k)):
        raise GroupDataError(f"{name}: conj_perm {list(W.conj_perm)} is not a permutation "
                             f"of the {k} characters")
    if W.det_index is not None and not 0 <= W.det_index < k:
        raise GroupDataError(f"{name}: det_index {W.det_index} is not one of the {k} characters")
    if len(W.fake_degrees) not in (0, k):
        raise GroupDataError(f"{name}: {len(W.fake_degrees)} fake degrees for {k} characters")


def _det(rows, one):
    """Determinant by cofactor expansion along the first row, over any
    commutative ring; `one` is returned for the empty matrix."""
    if not rows:
        return one
    if len(rows) == 1:
        return rows[0][0]
    out = None
    for j, a in enumerate(rows[0]):
        term = a * _det([row[:j] + row[j + 1 :] for row in rows[1:]], one)
        out = term if out is None else (out - term if j % 2 else out + term)
    return out


# -- built-in catalog -----------------------------------------------------------------


@cache
def trivial_group() -> GroupDatum:
    W = GroupDatum(
        name="1", order=1, mu=1, rank=0, generators=(), degrees=(),
        classes=((1, ()),), char_names=("phi{1,0}",), irr=((one,),),
        fake_degrees=(LaurentPoly.const(one),), schur_elements=(LaurentPoly.const(one),),
        spetsial=True,
    )
    return _validate(W)


def _check_order(name: str, order: int) -> None:
    """Reject a group of more than ENUMERATION_BOUND elements: a catalog
    group before any of it is built, a document's as enumeration finds it."""
    if order > ENUMERATION_BOUND:
        raise GroupDataError(f"{name}: enumeration bound {ENUMERATION_BOUND} exceeded")


@cache
def cyclic_group(d: int) -> GroupDatum:
    """Z_d with its one-parameter cyclotomic Hecke data."""
    if d < 2:
        raise ValueError("cyclic_group expects d >= 2")
    _check_order(f"Z{d}", d)
    gens = (((zeta(d),),),)
    classes = tuple((1, (1,) * k) for k in range(d))
    irr = tuple(tuple(zeta(d, i * k) for k in range(d)) for i in range(d))
    # chi_i has fake degree x^{d-i} (coinvariants of the dual space)
    names = tuple(f"phi{{1,{(d - i) % d}}}" for i in range(d))
    fake = tuple(LaurentPoly.x_power((d - i) % d) for i in range(d))
    W = GroupDatum(
        name=f"Z{d}", order=d, mu=1, rank=1, generators=gens, degrees=(d,),
        classes=classes, char_names=names, irr=irr, fake_degrees=fake,
        schur_elements=tuple(cyclic_schur(d)), spetsial=True,
    )
    return _validate(W)


@cache
def dihedral_group(n: int) -> GroupDatum:
    """I2(n), n >= 3, generated by two reflections, with the fake degrees
    1, x^n, x^(n/2) (twice, n even) and x^j + x^(n-j) of phi{2,j}."""
    if n < 3:
        raise ValueError("dihedral_group expects n >= 3")
    _check_order(f"I2({n})", 2 * n)
    s = ((zero, one), (one, zero))
    t = ((zero, zeta(n, -1)), (zeta(n), zero))
    m = n // 2
    classes = [(1, ())]
    rot_range = range(1, m + 1) if n % 2 == 1 else range(1, m)
    for k in rot_range:
        classes.append((2, (1, 2) * k))
    if n % 2 == 0:
        classes.append((1, (1, 2) * m))
        classes.append((n // 2, (1,)))
        classes.append((n // 2, (2,)))
    else:
        classes.append((n, (1,)))
    classes = tuple(classes)

    # zeta^t + zeta^-t once per t = jk mod n
    rot_vals = [zeta(n, t) + zeta(n, -t) for t in range(n)]
    chars = []
    names = []
    fake = [LaurentPoly.x_power(0), LaurentPoly.x_power(n)]
    nrot = m if n % 2 == 1 else m - 1
    # trivial
    chars.append(tuple([one] + [one] * nrot + ([one, one, one] if n % 2 == 0 else [one])))
    names.append("phi{1,0}")
    # sign
    chars.append(
        tuple([one] + [one] * nrot + ([one, -one, -one] if n % 2 == 0 else [-one]))
    )
    names.append(f"phi{{1,{n}}}")
    if n % 2 == 0:
        eps = [one] + [(-one) ** k for k in range(1, m)] + [(-one) ** m]
        chars.append(tuple(eps + [one, -one]))
        names.append(f"phi{{1,{m}}}'")
        chars.append(tuple(eps + [-one, one]))
        names.append(f"phi{{1,{m}}}''")
        fake += [LaurentPoly.x_power(m)] * 2
    for j in range(1, nrot + 1):
        row = [rat(2)] + [rot_vals[j * k % n] for k in range(1, nrot + 1)]
        if n % 2 == 0:
            row += [rat(2) * (-one) ** j, zero, zero]
        else:
            row += [zero]
        chars.append(tuple(row))
        names.append(f"phi{{2,{j}}}")
        fake.append(LaurentPoly({j: one, n - j: one}, _clean=True))
    parabolics = [{"datum": cyclic_group(2), "generators": ((1,),)}]
    if n % 2 == 0:
        parabolics.append({"datum": cyclic_group(2), "generators": ((2,),)})
    W = GroupDatum(
        name=f"I2({n})", order=2 * n, mu=1, rank=2, generators=(s, t), degrees=(2, n),
        classes=classes, char_names=tuple(names), irr=tuple(chars), fake_degrees=tuple(fake),
        schur_elements=tuple(dihedral_schur(n)), spetsial=True,
        parabolic_specs=tuple(parabolics),
    )
    return _validate(W)


def _data_dir() -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


# the files being loaded in this thread, outermost first
_loading: ContextVar[tuple] = ContextVar("_loading", default=())


def load_group(doc) -> GroupDatum:
    """Build and validate a GroupDatum from a parsed JSON document or a path.
    A parabolic names its group by catalog name or file path; a file reached
    again while it is being loaded (it is on _loading) raises GroupDataError
    naming the cycle."""
    if not isinstance(doc, (str, Path)):
        return _build(doc)
    path = Path(doc).resolve()
    chain = _loading.get()
    if path in chain:
        cycle = [*chain[chain.index(path):], path]
        raise GroupDataError("parabolics form a cycle: " + " -> ".join(map(str, cycle)))
    token = _loading.set((*chain, path))
    try:
        with open(doc) as fh:
            return _build(json.load(fh))
    finally:
        _loading.reset(token)


@cache
def _load_file(path: Path) -> GroupDatum:
    """`load_group(path)`, once per resolved path per process."""
    return load_group(path)


def _build(doc) -> GroupDatum:
    """The validated GroupDatum of a parsed JSON document."""
    if not isinstance(doc, dict):
        raise GroupDataError("group document must be a JSON object")
    if doc.get("format") != 1:
        raise GroupDataError(f"unsupported format {doc.get('format')!r} (expected 1)")
    required = ["name", "order", "rank", "degrees", "generators", "classes",
                "characters", "schur_elements"]
    for fkey in required:
        if fkey not in doc:
            raise GroupDataError(f"missing required field {fkey!r}")

    def ints(row) -> tuple:
        return tuple(integer(v) for v in json_list(row))

    def literals(row) -> tuple:
        return tuple(from_literal(v) for v in json_list(row))

    try:
        generators = tuple(tuple(map(literals, json_list(g))) for g in json_list(doc["generators"]))
        classes = tuple((integer(c["size"]), ints(c["word"])) for c in json_list(doc["classes"]))
        characters = json_list(doc["characters"])
        names = tuple(ch["name"] for ch in characters)
        irr = tuple(literals(ch["values"]) for ch in characters)
        fake = tuple(map(laurent_from_doc, json_list(doc.get("fake_degrees", []))))
        schur = tuple(map(laurent_from_doc, json_list(doc["schur_elements"])))
        parabolics = [
            (p["name"], tuple(map(ints, json_list(p["generators"]))),
             None if p.get("induction_matrix") is None
             else tuple(map(ints, json_list(p["induction_matrix"]))))
            for p in json_list(doc.get("parabolics", []))
        ]
        conj_perm = ints(doc["conj_perm"]) if "conj_perm" in doc else None
        det_index = integer(doc["det_index"]) if "det_index" in doc else None
        mu = integer(doc.get("mu", 1))
        order = integer(doc["order"])
        rank = integer(doc["rank"])
        degrees = ints(doc["degrees"])
        spetsial = doc.get("spetsial", False)
        if not isinstance(spetsial, bool):
            raise ValueError(f"spetsial must be true or false, not {spetsial!r}")
        if mu < 1:
            raise ValueError(f"mu must be a positive integer, not {mu}")
        for key, polys in (("fake_degrees", fake), ("schur_elements", schur)):
            for i, f in enumerate(polys):
                if f.mu != mu:
                    raise ValueError(f"{key}[{i}] has mu {f.mu}, the document has mu {mu}")
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupDataError(f"malformed group document: {exc}") from exc
    paraspecs = tuple(
        {"datum": get_group(pname), "generators": words, "induction_matrix": matrix}
        for pname, words, matrix in parabolics
    )
    W = GroupDatum(
        name=doc["name"], order=order, mu=mu, rank=rank,
        generators=generators, degrees=degrees,
        classes=classes, char_names=names, irr=irr, fake_degrees=fake,
        schur_elements=schur, conj_perm=conj_perm, det_index=det_index,
        spetsial=spetsial, parabolic_specs=paraspecs,
    )
    return _validate(W)


@cache
def g4_group() -> GroupDatum:
    return load_group(_data_dir() / "g4.json")


def get_group(name: str) -> GroupDatum:
    """Resolve a group by catalog name ("G4", "Z5", "I2.7", "I2(7)") or file
    path, a file loaded once per process."""
    name = str(name)
    if name in ("1", "triv", "trivial"):
        return trivial_group()
    if name.upper() == "G4":
        return g4_group()
    if name.upper().startswith("Z") and name[1:].isdigit():
        return cyclic_group(int(name[1:]))
    for prefix in ("I2.", "I2(", "i2.", "i2("):
        if name.startswith(prefix):
            num = name[len(prefix):].rstrip(")")
            if num.isdigit():
                return dihedral_group(int(num))
    if os.path.exists(name):
        return _load_file(Path(name).resolve())
    raise GroupDataError(f"unknown group {name!r} (not a catalog name or file)")
