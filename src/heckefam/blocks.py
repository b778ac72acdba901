"""Per-prime block partitions of the cyclotomic Hecke algebra, projective
columns with resolution status, and the family partition as the join over
bad primes.

Every partition is read off keys and joins.  The group p-blocks are the
fibres of the reduction of the central characters modulo a prime P above p.
The coarse partition, an upper bound for the blocks of O_p H(W), is the
fibres of (p-block, central exponent), with unit Schur elements split off.
One rule, `_bounded`, gives every status: a part of the join of the upper
pieces is exact when the join of the lower pieces, the supports of
proven-indecomposable projective columns within each part, reproduces it.
Per prime the upper pieces are the coarse parts; for the families they are
the per-prime parts over every bad prime, and the lower pieces the
per-prime cuts.  Columns are never marked resolved without a completed
subset-search proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .cyclotomic import zero
from .groups import induce
from .laurent import common_unit_multiple, factor_unit_part
from .ntheory import join
from .schur import a_plus_A, bad_primes, compute_invariants
from .valuation import integrality_conditions, laurent_content_val, primes_above, reduction

EXACT, UPPER = "exact", "upper-bound"

WALK_BUDGET = 100_000  # nodes that `_box_points` may visit for one column


class BlockPartition:
    """Disjoint cover of Irr(W) with a status flag per part."""

    def __init__(self, parts, status):
        order = sorted(range(len(parts)), key=lambda i: min(parts[i]))
        self.parts = tuple(tuple(sorted(parts[i])) for i in order)
        self.status = tuple(status[i] for i in order)
        self._lookup = {}
        for pi, part in enumerate(self.parts):
            for ch in part:
                self._lookup[ch] = pi

    def part_of(self, i: int) -> int:
        return self._lookup[i]

    def all_exact(self) -> bool:
        return all(s == EXACT for s in self.status)

    def __repr__(self):
        bits = [
            "{" + ",".join(map(str, p)) + "}" + ("" if s == EXACT else "?")
            for p, s in zip(self.parts, self.status)
        ]
        return "[" + " ".join(bits) + "]"


class DecompApprox:
    """Projective-character columns with per-column resolution marks."""

    def __init__(self, columns, resolved, notes):
        self.columns = tuple(tuple(c) for c in columns)
        self.resolved = tuple(bool(r) for r in resolved)
        self.notes = tuple(notes)

    def __repr__(self):
        out = []
        for col, res, note in zip(self.columns, self.resolved, self.notes):
            mark = "ok" if res else "??"
            out.append(f"{col} [{mark}] {note}")
        return "\n".join(out)


def _cuts(partition: BlockPartition, columns) -> list[list[int]]:
    """The support of each column within each part of the partition."""
    return [[i for i in part if col[i]] for col in columns for part in partition.parts]


def _bounded(k: int, upper, lower) -> BlockPartition:
    """The join of the upper pieces, a part exact when the join of the lower
    pieces reproduces it.  When the upper pieces are parts of upper bounds,
    every block lies inside one part of their join; when each lower piece
    lies inside one block, so does every part of theirs.  A part where the
    two joins agree is then a block.  With no lower pieces, exactly the
    singletons are exact."""
    proven = set(join(k, lower))
    parts = join(k, upper)
    return BlockPartition(parts, [EXACT if part in proven else UPPER for part in parts])


# -- per-prime functions ------------------------------------------------------------


@cache
def _prime(W, p: int):
    """The prime ideal P above p at which every per-prime partition of W is
    read: the first of `primes_above` at the lcm of W's field conductor and
    the conductors of the roots of unity in its Schur elements, whose
    factorizations validation cached.  zeta_m^j, j prime to m, has
    conductor m, or m/2 when m = 2 mod 4."""
    cond = W.field_conductor
    for c in W.schur_elements:
        for (m, _j), _mult in factor_unit_part(c).unit_factors:
            cond = lcm(cond, m // 2 if m % 4 == 2 else m)
    return primes_above(p, cond)[0]


@cache
def _defect_zero(W, spec) -> tuple[bool, ...]:
    """Whether each character has defect zero at spec: the Gauss content of
    its Schur element is 0.  `laurent_content_val` reads it as val(xi) off
    the unit-shaped element xi y^k prod (y - omega)^m (validation rejects
    any other shape): each other factor has content 0 at every prime, so by
    Gauss's lemma only xi can be divisible by P.  A Schur element that is
    not integral at spec raises ValueError."""
    vals = [laurent_content_val(c, spec) for c in W.schur_elements]
    for name, v in zip(W.char_names, vals):
        if v < 0:
            raise ValueError(f"{W.name}: Schur element of {name} is not integral at p={spec.p}")
    return tuple(v == 0 for v in vals)


def _lattice(W, spec, support: tuple):
    """Hermite normal form of the lattice of vectors s over `support` that
    pass the O_p integrality test: every coefficient of sum_i s_i D/c_i
    integral at spec (`_numerator_columns`)."""
    columns = _numerator_columns(tuple(W.schur_elements[i] for i in support))
    return _kernel_hnf(*integrality_conditions(spec, columns), len(support))


@cache
def _numerator_columns(schur_elements: tuple) -> list:
    """The coefficients of each numerator D/c_i, on the exponents that any
    of them has, D the common multiple of the linear factors of the Schur
    elements c_i (`common_unit_multiple`).  They do not depend on the
    prime, so they are kept by the Schur elements themselves: a support
    that two bad primes test, or two supports with equal Schur elements,
    build them once.  A Schur element with a non-unit part raises
    ValueError."""
    _d, numerators = common_unit_multiple(list(schur_elements))
    slots = sorted({e for npoly in numerators for e in npoly.coeffs})
    return [[npoly.coeffs.get(e, zero) for e in slots] for npoly in numerators]


def find_integral_subvector(W, spec, phi):
    """First proper nonzero subvector, in product order, passing the O_p
    integrality test, or None when all fail (proving indecomposability).
    Raises ValueError when the test is unsupported for this support, when
    phi itself fails it, or when the walk exceeds its budget.

    The subvectors that pass are the points in the box [0, phi] of the
    lattice of `_lattice`.  A point x @ h of its Hermite basis h has
    coordinate c equal to x_c h[c][c] plus an offset fixed by x_1 ..
    x_{c-1}, that is by the coordinates before c, so coordinate c runs
    through one residue class modulo h[c][c].  `_box_points` takes each
    coordinate in ascending order, the later ones varying fastest: that
    is lexicographic order, the order of itertools.product over the
    ranges range(phi_c + 1).  After 0, its first point is therefore the
    first passing subvector of the exhaustive search, and phi, the last
    vector of the box, comes first only when no proper subvector
    passes.  That argument needs phi in the lattice, which is tested
    first."""
    support = tuple(i for i, m in enumerate(phi) if m)
    mults = tuple(phi[i] for i in support)
    hnf = _lattice(W, spec, support)
    if not _in_lattice(hnf, mults):
        raise ValueError(f"{tuple(phi)} fails the integrality test itself")
    first = next((s for s in _box_points(hnf, mults) if any(s)), mults)
    if first == mults:
        return None
    sub = [0] * len(phi)
    for j, i in enumerate(support):
        sub[i] = first[j]
    return tuple(sub)


def _kernel_hnf(rows, moduli, k: int) -> list[list[int]]:
    """Upper-triangular Hermite normal form of the lattice
    {s in Z^k : sum_i s_i rows[i][j] = 0 mod moduli[j] for all j}, where the
    moduli are powers of one prime (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4).

    Column j is scaled by q / moduli[j], q the largest modulus, so every
    condition reads modulo q, and the lattice contains q Z^k.  The rows
    [scaled rows[i] | e_i] generate a Z/q-module that is echelonized column
    by column, pivoting on the entry of least p-valuation.  Eliminating a
    column keeps (q / a) times its pivot row, for a the p-part of the
    pivot entry, so the generators left after the test columns span the
    kernel, and their pivot rows on the last k columns form the Hermite
    form, with q e_c where no generator reaches column c.  Entries above
    the diagonal are then reduced so that 0 <= h[i][c] < h[c][c]."""
    q = max(moduli, default=1)
    m = len(moduli)
    gens = [
        [x * (q // mod) % q for x, mod in zip(row, moduli)] + [int(i == j) % q for j in range(k)]
        for i, row in enumerate(rows)
    ]
    hnf = []
    for c in range(m + k):
        piv = min((g for g in gens if g[c]), key=lambda g: gcd(g[c], q), default=None)
        if piv is None:
            if c >= m:
                hnf.append([q * int(j == c - m) for j in range(k)])
            continue
        gens.remove(piv)
        a = gcd(piv[c], q)
        inv = pow(piv[c] // a, -1, q)
        piv = [x * inv % q for x in piv]
        gens = [[(x - g[c] // a * y) % q for x, y in zip(g, piv)] if g[c] else g
                for g in gens]
        gens.append([x * (q // a) % q for x in piv])
        if c >= m:
            hnf.append(piv[m:])
    for c in range(k):
        d = hnf[c][c]
        for i in range(c):
            r = hnf[i][c] // d
            if r:
                hnf[i] = [x - r * y for x, y in zip(hnf[i], hnf[c])]
    return hnf


def _in_lattice(hnf, s) -> bool:
    """Whether s is an integer combination of the rows of the triangular hnf."""
    s = list(s)
    for c, row in enumerate(hnf):
        x, r = divmod(s[c], row[c])
        if r:
            return False
        if x:
            s = [a - x * b for a, b in zip(s, row)]
    return True


def _box_points(hnf, box):
    """The points in [0, box] of the lattice with upper-triangular basis
    hnf, in lexicographic order.  Each value a coordinate takes is a node
    of the walk; the walk raises ValueError at node WALK_BUDGET + 1, so
    that no verdict rests on a walk that did not finish."""
    k = len(box)
    point = [0] * k
    nodes = 0

    def walk(c, offset):
        nonlocal nodes
        if c == k:
            yield tuple(point)
            return
        row, d = hnf[c], hnf[c][c]
        for s in range(offset[c] % d, box[c] + 1, d):
            nodes += 1
            if nodes > WALK_BUDGET:
                raise ValueError(f"the subset walk exceeds its budget of {WALK_BUDGET} nodes")
            point[c] = s
            x = (s - offset[c]) // d
            yield from walk(c + 1, [a + x * b for a, b in zip(offset, row)] if x else offset)

    yield from walk(0, [0] * k)


# -- the algorithm steps -----------------------------------------------------------


@cache
def _central_characters(W) -> tuple:
    """omega_chi(C) = |C| chi(g_C) / chi(1), a row per character and an
    entry per class; equal values are one object, so the table keeps only
    the distinct ones (19 of the 324 entries of I2(30))."""
    distinct: dict = {}
    return tuple(
        tuple(distinct.setdefault(w, w) for w in (
            W.irr[i][ci] * Fraction(size, W.char_degree(i))
            for ci, (size, _w) in enumerate(W.classes)))
        for i in range(W.n_irr)
    )


def group_p_blocks(W, p: int) -> BlockPartition:
    """Brauer p-blocks of the reflection group itself: the fibres of the
    reduction modulo the fixed prime P above p of the central characters
    omega_chi(C) = |C| chi(g_C) / chi(1), two characters sharing a block
    exactly when their central characters agree mod P on every class
    (Navarro, Characters and Blocks of Finite Groups, ch. 3).  The central
    characters of a group are algebraic integers; a table with a
    non-integral one raises ValueError.  The central characters are
    computed once per group, and `reduction` once per distinct value."""
    spec = _prime(W, p)
    fibres: dict = {}
    for i, row in enumerate(_central_characters(W)):
        fibres.setdefault(tuple(reduction(spec, w) for w in row), []).append(i)
    parts = list(fibres.values())
    return BlockPartition(parts, [EXACT] * len(parts))


def coarse_partition(W, p: int) -> BlockPartition:
    """Step (1): p-blocks of W intersected with level sets of the central
    exponent (N(chi)+N(chi*))/chi(1); unit Schur elements split off as
    singletons.  An upper bound, exact on its singletons."""
    defect_zero = _defect_zero(W, _prime(W, p))
    pb = group_p_blocks(W, p)
    records = compute_invariants(W)
    keys: dict = {}
    for i in range(W.n_irr):
        key = i if defect_zero[i] else (pb.part_of(i), a_plus_A(W, i, records))
        keys.setdefault(key, []).append(i)
    return _bounded(W.n_irr, list(keys.values()), [])


def monoid_minimal_generators(vectors) -> list[tuple]:
    """Unique minimal generating set of the additive monoid generated by the
    given nonnegative vectors (bounded exhaustive representability search)."""
    vecs = sorted({tuple(v) for v in vectors if any(v)})
    for v in vecs:
        if any(x < 0 for x in v):
            raise ValueError("monoid generators must be nonnegative")

    def representable(target, gens):
        # DFS with memo: can target be written as a nonnegative combination?
        memo = set()

        def rec(t):
            if not any(t):
                return True
            if t in memo:
                return False
            i = next(j for j, x in enumerate(t) if x)
            for g in gens:
                if g[i] and all(gx <= tx for gx, tx in zip(g, t)):
                    if rec(tuple(tx - gx for tx, gx in zip(t, g))):
                        return True
            memo.add(t)
            return False

        return rec(target)

    kept = []
    for i, v in enumerate(vecs):
        others = [w for j, w in enumerate(vecs) if j != i]
        if not representable(v, others):
            kept.append(v)
    return kept


def induced_cuts(P, columns, partition: BlockPartition) -> set:
    """Each column of the parabolic P induced up to W and cut by the parts of
    the partition: the nonzero cuts."""
    cuts = set()
    for col in columns:
        ind = induce(P, col)
        for part in partition.parts:
            cut = tuple(m if i in part else 0 for i, m in enumerate(ind))
            if any(cut):
                cuts.add(cut)
    return cuts


def candidate_projectives(W, p: int, partition: BlockPartition) -> list[tuple]:
    """Step (2): parabolic projective columns induced up, cut by the parts,
    plus the unit vectors of defect-zero characters; minimized as monoid
    generators."""
    defect_zero = _defect_zero(W, _prime(W, p))
    cands = set()
    for i in range(W.n_irr):
        if defect_zero[i]:
            e = [0] * W.n_irr
            e[i] = 1
            cands.add(tuple(e))
    for P in W.parabolics:
        cands |= induced_cuts(P, hecke_blocks(P.subgroup, p)[1].columns, partition)
    return monoid_minimal_generators(cands)


def indecomposability_check(phi, W, p: int):
    """Step (4): phi is proven indecomposable when no proper nonzero
    subcharacter passes the O_p integrality test.

    Returns ("indecomposable", None), ("splittable", (phi1, phi2)) or
    ("unknown", reason).  A passing subcharacter is only a split *candidate*,
    never a proof, so it is reported as splittable/unknown."""
    phi = tuple(phi)
    if any(m < 0 for m in phi):
        raise ValueError("projective candidates must be nonnegative")
    weight = sum(phi)
    if weight <= 1:
        return ("indecomposable", None)
    spec = _prime(W, p)
    try:
        sub = find_integral_subvector(W, spec, phi)
    except ValueError as exc:
        return ("unknown", str(exc))
    if sub is None:
        return ("indecomposable", None)
    rest = tuple(a - b for a, b in zip(phi, sub))
    return ("splittable", (sub, rest))


@cache
def hecke_blocks(W, p: int):
    """Steps (1)-(4): returns (BlockPartition, DecompApprox) for O_p H(W).

    The partition is the coarse upper bound, a part exact when the resolved
    columns cut by the coarse parts link all of it: step (3), the linking
    closure of those cuts, is the lower join of `_bounded`."""
    coarse = coarse_partition(W, p)
    columns = candidate_projectives(W, p, coarse)
    resolved, notes = [], []
    for col in columns:
        verdict, detail = indecomposability_check(col, W, p)
        if verdict == "indecomposable":
            resolved.append(True)
            notes.append("proved indecomposable by exhausting proper subcharacters")
        elif verdict == "splittable":
            resolved.append(False)
            notes.append(f"integral proper subcharacter found: {detail[0]} (not a proof)")
        else:
            resolved.append(False)
            notes.append(detail)
    proven = [c for c, r in zip(columns, resolved) if r]
    partition = _bounded(W.n_irr, coarse.parts, _cuts(coarse, proven))
    return partition, DecompApprox(columns, resolved, notes)


def families(W) -> BlockPartition:
    """Blocks over the Rouquier ring: the join of the per-prime partitions
    over all bad primes, exact where the join of every per-prime resolved
    cut reproduces it."""
    upper, lower = [], []
    for p in sorted(bad_primes(W)):
        partition, decomp = hecke_blocks(W, p)
        upper += partition.parts
        lower += _cuts(partition, [c for c, r in zip(decomp.columns, decomp.resolved) if r])
    return _bounded(W.n_irr, upper, lower)
