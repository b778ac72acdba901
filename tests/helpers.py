"""Helpers that only the tests use: partition comparisons, reassembly of a
unit-part factorization and the uncached search behind it, the catalog
Schur elements expanded term by term from their formulas, sums of
quotients by Schur elements over their common unit multiple,
serialization of a group to a format-1 document (at another mu, or Z2
with chosen Schur elements), restriction to a parabolic subgroup, and
the reference algorithms that the package's table-driven classes, long
division, induction by Frobenius reciprocity, content from the unit
factorization, one-comprehension digit images and abacus cores replaced."""

from fractions import Fraction

from heckefam.cyclotomic import dot, one, rat, to_literal, zero, zeta
from heckefam import laurent
from heckefam.groups import GroupDataError, cyclic_group, enumerate_and_fuse
from heckefam.laurent import LaurentPoly, common_unit_multiple, laurent_to_doc
from heckefam.symbols import _cohook_moves, _hook_moves, normalize, remove_cohook, remove_hook
from heckefam.valuation import INF, val


def refines(partition, other) -> bool:
    """Whether every part of `partition` lies inside one part of `other`."""
    return all(len({other.part_of(ch) for ch in part}) == 1 for part in partition.parts)


def as_sets(partition) -> list:
    return [frozenset(p) for p in partition.parts]


def reassemble(u) -> LaurentPoly:
    """scalar * y^y_power * prod (y - omega)^m * non_unit of a UnitFactorization."""
    mu = u.non_unit.mu
    out = (u.non_unit * u.scalar).shift(u.y_power)
    for omega, mult in u.unit_factors:
        factor = LaurentPoly({1: one, 0: -omega}, mu)
        for _ in range(mult):
            out = out * factor
    return out


def unit_part_uncached(f) -> "UnitFactorization":
    """factor_unit_part(f) by the search itself, with no cache and no Galois
    carrying."""
    k = f.min_exp()
    return laurent._root_search(f.shift(-k))._replace(y_power=k)


def cyclic_schur_reference(d) -> list:
    """The Schur elements of Z_d by their formulas, expanded term by term:
    1 + x + ... + x^{d-1}, then gamma (x - z) / x with z = zeta_d^i and
    gamma = d / (1 - z)."""
    out = [LaurentPoly.from_x_coeffs([1] * d)]
    for i in range(1, d):
        z = zeta(d, i)
        gamma = rat(d) * (one - z).inverse()
        out.append(LaurentPoly({1: gamma, 0: -gamma * z}).shift(-1))
    return out


def dihedral_schur_reference(n) -> list:
    """The Schur elements of I2(n) by their formulas, expanded term by term:
    P = (1 + x)(1 + x + ... + x^{n-1}), x^-n P, (n/2)(1 + x)^2 / x twice
    when n is even, and f (x^2 - (z^j + z^-j) x + 1) / x for rho_j."""
    P = LaurentPoly.from_x_coeffs([1, 1]) * LaurentPoly.from_x_coeffs([1] * n)
    out = [P, P.shift(-n)]
    m = n // 2
    if n % 2 == 0:
        lin = LaurentPoly.from_x_coeffs([1, 2, 1]).shift(-1) * Fraction(n, 2)
        out += [lin, lin]
    for j in range(1, (m if n % 2 == 1 else m - 1) + 1):
        trace = zeta(n, j) + zeta(n, -j)
        f = rat(n) * (rat(2) - trace).inverse()
        out.append(LaurentPoly({2: one, 1: -trace, 0: one}).shift(-1) * f)
    return out


def schur_sum(W, coefficients) -> tuple:
    """sum_i coefficients[i] / c_i over the Schur elements c_i of W, as
    (N, D): D their common unit multiple, N = sum_i coefficients[i] D/c_i."""
    D, quotients = common_unit_multiple(W.schur_elements)
    N = LaurentPoly.const(zero, W.mu)
    for a, q in zip(coefficients, quotients):
        N = N + q * a
    return N, D


def group_to_doc(W) -> dict:
    """Serialize a GroupDatum to the external JSON schema (format 1)."""
    return {
        "format": 1,
        "name": W.name,
        "order": W.order,
        "mu": W.mu,
        "rank": W.rank,
        "degrees": list(W.degrees),
        "spetsial": W.spetsial,
        "generators": [[[to_literal(v) for v in row] for row in g] for g in W.generators],
        "classes": [{"size": size, "word": list(word)} for size, word in W.classes],
        "characters": [
            {"name": W.char_names[i], "values": [to_literal(v) for v in W.irr[i]]}
            for i in range(W.n_irr)
        ],
        "fake_degrees": [laurent_to_doc(f) for f in W.fake_degrees],
        "schur_elements": [laurent_to_doc(c) for c in W.schur_elements],
        "conj_perm": list(W.conj_perm),
        "det_index": W.det_index,
        "parabolics": [
            {
                "name": P.subgroup.name,
                "generators": [list(wd) for wd in P.generator_words],
                "induction_matrix": [list(row) for row in P.induction_matrix],
            }
            for P in W.parabolics
            if P.subgroup.order > 1
        ],
    }


def with_mu(doc, mu: int) -> dict:
    """The same group at y^mu = x: the document's mu set and every
    y-exponent of a mu = 1 document multiplied by mu."""
    doc["mu"] = mu
    for f in doc["fake_degrees"] + doc["schur_elements"]:
        f["mu"] = mu
        f["terms"] = [[mu * e, v] for e, v in f["terms"]]
    return doc


def z2_doc(spetsial=True, mu=1, **schur) -> dict:
    """The document of Z2 at y^mu = x, with Schur elements replaced by index:
    schur[f"c{i}"] maps each y-exponent to its coefficient."""
    doc = with_mu(group_to_doc(cyclic_group(2)), mu)
    doc["spetsial"] = spetsial
    for key, terms in schur.items():
        doc["schur_elements"][int(key[1:])] = {
            "mu": mu, "terms": [[e, str(v)] for e, v in terms.items()]}
    return doc


def restrict(W, P, v) -> tuple:
    """Multiplicities of the restriction of the virtual character v of W to
    the parabolic P, from the character values on the fused classes."""
    sub = P.subgroup
    fusion = enumerate_and_fuse(W, P)
    values = [
        sum((m * W.irr[j][fusion[c]] for j, m in enumerate(v) if m), zero)
        for c in range(len(sub.classes))
    ]
    out = []
    for i in range(sub.n_irr):
        psi_bar = sub.irr[sub.conj_perm[i]]
        ip = sum(
            (values[c] * psi_bar[c] * size for c, (size, _w) in enumerate(sub.classes)), zero
        ) * Fraction(1, sub.order)
        out.append(int(ip.as_rational()))
    return tuple(out)


def orbit_class_index_map(W) -> dict:
    """Every element matrix of W mapped to its class index, by matrix
    products alone: each class representative's orbit under conjugation by
    the generators, the generator inverses found by cycling their powers."""
    W.elements()  # the generated order is checked before the orbits
    ident = W._identity()

    def word_matrix(word):
        m = ident
        for g in word:
            m = W._matmul(m, W.generators[g - 1])
        return m

    gens = W.generators
    inv = {}
    for g in gens:
        m, prev = g, ident
        while m != ident:
            prev = m
            m = W._matmul(m, g)
        inv[g] = prev
    cmap: dict = {}
    for ci, (size, word) in enumerate(W.classes):
        rep = word_matrix(word)
        orbit = {rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    mm = W._matmul(inv[g], W._matmul(m, g))
                    if mm not in orbit:
                        orbit.add(mm)
                        nxt.append(mm)
            frontier = nxt
        if len(orbit) != size:
            raise GroupDataError(f"{W.name}: class {ci} has size {len(orbit)}, datum says {size}")
        for m in orbit:
            if m in cmap:
                raise GroupDataError(f"{W.name}: classes {cmap[m]} and {ci} overlap")
            cmap[m] = ci
    if len(cmap) != W.order:
        raise GroupDataError(f"{W.name}: classes do not cover the group")
    return cmap


def induction_matrix_reference(W, sub, fusion) -> tuple:
    """Induction multiplicities by inner products over W: each induced class
    function Ind psi(C) = |W| / (|C| |W'|) sum_{C' -> C} |C'| psi(C') is
    built on the classes of W, then paired with every conj(chi)."""
    rows = []
    for psi in sub.irr:
        ind_vals = []
        for ci, (size, _w) in enumerate(W.classes):
            tot = zero
            for cj, (ssize, _sw) in enumerate(sub.classes):
                if fusion[cj] == ci:
                    tot = tot + psi[cj] * ssize
            ind_vals.append(tot * Fraction(W.order, size * sub.order))
        weighted = [v * size for v, (size, _w) in zip(ind_vals, W.classes)]
        row = []
        for j in range(W.n_irr):
            ip = dot(weighted, W.irr[W.conj_perm[j]]) * Fraction(1, W.order)
            if not ip.is_rational() or ip.as_rational().denominator != 1 or ip.as_rational() < 0:
                raise GroupDataError(
                    f"{W.name}: induction from {sub.name} gives non-integral multiplicity {ip}"
                )
            row.append(int(ip.as_rational()))
        rows.append(tuple(row))
    return tuple(rows)


def poly_divmod_reference(a, b) -> tuple:
    """Long division of ordinary polynomials that multiplies each quotient
    coefficient by lead(b)^-1 as it is found."""
    db = b.max_exp()
    lead = b.coeffs[db]
    lead_inv = None if lead == one else lead.inverse()
    lower = [(e - db, v) for e, v in b.coeffs.items() if e != db]
    r = a.dense()
    q: dict = {}
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if not c:
            continue
        if lead_inv is not None:
            c = c * lead_inv
        q[top - db] = c
        for off, v in lower:
            r[top + off] = r[top + off] - v * c
    rem = {e: v for e, v in enumerate(r[:db]) if v}
    return LaurentPoly(q, a.mu), LaurentPoly(rem, a.mu)


def laurent_content_val_reference(f, spec):
    """The Gauss content of f at spec, the minimum valuation over its
    coefficients; INF for 0."""
    out = INF
    for v in f.coeffs.values():
        w = val(spec, v)
        if w < out:
            out = w
    return out


def image_reference(comp, coeffs, conductor, L) -> list:
    """`_Completion.image` by e x f indexed updates: each coefficient times
    each entry of its table row, reduced mod p^L after every addition."""
    m = comp.p**L
    tables = comp.image_tables(conductor, L)
    out = [[0] * comp.f for _ in range(comp.e)]
    for idx, c in coeffs.items():
        c %= m
        if not c:
            continue
        row = tables[idx]
        for k in range(comp.e):
            ok = out[k]
            for i in range(comp.f):
                ok[i] = (ok[i] + c * row[k * comp.f + i]) % m
    return out


def core_by_moves(sym, d, cocore=False):
    """The normalized d-core of sym (its d-cocore when cocore is set) by
    removing the first hook (cohook) of length d found, until none is left."""
    moves, remove = (_cohook_moves, remove_cohook) if cocore else (_hook_moves, remove_hook)
    cur = sym
    while (move := next(moves(cur, d), None)) is not None:
        row, v = move
        cur = remove(cur, d, v, row)
    return normalize(cur)
