"""Helpers that only the tests use: partition comparisons, polynomials
from dense x-coefficients or expanded from their roots, reassembly of a
unit-part factorization, the uncached search behind it and a counter of
its calls, the catalog
Schur elements expanded term by term from their formulas, sums of
quotients by Schur elements over their common unit multiple, evaluation
and serialization of Laurent polynomials, serialization of a group to a
format-1 document (at another mu, or Z2 with chosen Schur elements),
restriction to a parabolic subgroup, and the reference algorithms that the
package's table-driven classes, long division, induction by Frobenius
reciprocity, content from the unit factorization, one-comprehension digit
images, abacus cores, the Poincare polynomial from its roots and the
Schur-element gate over the common unit multiple replaced.

Code that no command runs lives here too, and the tests check the
package against it: membership of a quotient in the localized Rouquier
ring, relative trace scalars and the full-twist exponent, the
special-character pairing check, and the hook and cohook moves of
symbols with the defect bridge built from them."""

from fractions import Fraction

from heckefam import groups, laurent
from heckefam.blocks import families
from heckefam.constructible import constructible_chars
from heckefam.cyclotomic import coerce, dot, one, rat, to_literal, zero, zeta
from heckefam.groups import GroupDataError, cyclic_group, enumerate_and_fuse
from heckefam.laurent import LaurentPoly, common_unit_multiple, factor_unit_part, poly_divexact
from heckefam.ntheory import factorize
from heckefam.schur import a_plus_A, compute_invariants, f_of
from heckefam.symbols import Symbol, normalize
from heckefam.valuation import INF, laurent_content_val, primes_above, val, val_at_least


def refines(partition, other) -> bool:
    """Whether every part of `partition` lies inside one part of `other`."""
    return all(len({other.part_of(ch) for ch in part}) == 1 for part in partition.parts)


def as_sets(partition) -> list:
    return [frozenset(p) for p in partition.parts]


def from_x_coeffs(coeffs, mu: int = 1) -> LaurentPoly:
    """The polynomial of a dense list of x-coefficients, ascending from x^0."""
    return LaurentPoly({i * mu: c for i, c in enumerate(coeffs)}, mu)


def from_roots(roots, mu: int = 1) -> LaurentPoly:
    """prod (y - zeta_m^j)^mult over the pairs ((m, j), mult) of roots, j
    any integer, multiplied out one linear factor at a time."""
    out = LaurentPoly.const(one, mu)
    for (m, j), mult in roots:
        factor = LaurentPoly({1: one, 0: -zeta(m, j % m)}, mu)
        for _ in range(mult):
            out = out * factor
    return out


def reassemble(u) -> LaurentPoly:
    """scalar * y^y_power * prod (y - zeta_m^j)^mult * non_unit of a
    UnitFactorization."""
    return (u.non_unit * u.scalar).shift(u.y_power) * from_roots(u.unit_factors, u.non_unit.mu)


def poincare_reference(degrees, mu: int = 1) -> LaurentPoly:
    """prod_d (1 + x + ... + x^(d - 1)) over the degrees, multiplied out."""
    out = LaurentPoly.const(one, mu)
    for d in degrees:
        out = out * from_x_coeffs([1] * d, mu)
    return out


def check_schur_elements_reference(W, P) -> None:
    """`groups._check_schur_elements` through the Poincare polynomial P:
    the rules on c(1), the unit shape and the y-exponents of a spetsial W,
    then sum_chi chi(1) (P E)/c_chi = P E with E = prod (y - zeta_m^j)^e
    the least product that makes every division exact.  The multiplicity
    of zeta_m^j in P is the number of degrees d with m | mu d, or 0 when
    m | mu, and e is the excess of its multiplicity in c_chi over it.  A
    spetsial W needs E = 1: every P/c_chi a Laurent polynomial.  Raises the
    GroupDataError of the first violated rule."""
    name, chars = W.name, W.char_names
    if len(W.schur_elements) != W.n_irr:
        raise GroupDataError(f"{name}: expected {W.n_irr} Schur elements")
    facts = []
    for i, c in enumerate(W.schur_elements):
        val_at_1 = groups._at_one(c)
        if val_at_1 != rat(Fraction(W.order, W.char_degree(i))):
            raise GroupDataError(f"{name}: c({chars[i]})(1) != |W|/deg (got {val_at_1})")
        facts.append(factor_unit_part(c))
        if not facts[i].is_unit():
            raise GroupDataError(f"{name}: c({chars[i]}) has a non-unit part {facts[i].non_unit}")
        if W.spetsial and not c.is_x_polynomial():
            raise GroupDataError(f"{name}: spetsial flag set but c({chars[i]}) has "
                                 "y-exponents not divisible by mu")
    E: dict = {}
    for i, fact in enumerate(facts):
        excess = {}
        for (m, j), mult in fact.unit_factors:
            in_P = 0 if W.mu % m == 0 else sum(W.mu * d % m == 0 for d in W.degrees)
            if mult > in_P:
                excess[(m, j)] = mult - in_P
        if excess and W.spetsial:
            raise GroupDataError(f"{name}: generic degree P/c is not a Laurent polynomial "
                                 f"for {chars[i]}")
        for root, e in excess.items():
            E[root] = max(E.get(root, 0), e)
    P = P * from_roots(E.items(), W.mu)
    quotients = [poly_divexact(P, c) for c in W.schur_elements]
    degrees = [row[0] for row in W.irr]
    if groups._weighted_sum(groups._by_exponent(quotients), degrees) != P.coeffs:
        raise GroupDataError(f"{name}: symmetrizing-form gate sum deg/c != 1 fails")


def unit_part_uncached(f) -> "UnitFactorization":
    """factor_unit_part(f) by the search itself, with no cache and no stated
    factorization."""
    k = f.min_exp()
    return laurent._root_search(f.shift(-k))._replace(y_power=k)


def count_root_searches(monkeypatch) -> list:
    """The list that every later root search of `factor_unit_part` appends
    its polynomial to."""
    searches = []
    search = laurent._root_search
    monkeypatch.setattr(laurent, "_root_search", lambda f: searches.append(f) or search(f))
    return searches


def cyclic_schur_reference(d) -> list:
    """The Schur elements of Z_d by their formulas, expanded term by term:
    1 + x + ... + x^{d-1}, then gamma (x - z) / x with z = zeta_d^i and
    gamma = d / (1 - z)."""
    out = [from_x_coeffs([1] * d)]
    for i in range(1, d):
        z = zeta(d, i)
        gamma = rat(d) * (one - z).inverse()
        out.append(LaurentPoly({1: gamma, 0: -gamma * z}).shift(-1))
    return out


def dihedral_schur_reference(n) -> list:
    """The Schur elements of I2(n) by their formulas, expanded term by term:
    P = (1 + x)(1 + x + ... + x^{n-1}), x^-n P, (n/2)(1 + x)^2 / x twice
    when n is even, and f (x^2 - (z^j + z^-j) x + 1) / x for rho_j."""
    P = from_x_coeffs([1, 1]) * from_x_coeffs([1] * n)
    out = [P, P.shift(-n)]
    m = n // 2
    if n % 2 == 0:
        lin = from_x_coeffs([1, 2, 1]).shift(-1) * Fraction(n, 2)
        out += [lin, lin]
    for j in range(1, (m if n % 2 == 1 else m - 1) + 1):
        trace = zeta(n, j) + zeta(n, -j)
        f = rat(n) * (rat(2) - trace).inverse()
        out.append(LaurentPoly({2: one, 1: -trace, 0: one}).shift(-1) * f)
    return out


def bad_primes_reference(W) -> frozenset:
    """`schur.bad_primes` with one norm per Schur element: the primes of
    the norms of the scalars f_of(c), kept when some Schur element has
    positive content at a prime above them."""
    candidates = set()
    for c in W.schur_elements:
        candidates |= set(factorize(abs(f_of(c).norm().numerator)))
    return frozenset(
        p for p in candidates
        if any(laurent_content_val(c, spec) > 0
               for c in W.schur_elements for spec in primes_above(p, W.field_conductor)))


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


# -- Laurent polynomials ----------------------------------------------------------


def eval_y(f, point):
    """f at y = point: Horner's rule from the top exponent down to the least
    one k, times point^k."""
    point = coerce(point)
    if f.is_zero():
        return zero
    lo, c = f.min_exp(), f.coeffs
    out = zero
    for e in range(f.max_exp(), lo - 1, -1):
        out = out * point + c.get(e, zero)
    return out * point**lo


def eval_x(f, point):
    """f at x = point, for f a genuine function of x."""
    if not f.is_x_polynomial():
        raise ValueError("polynomial has fractional x-exponents")
    return eval_y(LaurentPoly({e // f.mu: v for e, v in f.coeffs.items()}), point)


def laurent_to_doc(f) -> dict:
    """The document literal of f, which `laurent.laurent_from_doc` reads."""
    return {"mu": f.mu, "terms": [[e, to_literal(v)] for e, v in sorted(f.coeffs.items())]}


# -- membership in the localized Rouquier ring ---------------------------------------

YES, NO, UNSUPPORTED = "yes", "no", "unsupported"


def in_ideal(num, den, spec, power: int = 1) -> str:
    """Decide whether num/den lies in the power-th power of the maximal ideal
    of O_p, the localized Rouquier ring; power 0 decides num/den in O_p.

    Decidable when den is unit-shaped, xi y^k prod (y - omega)^m with every
    omega a root of unity, as the common multiples of Schur elements are:
    all but xi are units of O_p, so num/den lies there exactly when every
    coefficient of num has valuation at least val(xi) + power.  Any other
    den answers "unsupported"."""
    if num.is_zero():
        return YES
    fact = factor_unit_part(den)
    if not fact.is_unit():
        return UNSUPPORTED
    v_den = val(spec, fact.scalar)
    for c in num.coeffs.values():
        if not val_at_least(spec, c, v_den + power):
            return NO
    return YES


# -- invariants that no command reports ----------------------------------------------


def omega_pi_exponent(W, i: int) -> Fraction:
    """Exponent of x in the scalar action of the full-twist central element."""
    n_hyp, n_refl = W.reflection_counts()
    return n_hyp + n_refl - a_plus_A(W, i, compute_invariants(W))


def relative_trace_scalar(W, P, i: int) -> tuple:
    """c_chi * sum_psi <Res chi, psi> / c_psi for a parabolic embedding P, as
    the pair (N, D) of its numerator and denominator: D is the common
    multiple of the linear factors of the parabolic's Schur elements, the
    same for every chi, and N = c_chi * sum_psi <Res chi, psi> D/c_psi.
    N(1)/D(1) = [W:W']."""
    sub = P.subgroup
    if not sub.schur_elements:
        raise ValueError(f"missing Schur data for subgroup {sub.name}")
    D, quotients = common_unit_multiple(sub.schur_elements)
    total = LaurentPoly.const(zero, W.mu)
    for si, q in enumerate(quotients):
        mult = P.induction_matrix[si][i]
        if mult:
            total = total + q * mult
    return W.schur_elements[i] * total, D


def construc_pairing_check(W, phi, part) -> bool:
    """Evaluate <phi, chi_s - sum_{chi in F} chi/f_chi> and compare with zero;
    chi_s is the unique special character of the family F."""
    recs = compute_invariants(W)
    specials = [i for i in part if recs[i].special]
    if len(specials) != 1:
        raise ValueError(
            f"{W.name}: family {tuple(part)} has {len(specials)} special characters"
        )
    s = specials[0]
    total = zero + phi[s]
    for i in part:
        if phi[i]:
            total = total - recs[i].f.inverse() * phi[i]
    return total == zero


def special_multiplicities(W) -> list:
    """(constructible, family index, <phi, chi_s>) triples, reported because
    multiplicities above 1 occur and carry no normative behavior."""
    fam = families(W)
    recs = compute_invariants(W)
    out = []
    for phi in constructible_chars(W):
        support = [i for i, m in enumerate(phi) if m]
        pi = fam.part_of(support[0])
        part = fam.parts[pi]
        specials = [i for i in part if recs[i].special]
        mult = phi[specials[0]] if len(specials) == 1 else None
        out.append((phi, pi, mult))
    return out


# -- symbols: hooks, cohooks and the defect bridge -----------------------------------


def swapped(sym):
    """sym with its rows exchanged."""
    return Symbol(sym.T, sym.S)


def shift(sym):
    """sym shifted once: 0 put in front of both rows, every entry raised by 1."""
    return Symbol((0, *(a + 1 for a in sym.S)), (0, *(a + 1 for a in sym.T)))


def unordered_key(sym):
    """Canonical form ignoring the row order (symbols are unordered pairs)."""
    n = normalize(sym)
    return tuple(sorted((n.S, n.T)))


def remove_cohook(sym, length: int, value: int, row: str):
    """Remove a cohook: value moves from its row to the other row as value -
    length (a negative length adds a cohook)."""
    if row not in ("S", "T"):
        raise ValueError("row must be 'S' or 'T'")
    src = sym.S if row == "S" else sym.T
    dst = sym.T if row == "S" else sym.S
    if value not in src:
        raise ValueError(f"{value} is not in row {row}")
    if value - length < 0:
        raise ValueError("cohook length exceeds the entry")
    if value - length in dst:
        raise ValueError(f"{value - length} already occupies the other row")
    new_src = tuple(a for a in src if a != value)
    new_dst = tuple(sorted(dst + (value - length,)))
    return Symbol(new_src, new_dst) if row == "S" else Symbol(new_dst, new_src)


def add_cohook(sym, length: int, value: int, row: str):
    """Inverse of remove_cohook: value moves to the other row as value + length."""
    return remove_cohook(sym, -length, value, row)


def hook_moves(sym, d: int):
    """(row, value) for every hook of length d that can be removed."""
    for row in ("S", "T"):
        src = sym.S if row == "S" else sym.T
        for v in src:
            if v - d >= 0 and v - d not in src:
                yield row, v


def remove_hook(sym, d: int, value: int, row: str):
    """value moves to value - d within its row."""
    src = sym.S if row == "S" else sym.T
    if value not in src or value - d < 0 or value - d in src:
        raise ValueError("invalid hook removal")
    new = tuple(sorted([a for a in src if a != value] + [value - d]))
    return Symbol(new, sym.T) if row == "S" else Symbol(sym.S, new)


def cohook_moves(sym, e: int):
    """(row, value) for every cohook of length e that can be removed."""
    for row in ("S", "T"):
        src = sym.S if row == "S" else sym.T
        dst = sym.T if row == "S" else sym.S
        for v in src:
            if v - e >= 0 and v - e not in dst:
                yield row, v


def core_orders_agree(sym, d: int, cocore: bool = False) -> bool:
    """Exhaustively check removal-order independence of the (co)core."""
    results = set()

    def explore(cur):
        moves = list((cohook_moves if cocore else hook_moves)(cur, d))
        if not moves:
            results.add(unordered_key(cur))
            return
        for row, v in moves:
            explore((remove_cohook if cocore else remove_hook)(cur, d, v, row))

    explore(sym)
    return len(results) == 1


def core_by_moves(sym, d, cocore=False):
    """The normalized d-core of sym (its d-cocore when cocore is set) by
    removing the first hook (cohook) of length d found, until none is left."""
    moves, remove = (cohook_moves, remove_cohook) if cocore else (hook_moves, remove_hook)
    cur = sym
    while (move := next(moves(cur, d), None)) is not None:
        row, v = move
        cur = remove(cur, d, v, row)
    return normalize(cur)


def defect_bridge(sym):
    """Move the two smallest S-entries absent from T into T; the output shares
    the family and the l-cocore (l their difference), and the signed defect
    drops by 4."""
    singles = [v for v in sym.S if v not in sym.T]
    if len(singles) < 2:
        raise ValueError("need two entries in S absent from T")
    l1, l2 = singles[0], singles[1]
    length = l2 - l1
    mid = remove_cohook(sym, length, l2, "S")
    return add_cohook(mid, length, l1, "S"), length
