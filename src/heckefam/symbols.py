"""Symbol combinatorics for classical-group unipotent characters: shift
normalization, rank/defect/family invariants, hooks and cohooks, cores and
cocores in closed form on the abacus, Harish-Chandra series tests, the
defect-bridge construction, and the finest-partition verification, which
links each family by one `ntheory.join` of its series fibres."""

from __future__ import annotations

from collections import Counter, namedtuple

from .ntheory import join


class Symbol(namedtuple("Symbol", "S T")):
    """An (ordered) pair of strictly increasing tuples of nonnegative integers.

    Entries may repeat across the two rows but not within a row; the sign of
    |S| - |T| is retained (the defect is its absolute value)."""

    __slots__ = ()

    def __new__(cls, S, T):
        for row in (S, T):
            if list(row) != sorted(set(row)) or (row and row[0] < 0):
                raise ValueError(f"row {row} must be strictly increasing nonnegative")
        return super().__new__(cls, S, T)

    # -- basic invariants ------------------------------------------------------

    def signed_defect(self) -> int:
        return len(self.S) - len(self.T)

    def defect(self) -> int:
        return abs(self.signed_defect())

    def rank(self) -> int:
        total = sum(self.S) + sum(self.T)
        size = len(self.S) + len(self.T)
        return total - (size - 1) ** 2 // 4 if size else 0

    def entries(self) -> tuple[int, ...]:
        return tuple(sorted(self.S + self.T))

    def swapped(self) -> "Symbol":
        return Symbol(self.T, self.S)

    def shift(self) -> "Symbol":
        return Symbol(
            tuple([0] + [a + 1 for a in self.S]), tuple([0] + [a + 1 for a in self.T])
        )


def normalize(sym: Symbol) -> Symbol:
    """Undo shifts while both rows start with 0."""
    S, T = sym.S, sym.T
    while S and T and S[0] == 0 and T[0] == 0:
        S = tuple(a - 1 for a in S[1:])
        T = tuple(a - 1 for a in T[1:])
    return Symbol(S, T)


def unordered_key(sym: Symbol):
    """Canonical form ignoring the row order (symbols are unordered pairs)."""
    n = normalize(sym)
    return tuple(sorted((n.S, n.T)))


def defect(sym: Symbol) -> int:
    return sym.defect()


def rank(sym: Symbol) -> int:
    return sym.rank()


def family_key(sym: Symbol) -> tuple[int, ...]:
    """Multiset union of the rows of the normalized symbol: two symbols lie in
    the same Lusztig family exactly when these agree."""
    return normalize(sym).entries()


# -- hooks and cohooks ------------------------------------------------------------


def remove_cohook(sym: Symbol, length: int, value: int, row: str) -> Symbol:
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


def add_cohook(sym: Symbol, length: int, value: int, row: str) -> Symbol:
    """Inverse of remove_cohook: value moves to the other row as value + length."""
    return remove_cohook(sym, -length, value, row)


def _hook_moves(sym: Symbol, d: int):
    for row in ("S", "T"):
        src = sym.S if row == "S" else sym.T
        for v in src:
            if v - d >= 0 and v - d not in src:
                yield row, v


def remove_hook(sym: Symbol, d: int, value: int, row: str) -> Symbol:
    src = sym.S if row == "S" else sym.T
    if value not in src or value - d < 0 or value - d in src:
        raise ValueError("invalid hook removal")
    new = tuple(sorted([a for a in src if a != value] + [value - d]))
    return Symbol(new, sym.T) if row == "S" else Symbol(sym.S, new)


def _cohook_moves(sym: Symbol, e: int):
    for row in ("S", "T"):
        src = sym.S if row == "S" else sym.T
        dst = sym.T if row == "S" else sym.S
        for v in src:
            if v - e >= 0 and v - e not in dst:
                yield row, v


def d_core(sym: Symbol, d: int) -> Symbol:
    """Remove hooks of length d (within a row) until none remain.

    On the d-abacus of a row a d-hook slides one bead down its runner, so
    the core keeps, for each residue r mod d, the count c_r of the row's
    entries, as r, r + d, ..., r + (c_r - 1)d (James and Kerber, The
    Representation Theory of the Symmetric Group, 1981, 2.7)."""
    if d < 1:
        raise ValueError("hook length must be positive")

    def slide(row):
        counts = Counter(v % d for v in row)
        return tuple(sorted(r + k * d for r, c in counts.items() for k in range(c)))

    return normalize(Symbol(slide(sym.S), slide(sym.T)))


def e_cocore(sym: Symbol, e: int) -> Symbol:
    """Remove cohooks of length e (across rows) until none remain.

    A cohook moves v = qe + r from row c to v - e in row 1 - c: it keeps r
    and the parity of c + q, and lowers q by one.  So the entries are beads
    on the 2e runners (r, c + q mod 2), level q of runner (r, p) lying in
    row (p - q) mod 2, and the cocore pushes each runner's beads down to
    the levels 0, 1, ..."""
    if e < 1:
        raise ValueError("cohook length must be positive")
    counts = Counter((v % e, (c + v // e) % 2) for c, row in enumerate(sym) for v in row)
    rows = ([], [])
    for (r, p), n in counts.items():
        for q in range(n):
            rows[(p + q) % 2].append(q * e + r)
    return normalize(Symbol(*(tuple(sorted(row)) for row in rows)))


def core_orders_agree(sym: Symbol, d: int, cocore: bool = False) -> bool:
    """Exhaustively check removal-order independence of the (co)core."""
    results = set()

    def explore(cur):
        moves = list((_cohook_moves if cocore else _hook_moves)(cur, d))
        if not moves:
            results.add(unordered_key(cur))
            return
        for row, v in moves:
            nxt = (remove_cohook if cocore else remove_hook)(cur, d, v, row)
            explore(nxt)

    explore(sym)
    return len(results) == 1


# -- Harish-Chandra series ----------------------------------------------------------


def _series_key(sym: Symbol, d: int):
    """The unordered normalized d-core (odd d) or (d/2)-cocore (even d);
    both come out normalized, so only the row order is dropped."""
    return tuple(sorted(d_core(sym, d) if d % 2 == 1 else e_cocore(sym, d // 2)))


def same_series(a: Symbol, b: Symbol, d: int) -> bool:
    """Same d-Harish-Chandra series: equal d-cores for odd d, equal
    (d/2)-cocores for even d (as unordered normalized symbols)."""
    if a.rank() != b.rank():
        raise ValueError("symbols must have equal rank")
    if d < 1:
        raise ValueError("d must be positive")
    return _series_key(a, d) == _series_key(b, d)


def defect_bridge(sym: Symbol) -> tuple[Symbol, int]:
    """Move the two smallest S-entries absent from T into T; the output shares
    the family and the l-cocore (l their difference), and the signed defect
    drops by 4."""
    singles = [v for v in sym.S if v not in sym.T]
    if len(singles) < 2:
        raise ValueError("need two entries in S absent from T")
    l1, l2 = singles[0], singles[1]
    length = l2 - l1
    mid = remove_cohook(sym, length, l2, "S")
    out = add_cohook(mid, length, l1, "S")
    return out, length


# -- exhaustive family verification ---------------------------------------------------


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most `largest`, as nonincreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _beta_set(lam: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The strictly increasing row of the given length that encodes lam."""
    padded = lam + (0,) * (length - len(lam))
    return tuple(part + j for j, part in enumerate(reversed(padded)))


def _symbols_of_rank(r: int, max_defect: int, parity):
    """All normalized unordered symbols of the given rank and defect bound,
    the empty symbol excepted.

    Symbols of rank r and defect d correspond one-to-one to bipartitions
    (lam, mu) of r - floor(d^2/4) (Lusztig, Characters of reductive groups
    over a finite field, 1984): the rows are the beta-sets of lam and mu of
    lengths m + d and m.  The least m that holds both leaves a row without 0,
    so the symbol is shift-reduced; for d = 0 the pair is unordered."""
    out = []
    for d in range(max_defect + 1):
        n = r - d * d // 4
        if n < 0 or not parity(d) or (n == 0 and d == 0):
            continue
        partitions = [list(_partitions(k, k)) for k in range(n + 1)]
        for k in range(n + 1):
            for lam in partitions[k]:
                for mu in partitions[n - k]:
                    if d == 0 and lam > mu:
                        continue  # (mu, lam) gives the same unordered symbol
                    m = max(len(lam) - d, len(mu))
                    out.append(Symbol(_beta_set(lam, m + d), _beta_set(mu, m)))
    return out


# Lusztig's symbol types by defect: odd defects (type B/C), defects 0 mod 4
# (type D) and defects 2 mod 4 (type 2D); families lie within one type.
PARITIES = {
    "odd": lambda t: t % 2 == 1,
    "even0": lambda t: t % 4 == 0,
    "even2": lambda t: t % 4 == 2,
}


def verify_family_finest(rank_bound: int, defect_bound: int, parity=PARITIES["odd"]) -> dict:
    """For every family of symbols of one type (a predicate of PARITIES on the
    defect) of each rank <= rank_bound, defects up to defect_bound, with more
    than one member: check (i) the join of the same-series fibres for
    d = 1, ..., 2m + 2, m the largest entry of the family key, is the whole
    family (joining one d at a time, until it is), and (ii) for the odd
    type, every odd defect up to the family's largest occurs.  Returns a
    report dict counting families and symbols, with any violations."""
    report = {"families": 0, "symbols": 0, "violations": []}
    for r in range(0, rank_bound + 1):
        syms = _symbols_of_rank(r, defect_bound, parity)
        report["symbols"] += len(syms)
        fams: dict = {}
        for sym in syms:
            fams.setdefault(family_key(sym), []).append(sym)
        for key, members in sorted(fams.items()):
            report["families"] += 1
            if len(members) == 1:
                continue
            # join of the same-series fibres for d = 1, 2, ... until one part
            parts = []
            for d in range(1, 2 * max(key) + 3):
                fibres = {}
                for i, sym in enumerate(members):
                    fibres.setdefault(_series_key(sym, d), []).append(i)
                parts = join(len(members), parts + list(fibres.values()))
                if len(parts) == 1:
                    break
            if len(parts) > 1:
                report["violations"].append({"rank": r, "family": key, "components": len(parts)})
            # every odd defect in {1,...,max} occurs (odd-type families)
            defects = sorted({m.defect() for m in members})
            if parity(1):
                expect = [t for t in range(1, max(defects) + 1) if t % 2 == 1]
                if [t for t in defects if t % 2 == 1] != expect:
                    report["violations"].append(
                        {"rank": r, "family": key, "missing_defects": expect}
                    )
    return report
