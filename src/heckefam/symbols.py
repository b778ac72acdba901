"""Symbol combinatorics for classical-group unipotent characters: shift
normalization, rank/defect/family invariants, cores and cocores in closed
form on the abacus, Harish-Chandra series tests, and the finest-partition
verification, which links each family by one `ntheory.join` of its series
fibres.  The hook and cohook moves and the defect bridge built from them
are test references (`tests/helpers.py`)."""

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


def normalize(sym: Symbol) -> Symbol:
    """Undo shifts while both rows start with 0."""
    S, T = sym.S, sym.T
    while S and T and S[0] == 0 and T[0] == 0:
        S = tuple(a - 1 for a in S[1:])
        T = tuple(a - 1 for a in T[1:])
    return Symbol(S, T)


def family_key(sym: Symbol) -> tuple[int, ...]:
    """Multiset union of the rows of the normalized symbol: two symbols lie in
    the same Lusztig family exactly when these agree."""
    return normalize(sym).entries()


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
