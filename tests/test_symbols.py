"""Symbol combinatorics: invariants, hooks/cohooks, cores, series, bridges."""

import pytest
from helpers import core_by_moves
from hypothesis import given, settings, strategies as st

from heckefam.symbols import (
    PARITIES as TYPES,
    Symbol,
    add_cohook,
    core_orders_agree,
    d_core,
    defect,
    defect_bridge,
    e_cocore,
    family_key,
    normalize,
    rank,
    remove_cohook,
    same_series,
    unordered_key,
    verify_family_finest,
    _symbols_of_rank,
)

ODD = TYPES["odd"]


class TestInvariants:
    def test_rank_defect_example(self):
        s = Symbol((0, 2), (1,))
        assert rank(s) == 2 and defect(s) == 1

    def test_shift_invariance(self):
        s = Symbol((0, 2), (1,))
        sh = s.shift()
        assert rank(sh) == rank(s)
        assert defect(sh) == defect(s)
        assert family_key(sh) == family_key(s)

    def test_rank_zero_defect_one(self):
        s = Symbol((0,), ())
        assert rank(s) == 0 and defect(s) == 1

    def test_normalization(self):
        s = Symbol((0, 1, 3), (0, 2))
        n = normalize(s)
        assert n == Symbol((0, 2), (1,))

    def test_within_row_repeats_rejected(self):
        with pytest.raises(ValueError):
            Symbol((1, 1), ())

    def test_cross_row_repeats_allowed(self):
        Symbol((0, 1), (1, 2))


class TestCohooks:
    def test_spec_example(self):
        out = remove_cohook(Symbol((0, 3), (1,)), 3, 3, "S")
        assert out == Symbol((0,), (0, 1))

    def test_rank_drops_by_length(self):
        s = Symbol((0, 3), (1,))
        assert rank(s) - rank(remove_cohook(s, 3, 3, "S")) == 3

    def test_signed_defect_moves_by_two(self):
        s = Symbol((0, 3), (1,))
        out = remove_cohook(s, 3, 3, "S")
        assert s.signed_defect() - out.signed_defect() == 2

    def test_add_then_remove_is_identity(self):
        s = Symbol((0, 3), (1,))
        t = add_cohook(s, 2, 0, "S")
        assert remove_cohook(t, 2, 2, "T") == s

    def test_occupied_target_rejected(self):
        with pytest.raises(ValueError):
            remove_cohook(Symbol((0, 3), (1,)), 2, 3, "S")  # 1 already in T

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            remove_cohook(Symbol((0, 3), (1,)), 5, 3, "S")


class TestCores:
    def test_core_blocked(self):
        s = Symbol((0, 3), (1,))
        assert d_core(s, 3) == normalize(s)  # 3 -> 0 blocked within S

    def test_cocore_spec_example(self):
        s = Symbol((0, 3), (1,))
        assert e_cocore(s, 3) == normalize(Symbol((0,), (0, 1)))

    def test_large_d_identity(self):
        s = Symbol((0, 3), (1,))
        assert d_core(s, 9) == normalize(s)
        assert e_cocore(s, 9) == normalize(s)

    def test_core_reduces_rank_by_multiples(self):
        s = Symbol((1, 4), (0, 2))
        for d in (1, 2, 3):
            c = d_core(s, d)
            assert (rank(s) - rank(c)) % d == 0

    def test_confluence_exhaustive_rank_le_4(self):
        for r in range(5):
            for s in _symbols_of_rank(r, 5, ODD):
                for d in range(1, 6):
                    assert core_orders_agree(s, d, cocore=False), (s, d)
                    assert core_orders_agree(s, d, cocore=True), (s, d)


class TestSeries:
    def test_self_series(self):
        s = Symbol((0, 2), (1,))
        for d in range(1, 8):
            assert same_series(s, s, d)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            same_series(Symbol((0,), ()), Symbol((0, 2), (1,)), 2)

    def test_one_series_is_defect(self):
        # equal rank: same 1-series <=> equal defect
        for r in (2, 3, 4):
            syms = _symbols_of_rank(r, 5, ODD)
            for a in syms:
                for b in syms:
                    assert same_series(a, b, 1) == (defect(a) == defect(b)), (a, b)


class TestBridge:
    def test_spec_example(self):
        s = Symbol((0, 3), (1,))
        out, length = defect_bridge(s)
        assert out == Symbol((), (0, 1, 3)) and length == 3
        assert family_key(out) == family_key(s)

    def test_signed_defect_drop(self):
        s = Symbol((0, 3), (1,))
        out, _ = defect_bridge(s)
        assert s.signed_defect() - out.signed_defect() == 4

    def test_missing_singletons_rejected(self):
        with pytest.raises(ValueError):
            defect_bridge(Symbol((1,), (0, 1)))

    def test_postconditions_rank_le_5(self):
        checked = 0
        for r in range(6):
            for base in _symbols_of_rank(r, 5, ODD):
                for s in (base, base.swapped()):
                    singles = [v for v in s.S if v not in s.T]
                    if len(singles) < 2:
                        continue
                    out, length = defect_bridge(s)
                    checked += 1
                    assert family_key(out) == family_key(s)
                    assert s.signed_defect() - out.signed_defect() == 4
                    assert rank(out) == rank(s)
                    assert unordered_key(e_cocore(out, length)) == unordered_key(
                        e_cocore(s, length)
                    )
                    assert same_series(s, out, 2 * length)
        assert checked > 50


class TestVerify:
    def test_rank5_defect5_no_violations(self):
        report = verify_family_finest(5, 5)
        assert report["violations"] == []
        assert report["families"] > 0

    def test_single_defect_families_vacuous(self):
        report = verify_family_finest(2, 1)
        assert report["violations"] == []

    def test_even_parity_families(self):
        report = verify_family_finest(4, 4, parity=TYPES["even0"])
        assert report["violations"] == []
        report2 = verify_family_finest(4, 4, parity=TYPES["even2"])
        assert report2["violations"] == []

    @pytest.mark.parametrize("parity,families,symbols", [
        ("odd", 385, 1687), ("even0", 347, 755), ("even2", 329, 737)])
    def test_rank10_reports(self, parity, families, symbols):
        report = verify_family_finest(10, 10, parity=TYPES[parity])
        assert report == {"families": families, "symbols": symbols, "violations": []}


@st.composite
def symbols(draw):
    a = draw(st.lists(st.integers(0, 8), min_size=0, max_size=4, unique=True))
    b = draw(st.lists(st.integers(0, 8), min_size=0, max_size=4, unique=True))
    return Symbol(tuple(sorted(a)), tuple(sorted(b)))


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(symbols())
    def test_shift_invariants(self, s):
        sh = s.shift()
        assert rank(sh) == rank(s) and defect(sh) == defect(s)
        assert family_key(sh) == family_key(s)
        assert normalize(sh) == normalize(s)

    @settings(max_examples=100, deadline=None)
    @given(symbols(), st.integers(1, 6))
    def test_core_is_fixed_point(self, s, d):
        c = d_core(s, d)
        assert d_core(c, d) == c
        cc = e_cocore(s, d)
        assert e_cocore(cc, d) == cc


rows = st.lists(st.integers(0, 9), max_size=5, unique=True).map(lambda r: tuple(sorted(r)))


@st.composite
def invalid_rows(draw):
    """A row with a repeated, a decreasing or a negative entry."""
    row = list(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)))
    row.sort()
    kind = draw(st.sampled_from(["repeated", "decreasing", "negative"]))
    if kind == "repeated":
        i = draw(st.integers(0, len(row) - 1))
        row.insert(i, row[i])
    elif kind == "decreasing":
        row.append(draw(st.integers(0, row[-1])))
    else:
        row[0] = -draw(st.integers(1, 5))
    return tuple(row)


# every normalized symbol of rank <= 5 and defect <= 6, each type
_BY_RANK = [_symbols_of_rank(r, 6, lambda t: True) for r in range(6)]


@st.composite
def same_rank_pairs(draw):
    """Two symbols of one rank, each possibly shifted or with its rows swapped."""
    syms = draw(st.sampled_from([syms for syms in _BY_RANK if syms]))
    pair = []
    for _ in range(2):
        s = draw(st.sampled_from(syms))
        for _ in range(draw(st.integers(0, 2))):
            s = s.shift()
        pair.append(s.swapped() if draw(st.booleans()) else s)
    return pair


class TestAbacusCores:
    """The closed-form cores equal the hook-by-hook search, as ordered symbols."""

    @settings(max_examples=300, deadline=None)
    @given(symbols(), st.integers(0, 2), st.booleans(), st.integers(1, 12))
    def test_equal_the_move_by_move_search(self, s, shifts, swap, d):
        for _ in range(shifts):
            s = s.shift()
        s = s.swapped() if swap else s
        assert d_core(s, d) == core_by_moves(s, d)
        assert e_cocore(s, d) == core_by_moves(s, d, cocore=True)

    def test_exhaustive_rank_le_5(self):
        for syms in _BY_RANK:
            for base in syms:
                for s in (base, base.swapped(), base.shift().swapped()):
                    for d in range(1, 9):
                        assert d_core(s, d) == core_by_moves(s, d), (s, d)
                        assert e_cocore(s, d) == core_by_moves(s, d, cocore=True), (s, d)


class TestSymbolType:
    @settings(max_examples=100, deadline=None)
    @given(rows, rows)
    def test_equality_hash_and_repr(self, S, T):
        s = Symbol(S, T)
        assert s == Symbol(S=S, T=T) and hash(s) == hash(Symbol(S, T)) == hash((S, T))
        assert (s == Symbol(T, S)) == (S == T)
        assert repr(s) == f"Symbol(S={S!r}, T={T!r})"
        assert (s.S, s.T) == (S, T)

    @settings(max_examples=30, deadline=None)
    @given(rows, rows)
    def test_fields_are_read_only(self, S, T):
        s = Symbol(S, T)
        with pytest.raises(AttributeError):
            s.S = T
        with pytest.raises(AttributeError):
            s.extra = 1
        assert s == Symbol(S, T)

    @settings(max_examples=100, deadline=None)
    @given(invalid_rows(), rows, st.booleans())
    def test_invalid_rows_rejected(self, bad, good, first):
        with pytest.raises(ValueError) as exc:
            Symbol(bad, good) if first else Symbol(good, bad)
        assert str(exc.value) == f"row {bad} must be strictly increasing nonnegative"

    @settings(max_examples=200, deadline=None)
    @given(same_rank_pairs(), st.integers(1, 8))
    def test_cached_series_matches_direct_cores(self, pair, d):
        a, b = pair
        if d % 2 == 1:
            direct = unordered_key(d_core(a, d)) == unordered_key(d_core(b, d))
        else:
            direct = unordered_key(e_cocore(a, d // 2)) == unordered_key(e_cocore(b, d // 2))
        assert same_series(a, b, d) == direct


# -- reference oracle: the row enumerator that _symbols_of_rank replaced ---------


def _reference_rows_with_sum(length, total):
    """Strictly increasing nonnegative tuples of the given length and sum."""
    if length == 0:
        if total == 0:
            yield ()
        return

    def rec(prefix, remaining, minimum, k):
        if k == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        v = minimum
        while v * k + k * (k - 1) // 2 <= remaining:
            yield from rec(prefix + [v], remaining - v, v + 1, k - 1)
            v += 1

    yield from rec([], total, 0, length)


def _reference_min_row_sum(length, start):
    return length * start + length * (length - 1) // 2


def _reference_symbols_of_rank(r, max_defect, parity):
    """Enumerate rows by sum for every row-length split, keep rank r."""
    seen = {}
    size = 1
    while True:
        total = r + (size - 1) ** 2 // 4
        feasible = False
        for a in range(size + 1):
            b = size - a
            if abs(a - b) > max_defect or not parity(abs(a - b)):
                continue
            best = min(
                _reference_min_row_sum(a, 0) + _reference_min_row_sum(b, 1)
                if b else _reference_min_row_sum(a, 0),
                _reference_min_row_sum(b, 0) + _reference_min_row_sum(a, 1)
                if a else _reference_min_row_sum(b, 0),
            )
            if best > total:
                continue
            feasible = True
            for ssum in range(_reference_min_row_sum(a, 0), total + 1):
                for S in _reference_rows_with_sum(a, ssum):
                    for T in _reference_rows_with_sum(b, total - ssum):
                        if a and b and S[0] == 0 and T[0] == 0:
                            continue
                        sym = Symbol(S, T)
                        if sym.rank() == r:
                            seen.setdefault(unordered_key(sym), normalize(sym))
        if not feasible and size > 2 * (r + max_defect) + 2:
            break
        size += 1
    return set(seen)


# the three symbol types, and their union for the enumeration alone
PARITIES = {**TYPES, "all": lambda t: True}


class TestSymbolsFromBipartitions:
    @pytest.mark.parametrize("parity", sorted(PARITIES))
    def test_matches_row_enumeration(self, parity):
        cases = [(r, d) for r in range(7) for d in range(7)] + [(3, 9)]
        for r, d in cases:
            syms = _symbols_of_rank(r, d, PARITIES[parity])
            keys = [unordered_key(s) for s in syms]
            assert len(keys) == len(set(keys)), (r, d)
            assert set(keys) == _reference_symbols_of_rank(r, d, PARITIES[parity]), (r, d)
            assert all(s == normalize(s) and s.rank() == r for s in syms), (r, d)

    def test_empty_symbol_is_not_listed(self):
        # the row enumeration started at one entry and never listed it
        assert _symbols_of_rank(0, 0, PARITIES["all"]) == []
