"""Constructible characters and the special-character pairing."""

import pytest
from helpers import construc_pairing_check, special_multiplicities

from heckefam.blocks import families
from heckefam.constructible import constructible_chars
from heckefam.groups import cyclic_group, dihedral_group, g4_group, trivial_group
from heckefam.schur import compute_invariants


class TestConstructible:
    def test_trivial_group(self):
        assert constructible_chars(trivial_group()) == [(1,)]

    def test_a1(self):
        W = cyclic_group(2)
        assert sorted(constructible_chars(W)) == [(0, 1), (1, 0)]

    def test_i25(self):
        W = dihedral_group(5)
        assert sorted(constructible_chars(W)) == [
            (0, 0, 1, 1),  # rho1 + rho2
            (0, 1, 0, 0),  # sign
            (1, 0, 0, 0),  # triv
        ]

    def test_i24(self):
        W = dihedral_group(4)
        i_p, i_pp, i_rho = (
            W.char_index("phi{1,2}'"), W.char_index("phi{1,2}''"), W.char_index("phi{2,1}"),
        )
        want = {
            tuple(int(i == 0) for i in range(5)),
            tuple(int(i == 1) for i in range(5)),
            tuple(int(i in (i_p, i_rho)) for i in range(5)),
            tuple(int(i in (i_pp, i_rho)) for i in range(5)),
        }
        assert set(constructible_chars(W)) == want

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_lusztig_lists_for_dihedral(self, n):
        W = dihedral_group(n)
        k = W.n_irr
        triv = tuple(int(i == 0) for i in range(k))
        sign = tuple(int(i == 1) for i in range(k))
        if n % 2 == 1:
            middle = {tuple(int(i >= 2) for i in range(k))}
            if n == 3:
                middle = {tuple(int(i == 2) for i in range(k))}
        else:
            ip, ipp = W.char_index(f"phi{{1,{n//2}}}'"), W.char_index(f"phi{{1,{n//2}}}''")
            rhos = tuple(int(W.char_names[i].startswith("phi{2,")) for i in range(k))
            m1 = tuple(r | int(i == ip) for i, r in enumerate(rhos))
            m2 = tuple(r | int(i == ipp) for i, r in enumerate(rhos))
            middle = {m1, m2}
        assert set(constructible_chars(W)) == {triv, sign} | middle

    def test_support_lies_in_single_family(self):
        for W in (dihedral_group(6), g4_group(), cyclic_group(4)):
            fam = families(W)
            for phi in constructible_chars(W):
                support = [i for i, m in enumerate(phi) if m]
                assert len({fam.part_of(i) for i in support}) == 1

    def test_norm_at_least_one(self):
        for W in (dihedral_group(7), g4_group()):
            for phi in constructible_chars(W):
                assert sum(m * m for m in phi) >= 1
                assert all(m >= 0 for m in phi)


class TestPairing:
    def test_i25_middle_family(self):
        W = dihedral_group(5)
        fam = families(W)
        middle = next(p for p in fam.parts if len(p) > 1)
        phi = (0, 0, 1, 1)
        assert construc_pairing_check(W, phi, middle)

    def test_singleton_family(self):
        W = dihedral_group(5)
        assert construc_pairing_check(W, (1, 0, 0, 0), (0,))

    def test_corrupted_f_detected(self):
        # scaling one multiplicity breaks the pairing
        W = dihedral_group(5)
        fam = families(W)
        middle = next(p for p in fam.parts if len(p) > 1)
        assert not construc_pairing_check(W, (0, 0, 2, 1), middle)

    def test_g4_all_constructibles_pair_to_zero(self):
        W = g4_group()
        fam = families(W)
        for phi in constructible_chars(W):
            support = [i for i, m in enumerate(phi) if m]
            part = fam.parts[fam.part_of(support[0])]
            assert construc_pairing_check(W, phi, part)

    def test_dihedral_all_pair_to_zero(self):
        for n in range(3, 13):
            W = dihedral_group(n)
            fam = families(W)
            for phi in constructible_chars(W):
                support = [i for i, m in enumerate(phi) if m]
                part = fam.parts[fam.part_of(support[0])]
                assert construc_pairing_check(W, phi, part), (n, phi)

    def test_no_unique_special_rejected(self):
        W = dihedral_group(5)
        with pytest.raises(ValueError):
            construc_pairing_check(W, (1, 0, 0, 0), (0, 1))  # triv+sign: two specials

    def test_special_multiplicities_reported(self):
        W = g4_group()
        out = special_multiplicities(W)
        assert all(m is not None and m >= 1 for _phi, _pi, m in out)
