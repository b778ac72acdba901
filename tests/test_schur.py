"""Schur element constructors and the character invariants."""

from fractions import Fraction

import pytest
from helpers import (
    bad_primes_reference,
    cyclic_schur_reference,
    dihedral_schur_reference,
    eval_x,
    from_x_coeffs,
    group_to_doc,
    laurent_to_doc,
    omega_pi_exponent,
    relative_trace_scalar,
    schur_sum,
    unit_part_uncached,
)

from heckefam import laurent
from heckefam.cyclotomic import Cyclotomic, one, rat, zeta, zero
from heckefam.groups import (
    cyclic_group,
    dihedral_group,
    g4_group,
    get_group,
    load_group,
)
from heckefam.blocks import families
from heckefam.groups import GroupDataError
from heckefam.laurent import LaurentPoly, factor_unit_part, poly_divexact
from heckefam.schur import (
    a_plus_A,
    bad_primes,
    compute_invariants,
    cyclic_schur,
    dihedral_schur,
    f_of,
)
from heckefam.ntheory import factorize

L = from_x_coeffs


class TestCyclicSchur:
    def test_d2_matches_rank_one_coxeter(self):
        c = cyclic_schur(2)
        assert c[0] == L([1, 1])
        assert c[1] == L([1, 1]).shift(-1)

    def test_d3_first_is_poincare(self):
        assert cyclic_schur(3)[0] == L([1, 1, 1])

    def test_d3_matches_closed_form(self):
        z = zeta(3)
        c1 = cyclic_schur(3)[1]
        assert c1 == (LaurentPoly({1: one, 0: -z}) * (1 - z**2)).shift(-1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_moment_system(self, d):
        # sum_i lambda_i^k / c_i = delta_{k0} for 0 <= k < d
        W = cyclic_group(d)
        assert list(W.schur_elements) == cyclic_schur(d)
        z = zeta(d)
        for k in range(d):
            lam_k = [LaurentPoly.x_power(k)] + [z ** (i * k) for i in range(1, d)]
            N, D = schur_sum(W, lam_k)
            assert N == (D if k == 0 else LaurentPoly({})), (d, k)


class TestStatedFactorizations:
    """`cyclic_schur` and `dihedral_schur` build each Schur element from its
    roots and record its factorization; it is the root search's, factor
    order included (ascending m, then j), and the element is the one its
    formula expands to term by term."""

    @staticmethod
    def check(built, reference):
        assert built == reference
        for c in built:
            g = c.shift(-c.min_exp())
            assert laurent._STATED[g] == unit_part_uncached(g), c
            assert factor_unit_part(c) == unit_part_uncached(c), c

    @pytest.mark.parametrize("n", range(3, 41))
    def test_dihedral(self, n):
        self.check(dihedral_schur(n), dihedral_schur_reference(n))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_cyclic(self, d):
        self.check(cyclic_schur(d), cyclic_schur_reference(d))


class TestClosedFormScalars:
    """The scalars that `cyclic_schur` and `dihedral_schur` build in closed
    form, d/(1 - w) from 1/(1 - w) = -(1/m) sum_{k<m} k w^k for w of order
    m > 1, and n/((1 - w)(1 - w^-1)), are the inverses computed through the
    norm, for every root w = zeta_n^j != 1 with n <= 60."""

    @pytest.mark.parametrize("n", range(2, 61))
    def test_cyclic(self, n):
        for j, c in enumerate(cyclic_schur(n)[1:], start=1):
            assert c.coeffs[0] == n * (1 - zeta(n, j)).inverse(), j  # gamma (x - w)/x

    @pytest.mark.parametrize("n", range(3, 61))
    def test_dihedral(self, n):
        rho = dihedral_schur(n)[2 if n % 2 else 4:]
        for j, c in enumerate(rho, start=1):
            want = n * ((1 - zeta(n, j)) * (1 - zeta(n, -j))).inverse()
            assert c.coeffs[1] == want, j  # f (x - w)(x - w^-1)/x


class TestDihedralSchur:
    def test_n5_f_values(self):
        W = dihedral_group(5)
        sqrt5 = 1 + 2 * zeta(5) + 2 * zeta(5, 4)
        f1 = f_of(W.schur_elements[W.char_index("phi{2,1}")])
        f2 = f_of(W.schur_elements[W.char_index("phi{2,2}")])
        assert f1 == (rat(5) + sqrt5) * Fraction(1, 2)
        assert f2 == (rat(5) - sqrt5) * Fraction(1, 2)

    def test_n5_a_values_sum_to_one(self):
        W = dihedral_group(5)
        total = zero
        for nm in ("phi{2,1}", "phi{2,2}"):
            total = total + f_of(W.schur_elements[W.char_index(nm)]).inverse()
        assert total == one

    def test_n3_middle_is_unit(self):
        W = dihedral_group(3)
        a1 = f_of(W.schur_elements[W.char_index("phi{2,1}")]).inverse()
        assert a1 == one  # unit at every prime: singleton block

    def test_even_n_linear_characters(self):
        for n in (4, 6, 8):
            cs = dihedral_schur(n)
            assert cs[2] == cs[3]
            assert f_of(cs[2].shift(-cs[2].min_exp())) != zero
            assert f_of(cs[2]).inverse() == rat(Fraction(2, n))

    def test_gate_enforced(self):
        # the symmetrizing-form identity sum deg(chi) * P/c_chi = P, checked
        # on the constructor's own output against P = (x^2-1)(x^n-1)/(x-1)^2
        for n in range(3, 16):
            cs = dihedral_schur(n)
            P = poly_divexact(L([-1, 0, 1]) * (LaurentPoly.x_power(n) - 1), L([1, -2, 1]))
            nrot = (n - 1) // 2
            degs = [1] * (len(cs) - nrot) + [2] * nrot
            total = LaurentPoly.const(zero)
            for deg, c in zip(degs, cs):
                total = total + poly_divexact(P, c) * deg
            assert total == P, n


class TestGenericDegrees:
    @staticmethod
    def assert_stored_degrees_divide(W):
        # every P/c is exact, and sum chi(1) P/c_chi = P
        P = W.poincare()
        total = LaurentPoly.const(zero, W.mu)
        for c, row in zip(W.schur_elements, W.irr):
            total = total + poly_divexact(P, c) * row[0]
        assert total == P

    @pytest.mark.parametrize(
        "name", ["1", "G4", "Z2", "Z3", "Z4", "Z6", "I2.3", "I2.4", "I2.5", "I2.6", "I2.9", "I2.12"]
    )
    def test_bundled(self, name):
        self.assert_stored_degrees_divide(get_group(name))

    def test_g4_ingested_not_spetsial(self):
        doc = group_to_doc(g4_group())
        doc["spetsial"] = False
        W = load_group(doc)
        assert not W.spetsial
        self.assert_stored_degrees_divide(W)

    @staticmethod
    def z2_with_parameters_x2_and_minus_one(spetsial):
        """Z2 with Hecke parameters x^2 and -1: its Schur elements 1 + x^2 and
        1 + x^-2 satisfy sum 1/c = 1, but P = 1 + x divides neither."""
        doc = group_to_doc(cyclic_group(2))
        doc["name"] = "Z2(x^2,-1)"
        doc["spetsial"] = spetsial
        doc["schur_elements"] = [
            laurent_to_doc(L([1, 0, 1])),
            laurent_to_doc(LaurentPoly({0: one, -2: one})),
        ]
        return doc

    def test_rational_generic_degrees(self):
        W = load_group(self.z2_with_parameters_x2_and_minus_one(False))
        P = W.poincare()
        for c in W.schur_elements:
            with pytest.raises(ArithmeticError):
                poly_divexact(P, c)
        # sum 1/c = 1 with the denominators cleared: c_1 + c_0 = c_0 c_1
        c0, c1 = W.schur_elements
        assert c1 + c0 == c0 * c1
        # a and A are the orders of P/c at 0 and at infinity:
        # (1 + x)/(1 + x^2) has orders 0 and -1, x^2 (1 + x)/(1 + x^2) has 2 and 1
        assert [(r.a, r.A) for r in compute_invariants(W)] == [(0, -1), (2, 1)]
        assert families(W).all_exact()

    def test_rational_generic_degrees_rejected_when_spetsial(self):
        with pytest.raises(GroupDataError, match="not a Laurent polynomial"):
            load_group(self.z2_with_parameters_x2_and_minus_one(True))


class TestFOf:
    def test_simple(self):
        assert f_of(L([1, 1, 1])) == one

    def test_paper_type_value(self):
        # alpha_{1^2}(p^n) at p^n = 3: (3 + sqrt(-3))/2 = 2 + zeta_3
        W = g4_group()
        assert f_of(W.schur_elements[W.char_index("phi{2,1}")]) == 2 + zeta(3)

    def test_z3_value_up_to_unit(self):
        c1 = cyclic_schur(3)[1]
        ratio = f_of(c1) * (1 - zeta(3)).inverse()
        assert ratio.is_root_of_unity()


class TestBadPrimes:
    def test_g4(self):
        assert bad_primes(g4_group()) == {2, 3}

    def test_z3(self):
        assert bad_primes(cyclic_group(3)) == {3}

    def test_i25(self):
        assert bad_primes(dihedral_group(5)) == {5}

    @pytest.mark.parametrize("n", range(3, 21))
    def test_dihedral_against_norm_oracle(self, n):
        W = dihedral_group(n)
        oracle = set()
        for c in W.schur_elements:
            nrm = f_of(c).norm()
            assert nrm.denominator == 1
            num = abs(nrm.numerator)
            stripped = {p for p in factorize(num)} if num > 1 else set()
            oracle |= stripped
        assert bad_primes(W) == oracle

    @pytest.mark.parametrize("name", ["G4"] + [f"Z{d}" for d in range(2, 13)]
                             + [f"I2.{n}" for n in range(3, 41)])
    def test_matches_per_element_norms(self, name):
        W = get_group(name)
        assert bad_primes(W) == bad_primes_reference(W)

    @pytest.mark.parametrize("n", [17, 19])
    def test_one_norm_per_galois_orbit(self, n, monkeypatch):
        """The scalars f of I2(n), n prime, are 1 (trivial and sign) and
        the n/|1 - w|^2 of the rho_j, all conjugate: two norms."""
        calls = []
        norm = Cyclotomic.norm

        def counted(a):
            calls.append(a)
            return norm(a)

        monkeypatch.setattr(Cyclotomic, "norm", counted)
        assert bad_primes.__wrapped__(dihedral_group(n)) == {n}
        assert len(calls) == 2


class TestInvariants:
    def test_i25_rho1(self):
        W = dihedral_group(5)
        r = compute_invariants(W)[W.char_index("phi{2,1}")]
        assert (r.a, r.A, r.b, r.special) == (1, 4, 1, True)

    def test_triv_always_special_zero(self):
        for W in (dihedral_group(9), g4_group(), cyclic_group(4)):
            r = compute_invariants(W)[0]
            assert (r.a, r.A, r.b, r.N, r.special) == (0, 0, 0, 0, True)

    def test_a_plus_A_identity(self):
        for W in (dihedral_group(5), dihedral_group(8), g4_group(), cyclic_group(6)):
            recs = compute_invariants(W)
            for i, r in enumerate(recs):
                assert r.a + r.A == a_plus_A(W, i, recs), (W.name, r.name)

    def test_i25_rho1_n_value(self):
        W = dihedral_group(5)
        r = compute_invariants(W)[W.char_index("phi{2,1}")]
        assert r.N == 5
        assert a_plus_A(W, W.char_index("phi{2,1}")) == 5

    def test_records_are_built_once_per_group(self):
        for W in (dihedral_group(12), g4_group(), cyclic_group(6)):
            recs = compute_invariants(W)
            assert isinstance(recs, tuple)
            assert compute_invariants(W) is recs
            assert recs == tuple(compute_invariants.__wrapped__(W))


class TestOmegaPi:
    def test_triv(self):
        W = g4_group()
        nh, nr = W.reflection_counts()
        assert omega_pi_exponent(W, 0) == nh + nr

    def test_i25_rho1(self):
        W = dihedral_group(5)
        assert omega_pi_exponent(W, W.char_index("phi{2,1}")) == 5

    def test_det_of_coxeter_is_zero(self):
        for n in (5, 7, 8):
            W = dihedral_group(n)
            assert omega_pi_exponent(W, W.det_index) == 0


class TestRelativeTrace:
    def test_i23_over_a1(self):
        W = dihedral_group(3)
        N, D = relative_trace_scalar(W, W.parabolics[0], 0)
        assert poly_divexact(N, D) == L([1, 1, 1])
        assert eval_x(N, rat(1)) / eval_x(D, rat(1)) == 3

    def test_trivial_subgroup_gives_schur(self):
        W = dihedral_group(4)
        P = next(p for p in W.parabolics if p.subgroup.order == 1)
        N, D = relative_trace_scalar(W, P, 0)
        assert D == L([1]) and N == W.schur_elements[0]
        assert eval_x(N, rat(1)) == W.order

    @pytest.mark.parametrize("grp", ["I2.5", "I2.6", "G4", "Z4"])
    def test_evaluates_to_index(self, grp):
        from heckefam.groups import get_group

        W = get_group(grp)
        for P in W.parabolics:
            index = W.order // P.subgroup.order
            for i in range(W.n_irr):
                N, D = relative_trace_scalar(W, P, i)
                assert eval_x(N, rat(1)) / eval_x(D, rat(1)) == index


class TestCanonicalTraceIdentity:
    """The symmetrizing form vanishes on nontrivial basis elements: checked on
    the rotation powers T_{(st)^k}, whose eigenvalues on the two-dimensional
    characters are x * zeta^{+-jk}. This pins the character-to-Schur-element
    alignment (a shifted assignment fails)."""

    @staticmethod
    def _trace_sum(W, n, perm):
        z = zeta(n)
        nrot = (n - 1) // 2 if n % 2 else n // 2 - 1
        off = 2 if n % 2 else 4
        for k in range(1, (n + 1) // 2):
            traces = [LaurentPoly.x_power(2 * k), L([1])]
            if n % 2 == 0:
                traces += [LaurentPoly({k: (-one) ** k})] * 2
            traces += [None] * nrot
            for j in range(1, nrot + 1):
                traces[off + perm(j) - 1] = LaurentPoly({k: z ** (j * k) + z ** (-j * k)})
            if not schur_sum(W, traces)[0].is_zero():
                return False
        return True

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 12])
    def test_identity_holds(self, n):
        assert self._trace_sum(dihedral_group(n), n, lambda j: j)

    @pytest.mark.parametrize("n", [5, 7, 8, 12])
    def test_shifted_assignment_fails(self, n):
        nrot = (n - 1) // 2 if n % 2 else n // 2 - 1
        assert not self._trace_sum(
            dihedral_group(n), n, lambda j: (j % nrot) + 1
        )


class TestFullTwistTrace:
    """The symmetrizing form sends the full-twist central element to
    x^{#hyperplanes}: ties the omega_pi exponents, the Schur elements and the
    canonical form together across all bundled group types."""

    @pytest.mark.parametrize(
        "grp", ["Z2", "Z3", "Z5", "Z8", "I2.5", "I2.6", "I2.8", "I2.11", "G4"]
    )
    def test_identity(self, grp):
        from heckefam.groups import get_group

        W = get_group(grp)
        exponents = [omega_pi_exponent(W, i) for i in range(W.n_irr)]
        assert all(e.denominator == 1 for e in exponents)
        N, D = schur_sum(W, [LaurentPoly({int(e): row[0]}) for e, row in zip(exponents, W.irr)])
        n_hyp = W.reflection_counts()[0]
        assert N == D * LaurentPoly.x_power(n_hyp)
