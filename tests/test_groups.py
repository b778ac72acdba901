"""Group catalog, ingestion validation, fusion, induction, fake degrees."""

import json
import sys
from fractions import Fraction

import pytest
from helpers import (
    count_root_searches,
    eval_x,
    group_to_doc,
    induction_matrix_reference,
    orbit_class_index_map,
    restrict,
    with_mu,
    z2_doc,
)
from hypothesis import given, settings, strategies as st
from test_acceptance import BUNDLED

from heckefam.cyclotomic import dot, from_literal, one, rat, zeta, zero
from heckefam import groups
from heckefam.groups import (
    GroupDataError,
    GroupDatum,
    ParabolicEmbedding,
    _data_dir,
    cyclic_group,
    dihedral_group,
    enumerate_and_fuse,
    fake_degrees_molien,
    g4_group,
    get_group,
    induce,
    induction_matrix_from_fusion,
    load_group,
    trivial_group,
)
from heckefam.laurent import LaurentPoly, factor_unit_part, laurent_from_doc, poly_divexact
from heckefam.ntheory import divisors

L = LaurentPoly.from_x_coeffs


class TestCatalog:
    def test_g4_basics(self):
        W = g4_group()
        assert W.order == 24 and W.n_irr == 7
        assert W.char_names == (
            "phi{1,0}", "phi{1,4}", "phi{1,8}", "phi{2,1}", "phi{2,3}",
            "phi{2,5}", "phi{3,2}",
        )
        assert W.reflection_counts() == (4, 8)

    def test_dihedral5(self):
        W = dihedral_group(5)
        assert W.order == 10 and W.degrees == (2, 5)
        assert W.n_irr == 4

    def test_cyclic(self):
        W = cyclic_group(6)
        assert W.order == 6 and W.n_irr == 6

    def test_get_group_spellings(self):
        assert get_group("I2.7") is get_group("I2(7)") is dihedral_group(7)
        assert get_group("Z5") is cyclic_group(5)
        assert get_group("G4") is g4_group()
        with pytest.raises(GroupDataError):
            get_group("E8")

    def test_trivial(self):
        W = trivial_group()
        assert W.order == 1 and W.n_irr == 1 and W.parabolics == ()

    def test_inferred_conj_perm_and_det_index(self):
        # the catalog states neither; validation infers them from the table
        assert (trivial_group().conj_perm, trivial_group().det_index) == ((0,), 0)
        for d in range(2, 13):
            W = cyclic_group(d)
            assert W.conj_perm == tuple((-i) % d for i in range(d)) and W.det_index == 1, d
        for n in range(3, 31):
            W = dihedral_group(n)
            assert W.conj_perm == tuple(range(W.n_irr)) and W.det_index == 1, n


class TestReflections:
    @pytest.mark.parametrize("name,ctor,arg", BUNDLED, ids=[b[0] for b in BUNDLED])
    def test_counts_match_degrees_and_hyperplanes(self, name, ctor, arg):
        W = ctor(arg) if arg is not None else ctor()
        n_hyp, n_refl = W.reflection_counts()
        assert n_refl == sum(d - 1 for d in W.degrees)  # Shephard-Todd
        assert n_hyp == (1 if name.startswith("Z") else 4 if name == "G4" else arg)

    def test_ingested_dihedral(self):
        assert load_group(group_to_doc(dihedral_group(7))).reflection_counts() == (7, 7)


class TestFusion:
    def test_a1_into_i23(self):
        W = dihedral_group(3)
        P = W.parabolics[0]
        fusion = enumerate_and_fuse(W, P)
        # identity -> class 0; the reflection fuses into the reflection class
        refl_class = next(
            ci for ci, (size, word) in enumerate(W.classes) if word == (1,)
        )
        assert fusion == (0, refl_class)

    def test_z3_into_g4(self):
        W = g4_group()
        P = next(p for p in W.parabolics if p.subgroup.name == "Z3")
        fusion = enumerate_and_fuse(W, P)
        assert fusion[0] == 0
        # the two nontrivial classes land in the two distinct order-3 classes
        assert fusion[1] != fusion[2] and 0 not in (fusion[1], fusion[2])

    def test_trivial_subgroup(self):
        W = dihedral_group(4)
        P = next(p for p in W.parabolics if p.subgroup.order == 1)
        assert enumerate_and_fuse(W, P) == (0,)


class TestInduction:
    def test_ind_triv_from_a1_to_i25(self):
        W = dihedral_group(5)
        P = W.parabolics[0]
        # triv + rho1 + rho2
        assert induce(P, (1, 0)) == (1, 0, 1, 1)

    def test_regular_dimension(self):
        for W in (dihedral_group(6), g4_group()):
            for P in W.parabolics:
                reg = tuple(P.subgroup.char_degree(i) for i in range(P.subgroup.n_irr))
                ind = induce(P, reg)
                dim = sum(m * W.char_degree(i) for i, m in enumerate(ind))
                assert dim == W.order

    def test_restriction_of_rho1(self):
        W = dihedral_group(5)
        P = W.parabolics[0]
        # rho1 restricted to A1 is triv + sign
        assert restrict(W, P, (0, 0, 1, 0)) == (1, 1)

    def test_frobenius_reciprocity(self):
        W = g4_group()
        P = next(p for p in W.parabolics if p.subgroup.name == "Z3")
        sub = P.subgroup
        for si in range(sub.n_irr):
            e_sub = tuple(int(i == si) for i in range(sub.n_irr))
            ind = induce(P, e_sub)
            for wi in range(W.n_irr):
                e_w = tuple(int(i == wi) for i in range(W.n_irr))
                assert ind[wi] == restrict(W, P, e_w)[si]

    def test_dimension_mismatch(self):
        W = dihedral_group(5)
        with pytest.raises(ValueError):
            induce(W.parabolics[0], (1, 0, 0))


class TestFakeDegrees:
    def test_triv_is_one(self):
        for W in (dihedral_group(7), g4_group(), cyclic_group(5)):
            assert W.fake_degrees[0] == LaurentPoly.const(one)

    def test_rho1_of_i25(self):
        W = dihedral_group(5)
        i = W.char_index("phi{2,1}")
        assert W.fake_degrees[i] == L([0, 1, 0, 0, 1])  # x + x^4

    def test_det_gets_reflection_count(self):
        for W in (dihedral_group(6), dihedral_group(9), g4_group()):
            n_refl = W.reflection_counts()[1]
            assert W.fake_degrees[W.det_index] == LaurentPoly.x_power(n_refl)

    def test_value_at_one_is_degree(self):
        W = g4_group()
        for i in range(W.n_irr):
            assert eval_x(W.fake_degrees[i], rat(1)) == W.irr[i][0]

    @staticmethod
    def molien_orientations(W):
        """sum_w chi(w) and sum_w conj(chi(w)) against prod(1 - x^d)/det(1 - xw),
        over the classes of a group of rank 1 or 2."""
        x = LaurentPoly.x_power(1, W.mu)
        num = LaurentPoly.const(one, W.mu)
        for d in W.degrees:
            num = num * (1 - LaurentPoly.x_power(d, W.mu))
        terms = []
        for size, word in W.classes:
            m = W.word_matrix(word)
            if W.rank == 1:
                den = 1 - x * m[0][0]
            else:
                den = (1 - x * m[0][0]) * (1 - x * m[1][1]) - x * x * (m[0][1] * m[1][0])
            terms.append(poly_divexact(num, den) * Fraction(size, W.order))
        zero_poly = LaurentPoly.const(zero, W.mu)
        plain = [sum((t * chi[ci] for ci, t in enumerate(terms)), zero_poly) for chi in W.irr]
        conj = [sum((t * chi[ci].conjugate() for ci, t in enumerate(terms)), zero_poly)
                for chi in W.irr]
        return plain, conj

    @pytest.mark.parametrize("name", [f"Z{d}" for d in range(3, 9)] + ["G4", "I2.5", "I2.12"])
    def test_conjugate_orientation_is_the_plain_one_permuted(self, name):
        W = get_group(name)
        plain, conj = self.molien_orientations(W)
        fake = list(W.fake_degrees)
        assert fake == plain
        assert conj == [fake[j] for j in W.conj_perm]

    def test_non_self_dual_g333(self):
        # G(3,3,3): all reflections have order 2, so det(1 - xw) is real and
        # the conjugate Molien sum passes the same checks as the plain one,
        # but V is not self-dual, so the two differ; the plain sum is the one
        W = g333()
        fake = fake_degrees_molien(W)
        total = sum((f * W.char_degree(i) for i, f in enumerate(fake)),
                    LaurentPoly.const(zero))
        assert W.degrees == (3, 6, 3) and total == W.poincare()
        assert fake[W.det_index] == LaurentPoly.x_power(9)
        assert fake != tuple(fake[j] for j in W.conj_perm)
        W.det_index = 0  # the trivial character: R_triv = 1, not x^9
        with pytest.raises(GroupDataError, match=r"G\(3,3,3\): the Molien sum .* chi0"):
            fake_degrees_molien(W)


class TestStatedFakeDegrees:
    """The catalog states its fake degrees in closed form and every bundled
    group states them; validation proves them by the column identity, and
    reaches the Molien sum only when a stated list fails, to name the
    character."""

    CATALOG = [(cyclic_group, d) for d in range(2, 13)] + [(dihedral_group, n)
                                                          for n in range(3, 31)]

    @pytest.mark.parametrize("ctor,arg", CATALOG, ids=[f"{c.__name__}-{a}" for c, a in CATALOG])
    def test_closed_forms_are_the_molien_sums(self, ctor, arg):
        W = ctor(arg)
        assert W.fake_degrees == fake_degrees_molien(W)

    @staticmethod
    def refuse(W):
        raise AssertionError(f"{W.name} reached the Molien sum")

    def test_bundled_groups_never_reach_the_molien_sum(self, monkeypatch):
        monkeypatch.setattr(groups, "fake_degrees_molien", self.refuse)
        built = [trivial_group.__wrapped__(), load_group(_data_dir() / "g4.json")]
        built += [ctor.__wrapped__(arg) for ctor, arg in self.CATALOG]
        for W in built:  # fresh data, equal to the cached ones
            assert W.fake_degrees == get_group(W.name).fake_degrees

    def corrupt(self, how):
        if how == "swapped":  # phi{2,1} and phi{2,2} of I2(5)
            doc = group_to_doc(dihedral_group(5))
            fd = doc["fake_degrees"]
            fd[2], fd[3] = fd[3], fd[2]
        elif how == "coefficient":  # phi{3,2} of G4: x^2 + x^4 + x^6 with 2x^4
            doc = group_to_doc(g4_group())
            doc["fake_degrees"][6]["terms"][1][1] = "2"
        elif how == "fractional":  # I2(5) with mu = 2: x^(3/2) + x^(7/2) for phi{2,1}
            doc = with_mu(group_to_doc(dihedral_group(5)), 2)
            doc["fake_degrees"][2]["terms"] = [[3, "1"], [7, "1"]]
        else:  # the conjugate orientation: phi{1,1} and phi{1,2} of Z3 swapped
            doc = group_to_doc(cyclic_group(3))
            fd = doc["fake_degrees"]
            fd[1], fd[2] = fd[2], fd[1]
        return doc

    @pytest.mark.parametrize("how,message", [
        ("swapped", "I2(5): stored fake degree for phi{2,1} disagrees with Molien"),
        ("coefficient", "G4: stored fake degree for phi{3,2} disagrees with Molien"),
        ("fractional", "I2(5): stored fake degree for phi{2,1} disagrees with Molien"),
        ("conjugate", "Z3: stored fake degree for phi{1,2} disagrees with Molien"),
    ])
    def test_a_wrong_list_gets_the_molien_message(self, how, message):
        with pytest.raises(GroupDataError) as exc:
            load_group(self.corrupt(how))
        assert str(exc.value) == message

    def test_mu_two_takes_the_fast_path(self, monkeypatch):
        doc = with_mu(group_to_doc(dihedral_group(5)), 2)
        monkeypatch.setattr(groups, "fake_degrees_molien", self.refuse)
        W = load_group(doc)
        assert W.mu == 2 and W.fake_degrees[2] == LaurentPoly({2: one, 8: one}, 2)

    def test_no_stated_list_gets_the_molien_sums(self):
        doc = group_to_doc(dihedral_group(8))
        del doc["fake_degrees"]
        assert load_group(doc).fake_degrees == dihedral_group(8).fake_degrees


class TestClassTable:
    """Classes, representatives and fusion read off the multiplication table
    of the enumeration."""

    GROUPS = (["G4", "G(3,3,3)"] + [f"Z{d}" for d in range(2, 9)]
              + [f"I2.{n}" for n in range(3, 31)])

    @pytest.mark.parametrize("name", GROUPS)
    def test_same_map_as_the_orbit_closure(self, name):
        W = g333() if name == "G(3,3,3)" else get_group(name)
        assert W.class_index_map() == orbit_class_index_map(W)

    def test_no_matrix_product_after_the_enumeration(self, monkeypatch):
        W0 = dihedral_group(6)
        W = GroupDatum(
            name=W0.name, order=W0.order, mu=W0.mu, rank=W0.rank, generators=W0.generators,
            degrees=W0.degrees, classes=W0.classes, char_names=W0.char_names, irr=W0.irr,
            fake_degrees=W0.fake_degrees, schur_elements=W0.schur_elements, spetsial=True,
        )
        assert len(W.elements()) == 12

        def refuse(*_args):
            raise AssertionError("matrix product after the enumeration")

        monkeypatch.setattr(GroupDatum, "_matmul", refuse)
        assert W.class_index_map() == W0.class_index_map()
        assert W.class_matrices == W0.class_matrices
        assert [enumerate_and_fuse(W, P) for P in W0.parabolics] == [
            enumerate_and_fuse(W0, P) for P in W0.parabolics]

    @pytest.mark.parametrize("n, ci, word, message", [
        (4, 2, [1, 2], "I2(4): class 2 has size 2, datum says 1"),
        (5, 2, [2, 1], "I2(5): classes 1 and 2 overlap"),
    ])
    def test_a_stated_class_that_is_not_a_whole_class(self, n, ci, word, message):
        doc = group_to_doc(dihedral_group(n))
        doc["classes"][ci]["word"] = word
        with pytest.raises(GroupDataError) as exc:
            load_group(doc)
        assert str(exc.value) == message

    def test_classes_that_do_not_cover_the_group(self):
        W0 = dihedral_group(5)
        W = GroupDatum(
            name=W0.name, order=W0.order, mu=W0.mu, rank=W0.rank, generators=W0.generators,
            degrees=W0.degrees, classes=W0.classes[:-1], char_names=W0.char_names,
            irr=W0.irr, fake_degrees=(), schur_elements=(), spetsial=True,
        )
        with pytest.raises(GroupDataError, match=r"^I2\(5\): classes do not cover the group$"):
            W.class_index_map()


class TestInductionMatrix:
    """Induction multiplicities by Frobenius reciprocity over the subgroup's
    classes equal the inner products over W of the induced class functions."""

    @pytest.mark.parametrize("name", TestClassTable.GROUPS)
    def test_same_matrix_as_the_induced_class_functions(self, name):
        if name == "G(3,3,3)":
            W = g333()
            parabolics = [ParabolicEmbedding(trivial_group(), (), ()),
                          ParabolicEmbedding(cyclic_group(2), ((1,),), ()),
                          ParabolicEmbedding(cyclic_group(2), ((3,),), ()),
                          ParabolicEmbedding(dihedral_group(3), ((1,), (2,)), ())]
        else:
            W = get_group(name)
            parabolics = W.parabolics
        for P in parabolics:
            fusion = enumerate_and_fuse(W, P)
            matrix = induction_matrix_from_fusion(W, P.subgroup, fusion)
            assert matrix == induction_matrix_reference(W, P.subgroup, fusion)
            if P.induction_matrix:
                assert matrix == P.induction_matrix

    def test_non_integral_multiplicity(self):
        # a rotation of order 5 as the generator of Z2: no homomorphism
        doc = group_to_doc(dihedral_group(5))
        doc["parabolics"] = [{"name": "Z2", "generators": [[1, 2]]}]
        with pytest.raises(GroupDataError) as exc:
            load_group(doc)
        assert str(exc.value) == ("I2(5): induction from Z2 gives non-integral multiplicity "
                                  "1/2 - 1/2*z5^2 - 1/2*z5^3")


def g333() -> GroupDatum:
    """G(3,3,3) = A x| S3, A the diagonal matrices of cube roots of unity with
    determinant 1: monomial generators, its 10 classes, and its characters by
    Clifford theory, induced from A x| Stab(lam) for each S3-orbit of
    characters lam of A (the datum is not validated: no Schur elements)."""
    z = zeta(3)
    gens = (
        ((zero, one, zero), (one, zero, zero), (zero, zero, one)),
        ((one, zero, zero), (zero, zero, one), (zero, one, zero)),
        ((zero, z * z, zero), (z, zero, zero), (zero, zero, one)),
    )

    def mul(A, B):
        return tuple(tuple(sum((A[i][t] * B[t][j] for t in range(3)), zero)
                           for j in range(3)) for i in range(3))

    def inv(A):  # monomial with roots of unity: unitary
        return tuple(tuple(A[j][i].conjugate() for j in range(3)) for i in range(3))

    # every element with a shortest word, in breadth-first order
    ident = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens, start=1):
                m = mul(x, g)
                if m not in words:
                    words[m] = words[x] + (gi,)
                    nxt.append(m)
        frontier = nxt
    elements = list(words)
    # classes, each represented by its first element: the identity first
    classes, reps, seen = [], [], set()
    for x in elements:
        if x not in seen:
            orbit = {mul(inv(g), mul(x, g)) for g in elements}
            seen |= orbit
            classes.append((len(orbit), words[x]))
            reps.append(x)

    def split(m):
        """m = D P: the diagonal entries of D and the permutation of P."""
        perm = tuple(next(j for j in range(3) if m[i][j]) for i in range(3))
        return tuple(m[i][perm[i]] for i in range(3)), perm

    def lam(c, diag):
        out = one
        for d, ci in zip(diag, c):
            out = out * d ** ci
        return out

    def induced(c, stab, psi):
        """Induced from A x| stab of theta(D P) = lam_c(D) psi(P)."""
        row = []
        for x in reps:
            tot = zero
            for g in elements:
                diag, perm = split(mul(inv(g), mul(x, g)))
                if perm in stab:
                    tot = tot + lam(c, diag) * psi(perm)
            row.append(tot * Fraction(1, 9 * len(stab)))
        return tuple(row)

    def on_s3(f):  # characters of S3 pulled back along D P -> P
        return tuple(rat(f(split(x)[1])) for x in reps)

    def sign(perm):
        return -1 if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 else 1

    ident_perm, swap01 = (0, 1, 2), (1, 0, 2)
    a3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]  # i -> i + k
    irr = [
        on_s3(lambda perm: 1),
        on_s3(sign),
        on_s3(lambda perm: sum(perm[i] == i for i in range(3)) - 1),
    ]
    irr += [induced((0, 1, 2), a3, lambda perm, j=j: zeta(3, j * perm[0])) for j in range(3)]
    irr += [induced(c, (ident_perm, swap01), psi)
            for c in ((0, 0, 1), (0, 0, 2)) for psi in (lambda perm: one, sign)]
    irr = tuple(irr)
    conj = [tuple(v.conjugate() for v in row) for row in irr]
    for i, chi in enumerate(irr):  # orthonormal: the 10 irreducible characters
        for j, psi in enumerate(conj):
            ip = sum((chi[ci] * psi[ci] * size for ci, (size, _w) in enumerate(classes)), zero)
            assert ip == rat(54 if i == j else 0), (i, j)
    det = tuple(rat(sign(split(x)[1])) for x in reps)
    W = GroupDatum(
        name="G(3,3,3)", order=54, mu=1, rank=3, generators=gens, degrees=(3, 6, 3),
        classes=tuple(classes), char_names=tuple(f"chi{i}" for i in range(10)), irr=irr,
        fake_degrees=(), schur_elements=(), conj_perm=tuple(irr.index(row) for row in conj),
        det_index=irr.index(det), spetsial=False,
    )
    assert len(W.elements()) == 54 and len(classes) == 10
    return W


class TestPoincare:
    def test_cyclic(self):
        assert cyclic_group(3).poincare() == L([1, 1, 1])

    def test_dihedral5(self):
        from heckefam.laurent import poly_divexact

        want = poly_divexact(L([-1, 0, 1]) * (LaurentPoly.x_power(5) - 1), L([-1, 1]) ** 2)
        assert dihedral_group(5).poincare() == want

    def test_value_at_one_is_order(self):
        for W in (dihedral_group(8), g4_group(), cyclic_group(7)):
            assert eval_x(W.poincare(), rat(1)) == W.order


class TestIngestion:
    def test_round_trip(self, tmp_path):
        W = dihedral_group(7)
        doc = group_to_doc(W)
        path = tmp_path / "i27.json"
        path.write_text(json.dumps(doc))
        W2 = load_group(path)
        assert W2.char_names == W.char_names
        assert W2.schur_elements == W.schur_elements
        assert W2.irr == W.irr

    def test_perturbed_character_value_names_pair(self, tmp_path):
        doc = group_to_doc(dihedral_group(4))
        doc["characters"][2]["values"][1] = {"n": 1, "c": {"0": "5"}}
        with pytest.raises(GroupDataError, match="orthogonality"):
            load_group(doc)

    def test_perturbed_schur_fails_gate(self):
        doc = group_to_doc(cyclic_group(3))
        doc["schur_elements"][0] = {"mu": 1, "terms": [[0, "1"], [1, "1"], [2, "2"]]}
        with pytest.raises(GroupDataError, match=r"c\(phi\{1,0\}\)\(1\) != \|W\|/deg \(got 4\)"):
            load_group(doc)

    def test_wrong_class_size_detected(self):
        doc = group_to_doc(cyclic_group(4))
        doc["classes"][1]["size"] = 2
        with pytest.raises(GroupDataError, match="class"):
            load_group(doc)

    def test_missing_field(self):
        with pytest.raises(GroupDataError, match="missing required field"):
            load_group({"format": 1, "name": "X"})

    def test_bad_format_version(self):
        with pytest.raises(GroupDataError, match="format"):
            load_group({"format": 2})

    def test_wrong_fake_degree_detected(self):
        doc = group_to_doc(cyclic_group(3))
        doc["fake_degrees"][1] = {"mu": 1, "terms": [[1, "1"]]}
        with pytest.raises(GroupDataError, match="fake degree"):
            load_group(doc)


def divides(P, c) -> bool:
    try:
        poly_divexact(P, c)
    except ArithmeticError:
        return False
    return True


def poincare(degrees, mu) -> LaurentPoly:
    out = LaurentPoly.const(one, mu)
    for d in degrees:
        out = out * LaurentPoly.from_x_coeffs([1] * d, mu)
    return out


class TestGenericDegreeCriterion:
    """`groups._excess`, which reads from the multiplicities of the roots of
    unity whether P/c is a Laurent polynomial, agrees with whether the
    division poly_divexact(P, c) raises."""

    @pytest.mark.parametrize("name", [name for name, _ctor, _arg in BUNDLED])
    def test_bundled_schur_elements(self, name):
        W = get_group(name.replace("(", ".").rstrip(")"))
        P = W.poincare()
        facts = [factor_unit_part(c) for c in W.schur_elements]
        for c, excess in zip(W.schur_elements, groups._excess(facts, W.degrees, W.mu)):
            assert (not excess) == divides(P, c)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_drawn_unit_shaped(self, data):
        mu = data.draw(st.sampled_from((1, 2, 3)), label="mu")
        degrees = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="degrees")
        # orders up to 12, half of them among the orders of the roots of P
        root_orders = sorted({m for d in degrees for m in divisors(mu * d) if m <= 12})
        order = st.one_of(st.integers(1, 12), st.sampled_from(root_orders))
        planted = data.draw(st.lists(st.tuples(order, st.integers(0, 11), st.integers(1, 3)),
                                     max_size=3), label="planted")
        scalar = data.draw(st.sampled_from((one, rat(Fraction(3, 2)), 2 + zeta(3))))
        c = LaurentPoly.const(scalar, mu).shift(data.draw(st.integers(-3, 3)))
        for m, j, mult in planted:
            c = c * LaurentPoly({1: one, 0: -zeta(m, j % m)}, mu) ** mult
        (excess,) = groups._excess([factor_unit_part(c)], tuple(degrees), mu)
        assert (not excess) == divides(poincare(degrees, mu), c)

    CLEARED = {
        "G4": lambda: group_to_doc(g4_group()),
        "Z2(x^2,-1)": lambda: z2_doc(False, c0={0: 1, 2: 1}, c1={0: 1, -2: 1}),
        "Z2 with c0 = x + 1/x": lambda: z2_doc(False, c0={1: 1, -1: 1}),
    }

    @pytest.mark.parametrize("make", CLEARED.values(), ids=CLEARED.keys())
    def test_gate_agrees_with_the_cleared_identity(self, make):
        # sum chi(1)/c_chi = 1 with every denominator cleared:
        # sum chi(1) prod_{j != chi} c_j = prod_j c_j
        doc = make()
        cs = [laurent_from_doc(c) for c in doc["schur_elements"]]
        degrees = [from_literal(ch["values"][0]) for ch in doc["characters"]]
        unit = LaurentPoly.const(one, doc["mu"])
        total = LaurentPoly.const(zero, doc["mu"])
        for i, deg in enumerate(degrees):
            others = unit
            for j, c in enumerate(cs):
                if j != i:
                    others = others * c
            total = total + others * deg
        product = unit
        for c in cs:
            product = product * c
        try:
            load_group(doc)
        except GroupDataError as exc:
            assert "symmetrizing-form gate" in str(exc)
            assert total != product
        else:
            assert total == product


class TestEnumerationBound:
    def test_bound_exceeded_is_reported(self, monkeypatch):
        import heckefam.groups as G

        monkeypatch.setattr(G, "ENUMERATION_BOUND", 10)
        doc = group_to_doc(dihedral_group(8))
        with pytest.raises(GroupDataError, match="enumeration bound"):
            load_group(doc)


class TestOrbitValidation:
    """Orthogonality is checked on one pair of rows, and the column identity
    at one class, per orbit of the Galois generators sigma_u that validation
    has verified to permute the rows, and the columns with their
    det(1 - xw).  A datum that breaks the symmetry loses the generator, so
    every mutation below raises what the check of every pair and class
    raises (`check_everything`)."""

    @staticmethod
    def work(monkeypatch, build):
        """(orthogonality dots, classes given the column identity) in build()."""
        counts = {"_check_orthogonality": 0, "_stated_fake_degrees_hold": 0}

        def counting(fn, caller):
            def wrapped(*args):
                if sys._getframe(1).f_code.co_name == caller:
                    counts[caller] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(groups, "dot", counting(dot, "_check_orthogonality"))
        monkeypatch.setattr(groups, "poly_divexact",
                            counting(poly_divexact, "_stated_fake_degrees_hold"))
        build()
        return tuple(counts.values())

    @staticmethod
    def check_everything(monkeypatch):
        monkeypatch.setattr(groups, "_unit_generators", lambda n: ())

    @pytest.mark.parametrize("n, dots, classes", [(17, (10, 55), (3, 10)),
                                                  (30, (69, 171), (10, 18))])
    def test_one_pair_and_one_class_per_orbit(self, monkeypatch, n, dots, classes):
        cyclic_group(2)
        orbit = self.work(monkeypatch, lambda: dihedral_group.__wrapped__(n))
        self.check_everything(monkeypatch)
        every = self.work(monkeypatch, lambda: dihedral_group.__wrapped__(n))
        assert tuple(zip(orbit, every)) == (dots, classes)

    @pytest.mark.parametrize("ctor, args", [(dihedral_group, range(3, 41)),
                                            (cyclic_group, range(2, 13))])
    def test_catalog_groups_run_no_root_search(self, monkeypatch, ctor, args):
        trivial_group(), cyclic_group(2)
        searches = count_root_searches(monkeypatch)
        for arg in args:
            factor_unit_part.cache_clear()
            ctor.__wrapped__(arg)
        assert searches == []

    @staticmethod
    def mutated(how):
        if how == "I2(12) row":  # phi{2,5}, conjugate to phi{2,1}, gets a value of it
            doc = group_to_doc(dihedral_group(12))
            rows = doc["characters"]
            rows[8]["values"][1] = rows[4]["values"][1]
        elif how == "I2(12) class":  # r^5, conjugate to r, swaps its word with r^2's
            doc = group_to_doc(dihedral_group(12))
            c = doc["classes"]
            c[2]["word"], c[5]["word"] = c[5]["word"], c[2]["word"]
        elif how == "G4 row":  # phi{2,3}, conjugate to phi{2,1}, gets a value of it
            doc = group_to_doc(g4_group())
            rows = doc["characters"]
            rows[4]["values"][1] = rows[3]["values"][1]
        elif how == "G4 class":  # class 2, conjugate to class 1, swaps its word with class 3's
            doc = group_to_doc(g4_group())
            c = doc["classes"]
            c[2]["word"], c[3]["word"] = c[3]["word"], c[2]["word"]
        elif how == "I2(15) classes":  # r^6 and r^7, conjugate to r^3 and r, swap words:
            # the columns are still permuted, but not their det(1 - xw)
            doc = group_to_doc(dihedral_group(15))
            c = doc["classes"]
            c[6]["word"], c[7]["word"] = c[7]["word"], c[6]["word"]
        else:  # I2(17) with phi{2,8} negated: no sigma_u permutes the rows
            doc = group_to_doc(dihedral_group(17))
            row = doc["characters"][9]
            row["values"] = [{"n": v["n"], "c": {k: str(-Fraction(x)) for k, x in v["c"].items()}}
                             for v in row["values"]]
        return doc

    @pytest.mark.parametrize("how", ["I2(12) row", "I2(12) class", "G4 row", "G4 class",
                                     "I2(15) classes", "I2(17) negated row"])
    def test_a_mutation_raises_what_every_check_raises(self, monkeypatch, how):
        with pytest.raises(GroupDataError) as orbit:
            load_group(self.mutated(how))
        self.check_everything(monkeypatch)
        with pytest.raises(GroupDataError) as every:
            load_group(self.mutated(how))
        assert str(orbit.value) == str(every.value)

    def test_a_table_no_sigma_permutes_is_checked_on_every_pair(self, monkeypatch):
        def build():
            with pytest.raises(GroupDataError, match=r"phi\{2,8\} has bad degree -2"):
                load_group(self.mutated("I2(17) negated row"))

        assert self.work(monkeypatch, build) == (55, 0)
