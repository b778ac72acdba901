"""External data pathway: schema validation, invariant rejection with named
diagnostics, and end-to-end block computation from an ingested file."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import group_to_doc, z2_doc

from heckefam import cli, groups
from heckefam.blocks import families
from heckefam.cyclotomic import from_literal, to_literal, zeta
from heckefam.laurent import laurent_from_doc
from heckefam.groups import (
    GroupDataError,
    dihedral_group,
    cyclic_group,
    load_group,
)


class TestRejection:
    def test_orthogonality_violation_names_the_pair(self):
        doc = group_to_doc(dihedral_group(5))
        doc["characters"][2]["values"][0] = {"n": 1, "c": {"0": "3"}}
        with pytest.raises(GroupDataError) as exc:
            load_group(doc)
        assert "orthogonality" in str(exc.value)
        assert "phi{" in str(exc.value)

    def test_schur_gate_violation_names_invariant(self):
        doc = group_to_doc(cyclic_group(4))
        # scale one Schur element: breaks c(1) = |W|/deg
        terms = doc["schur_elements"][2]["terms"]
        doc["schur_elements"][2] = {"mu": 1, "terms": [[e, lit] for e, lit in terms] + [[9, "1"]]}
        with pytest.raises(GroupDataError) as exc:
            load_group(doc)
        assert "Z4: c(phi{1,2})(1) != |W|/deg" in str(exc.value)

    def test_degree_product_checked(self):
        doc = group_to_doc(cyclic_group(3))
        doc["degrees"] = [4]
        with pytest.raises(GroupDataError, match="degrees"):
            load_group(doc)

    def test_induction_matrix_cross_checked(self):
        doc = group_to_doc(dihedral_group(4))
        doc["parabolics"][0]["induction_matrix"][0][0] += 1
        with pytest.raises(GroupDataError, match="induction"):
            load_group(doc)

    def test_wrong_conj_perm_names_the_character(self):
        doc = group_to_doc(cyclic_group(4))
        doc["conj_perm"] = [0, 1, 2, 3]
        with pytest.raises(GroupDataError, match="conj_perm wrong"):
            load_group(doc)

    def test_wrong_det_index(self):
        doc = group_to_doc(cyclic_group(4))
        doc["det_index"] = 2
        with pytest.raises(GroupDataError, match="det_index does not match"):
            load_group(doc)

    def test_fake_degrees_of_the_other_orientation(self):
        # phi{1,1} and phi{1,2} of Z3 swapped: the conjugate Molien orientation
        doc = group_to_doc(cyclic_group(3))
        doc["fake_degrees"][1], doc["fake_degrees"][2] = doc["fake_degrees"][2], doc["fake_degrees"][1]
        with pytest.raises(GroupDataError, match="disagrees with Molien"):
            load_group(doc)

    def test_omitted_conj_perm_and_det_index_are_inferred(self):
        doc = group_to_doc(cyclic_group(4))
        del doc["conj_perm"], doc["det_index"]
        W = load_group(doc)
        assert W.conj_perm == (0, 3, 2, 1) == cyclic_group(4).conj_perm
        assert W.det_index == 1 == cyclic_group(4).det_index

    def test_table_not_closed_under_conjugation_names_the_group(self, tmp_path, capsys):
        # phi{2,1}, phi{2,2} of I2(5) mixed by the unitary matrix
        # ((1 + z)/2, (1 - z)/2; (1 - z)/2, (1 + z)/2), z = zeta_3: the rows stay
        # orthonormal with degree 2, but the conjugate of a mixed row is
        # another mix, which is not in the table
        W = dihedral_group(5)
        r1, r2 = W.irr[2], W.irr[3]
        a, b = (1 + zeta(3)) / 2, (1 - zeta(3)) / 2
        doc = group_to_doc(W)
        for row, (p, q) in ((2, (a, b)), (3, (b, a))):
            doc["characters"][row]["values"] = [to_literal(p * u + q * v) for u, v in zip(r1, r2)]
        del doc["conj_perm"]
        with pytest.raises(GroupDataError, match=r"^I2\(5\): character table is not closed"):
            load_group(doc)
        path = tmp_path / "unclosed.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "INVALID: I2(5): character table is not closed under complex conjugation\n"
        )


# (path into the document, new value or a function of the document)
MALFORMED = {
    "class word names generator 3 of 2": (("classes", 1, "word"), [1, 3]),
    "class word letter 0": (("classes", 3, "word"), [0]),
    "parabolic word names generator 7": (("parabolics", 0, "generators"), [[7]]),
    "1x1 generator at rank 2": (("generators", 0), lambda d: [[d["generators"][0][0][0]]]),
    "rank 3 with 2x2 generators": (("rank",), 3),
    "det_index 9": (("det_index",), 9),
    "conj_perm of length 3": (("conj_perm",), [0, 1, 2]),
    "conj_perm entry 7": (("conj_perm",), [0, 1, 2, 7]),
    "2 fake degrees for 4 characters": (("fake_degrees",), lambda d: d["fake_degrees"][:2]),
    "parabolic words do not match its generators":
        (("parabolics",), [{"name": "I2.5", "generators": [[1]]}]),
    "parabolic without a name": (("parabolics",), [{"generators": [[1]]}]),
    "order ten": (("order",), "ten"),
    "rank two": (("rank",), "two"),
    "mu one half": (("mu",), "1/2"),
    "mu zero": (("mu",), 0),
    "mu minus two": (("mu",), -2),
    "degree 2.5": (("degrees",), [2, "2.5"]),
    "schur element with mu 2":
        (("schur_elements", 0), lambda d: {**d["schur_elements"][0], "mu": 2}),
    "fake degree with mu 2": (("fake_degrees", 3), lambda d: {**d["fake_degrees"][3], "mu": 2}),
}


def _malformed(path, value):
    doc = group_to_doc(dihedral_group(5))
    *outer, key = path
    node = doc
    for step in outer:
        node = node[step]
    node[key] = value(doc) if callable(value) else value
    return doc


class TestMalformedIndices:
    """Indices that point outside what they index, integer fields that are
    not integers, and a mu that is not positive are rejected by name, not by
    an IndexError or a ValueError (or, for the letter 0, silently read as
    the last generator)."""

    @pytest.mark.parametrize("path,value", MALFORMED.values(), ids=MALFORMED.keys())
    def test_rejected_with_group_data_error(self, path, value, tmp_path, capsys):
        doc = _malformed(path, value)
        with pytest.raises(GroupDataError):
            load_group(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().out.startswith("INVALID: ")

    @pytest.mark.parametrize("key,i", [("schur_elements", 0), ("fake_degrees", 3)])
    def test_literal_mu_names_its_field(self, key, i, tmp_path, capsys):
        doc = _malformed((key, i), lambda d: {**d[key][i], "mu": 2})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"INVALID: malformed group document: {key}[{i}] has mu 2, the document has mu 1\n"
        )


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestZeroDenominator:
    """A literal with a zero denominator is a malformed document: validate
    prints its INVALID: line, the other commands their error: line, and
    both exit 1."""

    @pytest.mark.parametrize("where", ["schur term", "character value"])
    def test_rejected_with_a_line(self, where, tmp_path, capsys):
        doc = group_to_doc(cyclic_group(3))
        if where == "schur term":
            doc["schur_elements"][1]["terms"][0][1] = {"n": 3, "c": {"0": "1/0"}}
        else:
            doc["characters"][1]["values"][1] = "1/0"
        with pytest.raises(GroupDataError, match="zero denominator"):
            load_group(doc)
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(["validate", str(path)], capsys)
        assert code == 1 and out.startswith("INVALID: malformed group document: zero denominator")
        code, out, err = _run(["families", "--group", str(path)], capsys)
        assert code == 1 and out == "" and err.startswith("error: malformed group document: ")


class TestInexactLiteral:
    """A float or a boolean in a cyclotomic literal is malformed: JSON would
    give its binary approximation or 0 and 1 in place of an exact number."""

    CASES = {
        "float coefficient": {"n": 3, "c": {"0": 0.1}},
        "boolean coefficient": {"n": 3, "c": {"0": True}},
        "bare boolean": True,
    }

    @pytest.mark.parametrize("literal", CASES.values(), ids=CASES.keys())
    def test_rejected_with_a_line(self, literal, tmp_path, capsys):
        with pytest.raises(ValueError, match="malformed cyclotomic literal"):
            from_literal(literal)
        doc = group_to_doc(cyclic_group(3))
        doc["characters"][1]["values"][1] = literal
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(["validate", str(path)], capsys)
        assert code == 1 and out.startswith("INVALID: malformed group document: ")
        code, out, err = _run(["families", "--group", str(path)], capsys)
        assert code == 1 and out == "" and err.startswith("error: malformed group document: ")


class TestInexactInteger:
    """An integer field of a group document read from a float, a boolean, or
    a flag that is not a JSON boolean, is malformed: it would otherwise be
    truncated, read as 0 and 1, or read as true.  So is a string where a
    list belongs, which would be read character by character: each string
    below reads as the list it replaces."""

    CASES = {
        "order 10.7": (("order",), 10.7),
        "class word [true, 2.9]": (("classes", 1, "word"), [True, 2.9]),
        "class size true": (("classes", 0, "size"), True),
        "det_index true": (("det_index",), True),
        "induction matrix of floats and a boolean":
            (("parabolics", 0, "induction_matrix"), [[1.0, 0, 1.9, 1], [0, True, 1, 1]]),
        "parabolic word [1.0]": (("parabolics", 0, "generators"), [[1.0]]),
        "conj_perm entry 1.0": (("conj_perm",), [0, 1.0, 2, 3]),
        "rank 2.0": (("rank",), 2.0),
        "mu true": (("mu",), True),
        "degree 2.0": (("degrees",), [2.0, 5]),
        "spetsial \"false\"": (("spetsial",), "false"),
        "fake degree exponent 5.0": (("fake_degrees", 1, "terms", 0, 0), 5.0),
        "schur element mu 1.9": (("schur_elements", 0, "mu"), 1.9),
        "degrees string 25": (("degrees",), "25"),
        "class word string 12": (("classes", 1, "word"), "12"),
        "conj_perm string 0123": (("conj_perm",), "0123"),
        "character values string 1111": (("characters", 0, "values"), "1111"),
        "generator rows strings 01 and 10": (("generators", 0), ["01", "10"]),
        "parabolic words string 1": (("parabolics", 0, "generators"), "1"),
        "fake degree term string 01": (("fake_degrees", 0, "terms", 0), "01"),
    }

    @pytest.mark.parametrize("path,value", CASES.values(), ids=CASES.keys())
    def test_rejected_with_a_line(self, path, value, tmp_path, capsys):
        doc = _malformed(path, value)
        with pytest.raises(GroupDataError, match="^malformed group document: "):
            load_group(doc)
        path = tmp_path / "i25.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(["validate", str(path)], capsys)
        assert code == 1 and out.startswith("INVALID: malformed group document: ")
        code, out, err = _run(["families", "--group", str(path)], capsys)
        assert code == 1 and out == "" and err.startswith("error: malformed group document: ")

    @pytest.mark.parametrize("doc", [
        {"mu": 1, "terms": [[1.5, "1"]]}, {"mu": 1.9, "terms": [[1, "1"]]},
        {"mu": 1, "terms": [[True, "1"]]},
    ])
    def test_laurent_literal(self, doc):
        with pytest.raises(ValueError, match="is not an integer"):
            laurent_from_doc(doc)


class TestParabolicCycle:
    """A parabolic named by a file path is loaded from that file; a file
    reached again while it is being loaded is a cycle, rejected by name."""

    def _doc(self, parabolic):
        doc = group_to_doc(dihedral_group(4))
        doc["parabolics"][0]["name"] = str(parabolic)
        return doc

    def _assert_rejected(self, path, cycle, capsys):
        with pytest.raises(GroupDataError, match="cycle") as exc:
            load_group(path)
        assert str(exc.value) == "parabolics form a cycle: " + " -> ".join(map(str, cycle))
        code, out, _ = _run(["validate", str(path)], capsys)
        assert code == 1 and out == f"INVALID: {exc.value}\n"
        code, out, err = _run(["families", "--group", str(path)], capsys)
        assert code == 1 and out == "" and err == f"error: {exc.value}\n"

    def test_document_naming_itself(self, tmp_path, capsys):
        path = tmp_path / "self.json"
        path.write_text(json.dumps(self._doc(path)))
        self._assert_rejected(path, [path, path], capsys)

    def test_two_documents_naming_each_other(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(self._doc(b)))
        b.write_text(json.dumps(self._doc(a)))
        self._assert_rejected(a, [a, b, a], capsys)
        self._assert_rejected(b, [b, a, b], capsys)

    def test_parabolic_file_without_a_cycle_loads(self, tmp_path):
        z2 = tmp_path / "z2.json"
        z2.write_text(json.dumps(group_to_doc(cyclic_group(2))))
        path = tmp_path / "i24.json"
        path.write_text(json.dumps(self._doc(z2)))
        W = load_group(path)
        assert [P.subgroup.name for P in W.parabolics] == ["Z2", "Z2", "1"]
        assert [tuple(p) for p in families(W).parts] == [
            tuple(p) for p in families(dihedral_group(4)).parts
        ]

    def test_a_file_named_twice_is_loaded_once(self, tmp_path, monkeypatch):
        z2 = tmp_path / "z2.json"
        z2.write_text(json.dumps(group_to_doc(cyclic_group(2))))
        doc = group_to_doc(dihedral_group(4))
        for para in doc["parabolics"]:
            para["name"] = str(z2)
        path = tmp_path / "i24.json"
        path.write_text(json.dumps(doc))
        loads = []
        original = groups.load_group

        def counted(doc):
            loads.append(doc)
            return original(doc)

        monkeypatch.setattr(groups, "load_group", counted)
        W = groups.load_group(path)
        assert loads == [path, z2.resolve()]
        first, second, _trivial = W.parabolics
        assert first.subgroup is second.subgroup is groups.get_group(str(z2))


class TestCatalogBound:
    """A catalog group of order above ENUMERATION_BOUND is rejected before
    any of it is built, so a large n costs neither time nor memory."""

    def test_rejected_in_a_memory_limited_child(self):
        def limit():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        src = Path(groups.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "heckefam.cli", "families", "--group", "I2.25001"],
            env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=limit,
            capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "error: I2(25001): enumeration bound 50000 exceeded\n"

    def test_the_bound_itself_is_allowed(self):
        groups._check_order("I2(25000)", 2 * 25000)
        with pytest.raises(GroupDataError, match=r"^Z50001: enumeration bound 50000 exceeded$"):
            groups.cyclic_group(50_001)


class TestSchurElementRules:
    """Each Schur-element rule of validation is reached by its own message,
    through `load_group` and through `validate`."""

    CASES = {
        "one element for two characters":
            (lambda: {**z2_doc(), "schur_elements": z2_doc()["schur_elements"][:1]},
             "Z2: expected 2 Schur elements"),
        "c(1) != |W|/chi(1)":
            (lambda: z2_doc(c0={0: 1, 1: 1, 2: 1}), "Z2: c(phi{1,0})(1) != |W|/deg (got 3)"),
        "non-unit part, spetsial":
            (lambda: z2_doc(c0={0: "2/3", 1: "4/3"}), "Z2: c(phi{1,0}) has a non-unit part"),
        "non-unit part, not spetsial":
            (lambda: z2_doc(False, c0={0: "2/3", 1: "4/3"}),
             "Z2: c(phi{1,0}) has a non-unit part"),
        "spetsial P/c not Laurent":
            (lambda: z2_doc(c0={0: 1, 2: 1}, c1={0: 1, -2: 1}),
             "Z2: generic degree P/c is not a Laurent polynomial for phi{1,0}"),
        "spetsial y-exponent not divisible by mu":
            (lambda: z2_doc(mu=2, c0={0: 1, 1: 1}),
             "Z2: spetsial flag set but c(phi{1,0}) has y-exponents not divisible by mu"),
        # x + 1/x is unit-shaped (roots +-i) with value 2 at 1, but
        # 1/(x + 1/x) + 1/(1 + 1/x) != 1
        "symmetrizing-form gate":
            (lambda: z2_doc(False, c0={1: 1, -1: 1}),
             "Z2: symmetrizing-form gate sum deg/c != 1 fails"),
    }

    def test_the_documents_differ_from_a_valid_one_only_there(self):
        for doc in (z2_doc(), z2_doc(False), z2_doc(mu=2)):
            load_group(doc)

    @pytest.mark.parametrize("make,message", CASES.values(), ids=CASES.keys())
    def test_rule_named(self, make, message, tmp_path, capsys):
        doc = make()
        with pytest.raises(GroupDataError) as exc:
            load_group(doc)
        assert str(exc.value).startswith(message)
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(["validate", str(path)], capsys)
        assert code == 1 and out.startswith(f"INVALID: {message}")


class TestIngestedComputation:
    def test_families_from_external_file(self, tmp_path, capsys):
        doc = group_to_doc(dihedral_group(7))
        doc["name"] = "external-I27"
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["families", "--group", str(path), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["partition"]["parts"]) == 3
        assert all(s == "exact" for s in out["partition"]["status"])

    def test_ingested_engine_matches_builtin(self, tmp_path):
        W1 = dihedral_group(9)
        doc = group_to_doc(W1)
        path = tmp_path / "i29.json"
        path.write_text(json.dumps(doc))
        W2 = load_group(path)
        assert [tuple(p) for p in families(W2).parts] == [
            tuple(p) for p in families(W1).parts
        ]


G23_ENV = "HECKEFAM_G23_FILE"


@pytest.mark.skipif(
    not os.environ.get(G23_ENV),
    reason="data-conditional: no external G23 = W(H3) file supplied "
    f"(set {G23_ENV} to run)",
)
class TestG23DataConditional:
    def test_g23_has_seven_families(self):
        W = load_group(os.environ[G23_ENV])
        assert W.order == 120
        fam = families(W)
        assert len(fam.parts) == 7
