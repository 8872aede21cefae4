import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import toricheight
from toricheight import exactnum
from oracles import hilbert_weight_enumerated
from toricheight.cli import main, pair_document, parse_pair_document, parse_weight_document, roof_to_json
from toricheight.exactnum import LogLinearNumber, Place, relevant_places
from toricheight.geomkernel import lattice_normalize
from toricheight.roof import roof_from_weight
from toricheight.toric import MonomialPair, chow_weight, weight_vector

LL = LogLinearNumber

# Python's integer-string digit bound came with 3.10.7
digit_bound = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer-string digit bound")

CUBIC_DOC = {
    "name": "cubic",
    "exponents": [[0], [1], [2], [3]],
    "coefficients": ["1", "4", "1/3", "1/2"],
}

HEXAGON_DOC = {
    "exponents": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]],
    "coefficients": ["2/5", "1", "4/3", "3", "3", "6"],
}


@pytest.fixture
def cubic_path(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHeight:
    def test_text(self, capsys, cubic_path):
        code, out, _ = run(capsys, "height", cubic_path)
        assert code == 0
        assert "7*log(2) + 3*log(3)" in out
        assert "8.14786" in out
        assert "inf: 2*log(2)" in out

    def test_symbolic(self, capsys, cubic_path):
        code, out, _ = run(capsys, "--format", "symbolic", "height", cubic_path)
        assert code == 0 and out.strip() == "7*log(2) + 3*log(3)"

    def test_decimal_bits(self, capsys, cubic_path):
        code, out, _ = run(capsys, "height", cubic_path, "--format", "decimal", "--bits", "64")
        assert code == 0 and out.strip().startswith("8.14786712992394624")

    def test_json_schema(self, capsys, cubic_path):
        code, out, _ = run(capsys, "--format", "json", "height", cubic_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == {"constant": "0", "2": "7", "3": "3"}
        assert doc["degree"] == 3 and doc["dim"] == 1 and doc["scale"] == 2
        assert doc["per_place"]["inf"]["value"] == {"constant": "0", "2": "2"}

    def test_all_units(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", "1"]}))
        code, out, _ = run(capsys, "--format", "symbolic", "height", str(path))
        assert code == 0 and out.strip() == "0"

    def test_plane_curve(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"exponents": [[0], [2], [3]], "coefficients": ["1", "3", "1"]}))
        code, out, _ = run(capsys, "--format", "symbolic", "height", str(path))
        assert code == 0 and out.strip() == "3*log(3)"


class TestOtherCommands:
    def test_error_bound_past_the_double_range(self, capsys, tmp_path):
        # H = 6 * 10^400 + 12: its certified error bound has no double, so it
        # is printed as a decimal string, rounded up; the JSON stays strict
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        path = tmp_path / "w.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "weights": ["1e400", "2"]}))
        code, out, _ = run(capsys, "--format", "json", "hilbert", str(path), "--degree", "3")
        doc = json.loads(out, parse_constant=reject)
        assert code == 0 and isinstance(doc["error"], str)
        value = 6 * 10**400 + 12
        assert abs(Fraction(doc["decimal"]) - value) <= Fraction(doc["error"]) < value // 10**20
        code, out, _ = run(capsys, "hilbert", str(path), "--degree", "3")
        assert code == 0 and f"error: {doc['error']}\n" in out and "inf" not in out
        # within the double range the bound stays a JSON number
        path.write_text(json.dumps({"exponents": [[0], [1]], "weights": ["1e300", "2"]}))
        code, out, _ = run(capsys, "--format", "json", "hilbert", str(path), "--degree", "3")
        assert code == 0 and isinstance(json.loads(out, parse_constant=reject)["error"], float)

    def test_error_bound_below_the_normal_range(self, capsys, cubic_path):
        # at 1000 bits the bound is a normal double; past it, where rounding
        # to nearest gave 0.0, it is a positive decimal string, rounded up
        for bits, kind in ((1000, float), (1100, str), (2000, str)):
            code, out, _ = run(capsys, "--format", "json", "--bits", str(bits), "height", cubic_path)
            doc = json.loads(out)
            assert code == 0 and isinstance(doc["error"], kind), bits
            with mpmath.workprec(2 * bits):
                value = 7 * mpmath.log(2) + 3 * mpmath.log(3)
                assert 0 < abs(value - mpmath.mpf(doc["decimal"])) <= mpmath.mpf(doc["error"]), bits
            assert all(isinstance(v["error"], kind) and Fraction(v["error"]) > 0 for v in doc["per_place"].values())

    def test_degree(self, capsys, cubic_path):
        code, out, _ = run(capsys, "degree", cubic_path)
        assert code == 0 and "degree: 3" in out

    def test_chow(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps(
                {"exponents": [[0], [1], [2], [3], [4], [5]], "weights": ["-3", "0", "1", "-1", "0", "-2"]}
            )
        )
        code, out, _ = run(capsys, "--format", "symbolic", "chow-weight", str(path))
        assert code == 0 and out.strip() == "-2"

    def test_hilbert(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "weights": ["0", "1"]}))
        code, out, _ = run(capsys, "--format", "symbolic", "hilbert", str(path), "--degree", "2")
        assert code == 0 and out.strip() == "3"

    def test_hnorm(self, capsys, cubic_path):
        code, out, _ = run(capsys, "--format", "symbolic", "hnorm", cubic_path, "--degree", "1")
        assert code == 0 and out.strip() == "0"

    def test_mixed_volume(self, capsys, tmp_path):
        path = tmp_path / "mv.json"
        path.write_text(
            json.dumps({"polytopes": [[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]]})
        )
        code, out, _ = run(capsys, "--format", "symbolic", "mixed-volume", str(path))
        assert code == 0 and out.strip() == "1"

    def test_mixed_integral(self, capsys, tmp_path):
        path = tmp_path / "mi.json"
        path.write_text(
            json.dumps(
                [
                    {"exponents": [[0], [1]], "weights": ["0", "1"]},
                    {"exponents": [[0], [1]], "weights": ["0", "-1"]},
                ]
            )
        )
        code, out, _ = run(capsys, "--format", "symbolic", "mixed-integral", str(path))
        assert code == 0 and out.strip() == "1"

    def test_multiheight(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(
            json.dumps(
                [
                    {"exponents": [[0], [1]], "coefficients": ["1/2", "4"]},
                    {"exponents": [[0], [1]], "coefficients": ["1/3", "1/2"]},
                ]
            )
        )
        code, out, _ = run(capsys, "--format", "symbolic", "multiheight", str(path))
        assert code == 0 and out.strip() == "4*log(2)"

    def test_orbits(self, capsys, cubic_path):
        code, out, _ = run(capsys, "--format", "json", "orbits", cubic_path)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["orbits"]) == 3


class TestCompose:
    def test_veronese_roundtrip(self, capsys, cubic_path, tmp_path):
        out_path = tmp_path / "v.json"
        code, _, _ = run(capsys, "compose", "veronese", cubic_path, "--degree", "2", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        pair, name = parse_pair_document(doc)
        assert pair.size == 10
        code, out, _ = run(capsys, "--format", "symbolic", "height", str(out_path))
        assert code == 0 and out.strip() == "28*log(2) + 12*log(3)"

    def test_join_stdout(self, capsys, cubic_path):
        code, out, _ = run(capsys, "compose", "join", cubic_path, cubic_path)
        assert code == 0
        pair, _ = parse_pair_document(json.loads(out))
        assert pair.n_ambient == 3 and pair.size == 8

    def test_image(self, capsys, cubic_path, tmp_path):
        img = tmp_path / "img.json"
        img.write_text(
            json.dumps(
                {"exponents": [[2, 0, 0, 0], [0, 2, 0, 0], [1, 1, 0, 0]], "coefficients": ["1", "1", "2"]}
            )
        )
        code, out, _ = run(capsys, "compose", "image", cubic_path, "--image", str(img))
        assert code == 0
        pair, _ = parse_pair_document(json.loads(out))
        assert pair.size == 3

    def test_roundtrip_document(self):
        pair = MonomialPair.make([(0, 1), (2, 3)], [Fraction(1, 2), 5])
        doc = pair_document(pair, "demo")
        back, name = parse_pair_document(doc)
        assert back == pair and name == "demo"


class TestPlot:
    def test_deterministic_svg(self, capsys, cubic_path, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "plot", cubic_path, "--place", "inf", "--out", str(a))[0] == 0
        assert run(capsys, "plot", cubic_path, "--place", "inf", "--out", str(b))[0] == 0
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert data.startswith(b"<?xml")
        assert b"polyline" in data  # the roof
        assert b"2*log(2)" in data  # symbolic labels

    def test_flat_roof(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", "1"]}))
        out = tmp_path / "u.svg"
        assert run(capsys, "plot", str(path), "--place", "inf", "--out", str(out))[0] == 0
        assert b"polyline" in out.read_bytes()

    @pytest.mark.parametrize("place", ["inf", "2", "3"])
    @pytest.mark.parametrize(
        "exponents, coefficients", [([[3]], ["6"]), ([[1], [1]], ["2", "3"])], ids=["single", "repeated"]
    )
    def test_one_exponent(self, capsys, tmp_path, exponents, coefficients, place):
        # a point domain: the lifted generators lie on one vertical line
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"exponents": exponents, "coefficients": coefficients}))
        out = tmp_path / "p.svg"
        code, stdout, err = run(capsys, "--format", "json", "plot", str(path), "--place", place, "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_bytes().startswith(b"<?xml")
        doc = json.loads(stdout)
        assert doc["domain"] == [[str(exponents[0][0])]] and len(doc["cells"]) == 1

    def test_2d(self, capsys, tmp_path):
        path = tmp_path / "sq.json"
        path.write_text(
            json.dumps(
                {"exponents": [[0, 0], [1, 0], [0, 1], [1, 1]], "coefficients": ["1", "2", "1/3", "5"]}
            )
        )
        out = tmp_path / "sq.svg"
        assert run(capsys, "plot", str(path), "--place", "2", "--out", str(out))[0] == 0

    @pytest.mark.parametrize(
        "doc, place, stdout_sha256, svg_sha256",
        [
            (CUBIC_DOC, "inf", "a90b79cc05b6faacf0cbcc09ba05330f6d2c8b9991c62f1207865d353bb4b36c",
             "c6fbcab47fbb078c47c5d363ad9f7a515444b0ca0830b480fdc0f37582f79282"),
            (CUBIC_DOC, "2", "b54e28fea04f419965476a585ab2948bae65f3864324945e0ff38cacab4cc68d",
             "bbd1ed0e7b787257fa400e3b1e0169bf3ee7ffbadb3ace51cce3e02f5d0af441"),
            (HEXAGON_DOC, "inf", "62596041cb855c0b347c5d14afebf41faebc0a802f90aee13d4508b15fd54c7a",
             "91d23f1ae1a4227389ab641a25f8090c6c27ba55620dde178f9f7d3350db2110"),
            (HEXAGON_DOC, "2", "37852579b2a65d70835b1aeef51501e5da409dea5c32107d1e28d17d7f7a8fe2",
             "497ccbc1847ef12bff95a6135aadcf86da75d90839418e3177b6c70b3e52f873"),
        ],
        ids=["cubic-inf", "cubic-2", "hexagon-inf", "hexagon-2"],
    )
    def test_pinned_bytes(self, capsys, tmp_path, doc, place, stdout_sha256, svg_sha256):
        # the order of each cell's vertices reaches both outputs; the
        # hexagon has four cells at each place
        path, out = tmp_path / "doc.json", tmp_path / "doc.svg"
        path.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "--format", "json", "plot", str(path), "--place", place, "--out", str(out))
        assert (code, err) == (0, "")
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(out.read_bytes()).hexdigest() == svg_sha256

    def test_unsupported_dimension(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(
            json.dumps({"exponents": [[0, 0, 0], [1, 1, 1]], "coefficients": ["1", "2"]})
        )
        code, _, err = run(capsys, "plot", str(path), "--place", "inf", "--out", str(tmp_path / "x.svg"))
        assert code == 2


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "height", str(path))
        assert code == 2 and "error" in err

    def test_zero_coefficient(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", "0"]}))
        assert run(capsys, "height", str(path))[0] == 2

    def test_lattice_violation(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"exponents": [[0], [2]], "weights": ["0", "1"]}))
        assert run(capsys, "chow-weight", str(path))[0] == 3

    def test_cap_exceeded(self, capsys, cubic_path):
        code, _, _ = run(capsys, "hnorm", cubic_path, "--degree", "9", "--cap", "10")
        assert code == 4

    def test_cap_env(self, capsys, cubic_path, monkeypatch):
        monkeypatch.setenv("TORIC_HEIGHT_CAP", "10")
        assert run(capsys, "hnorm", cubic_path, "--degree", "9")[0] == 4

    def test_cap_counts_table_entries(self, capsys, cubic_path, tmp_path):
        # sum_k (3k + 1) = 6,304 entries up to degree 64, where the
        # enumeration had C(67, 3) = 47,905 compositions
        code, out, _ = run(capsys, "--format", "symbolic", "hnorm", cubic_path, "--degree", "64", "--cap", "20000")
        assert code == 0 and out.strip() == "14175*log(2) + 6048*log(3)"
        # the segment needs about D^2 / 2 entries: refused before any work
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["3", "5"]}))
        started = time.monotonic()
        code, out, err = run(capsys, "hnorm", str(path), "--degree", "100000")
        assert time.monotonic() - started < 1
        assert code == 4 and out == "" and "--cap" in err and "TORIC_HEIGHT_CAP" in err

    def test_veronese_cap(self, capsys, cubic_path):
        # 20 monomials of degree 3 in the cubic's 4 coordinates
        code, out, err = run(capsys, "compose", "veronese", cubic_path, "--degree", "3", "--cap", "10")
        assert code == 4 and out == ""
        assert err.startswith("error: ") and "--cap" in err
        assert run(capsys, "compose", "veronese", cubic_path, "--degree", "3", "--cap", "20")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bits", "8", "height", "{cubic}"],
            ["height", "{cubic}", "--bits", "15"],
            ["--bits", "14400", "--format", "decimal", "height", "{cubic}"],
            ["hilbert", "{weights}", "--degree", "-1"],
            ["hnorm", "{cubic}", "--degree", "-2"],
            ["compose", "veronese", "{cubic}", "--degree", "0"],
            ["hnorm", "{cubic}", "--degree", "3", "--cap", "-1"],
            ["mixed-volume", "{one_triangle}"],
            ["mixed-volume", "{mixed_dims}"],
            ["mixed-integral", "{three_lines}"],
            ["mixed-integral", "{mixed_weights}"],
            ["plot", "{cubic}", "--place", "inf", "--out", "{cubic}/o.svg"],
            ["compose", "segre", "{cubic}", "{cubic}", "--out", "{cubic}/x.json"],
            ["height", "{bool_exponents}"],
            ["mixed-volume", "{bool_point}"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_input(self, capsys, tmp_path, argv):
        docs = {
            "cubic": CUBIC_DOC,
            "weights": {"exponents": [[0], [1], [2]], "weights": ["1", "0", "2"]},
            "one_triangle": {"polytopes": [[[0, 0], [1, 0], [0, 1]]]},
            "mixed_dims": {"polytopes": [[[0, 0], [1, 0], [0, 1]], [[0], [1]]]},
            "three_lines": {"weights": [{"exponents": [[0], [1]], "weights": ["0", "1"]}] * 3},
            "mixed_weights": {
                "weights": [
                    {"exponents": [[0], [1]], "weights": ["0", "1"]},
                    {"exponents": [[0, 0], [1, 0], [0, 1]], "weights": ["0", "1", "2"]},
                ]
            },
            "bool_exponents": {"exponents": [[True], [False]], "coefficients": ["1", "2"]},
            "bool_point": {"polytopes": [[[True]]]},
        }
        paths = {}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["height", "degree", "orbits", "mixed-volume"])
    def test_dimension_limit(self, capsys, tmp_path, command):
        simplex = [[0] * 7] + [[int(i == j) for i in range(7)] for j in range(7)]
        if command == "mixed-volume":
            doc = {"polytopes": [simplex] * 7}
        else:
            doc = {"exponents": simplex, "coefficients": ["1"] * 7 + ["2"]}
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert code == 5 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MAX_DIMENSION" in err

    def test_factorization_limit(self, capsys, tmp_path, monkeypatch):
        # 100000000000031 and 100000000000067 are prime
        n = 100000000000031 * 100000000000067
        path = tmp_path / "semiprime.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", f"1/{n}"]}))
        monkeypatch.setattr(exactnum, "MAX_RHO_STEPS", 1000)
        code, out, err = run(capsys, "height", str(path))
        assert code == 6 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(n) in err and "MAX_RHO_STEPS" in err

    def test_hard_coefficient_ends_promptly(self, capsys, tmp_path):
        path = tmp_path / "hard.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", str(1 + 10**135)]}))
        started = time.monotonic()
        code, _, err = run(capsys, "height", str(path))
        assert time.monotonic() - started < 10
        assert code == 0 or (code == 6 and err.count("\n") == 1)

    def test_primality_test_is_bounded(self, capsys, tmp_path):
        # a 3,376-digit Mersenne prime: one base-2 pass alone is past the count
        path = tmp_path / "mersenne.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", str(2**11213 - 1)]}))
        started = time.monotonic()
        code, out, err = run(capsys, "height", str(path))
        assert time.monotonic() - started < 1
        assert code == 6 and out == "" and "MAX_RHO_STEPS" in err
        code, out, err = run(capsys, "plot", str(path), "--place", str(2**11213 - 1), "--out", str(tmp_path / "o.svg"))
        assert code == 6 and out == "" and "MAX_RHO_STEPS" in err

    @pytest.mark.parametrize(
        "text",
        ["[" * 200000, pytest.param('{"exponents": [[0], [1]], "coefficients": [1, ' + "9" * 4400 + "]}", marks=digit_bound)],
        ids=["deep nesting", "long integer"],
    )
    def test_unreadable_json(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        started = time.monotonic()
        code, out, err = run(capsys, "height", str(path))
        assert time.monotonic() - started < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @digit_bound
    @pytest.mark.parametrize("coefficient", ["1e50000", "-1E-50000", "2.5e4300"])
    def test_exponent_notation_is_bounded(self, capsys, tmp_path, coefficient):
        # Fraction would build 10**e before any digit bound applies
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", coefficient]}))
        started = time.monotonic()
        code, out, err = run(capsys, "height", str(path))
        assert time.monotonic() - started < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(sys.get_int_max_str_digits()) in err and "PYTHONINTMAXSTRDIGITS" in err
        path.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", "1e4299"]}))
        assert run(capsys, "height", str(path))[0] == 0

    @digit_bound
    def test_exact_results_past_the_digit_bound(self, capsys, tmp_path):
        # inputs of 2,168 to 3,001 digits whose exact results have more than 4,300
        bound = sys.get_int_max_str_digits()
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"exponents": [[0], [1], [2]], "weights": ["0", f"1/{2**7200}", f"1/{3**4600}"]}))
        code, out, err = run(capsys, "--format", "json", "chow-weight", str(weights))
        assert code == 0 and err == "" and sys.get_int_max_str_digits() == bound
        value = chow_weight([(0,), (1,), (2,)], [0, Fraction(1, 2**7200), Fraction(1, 3**4600)])
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out)["value"] == {"constant": str(value)} and len(str(value)) > bound
        finally:
            sys.set_int_max_str_digits(bound)
        pair = tmp_path / "p.json"
        pair.write_text(json.dumps({"exponents": [[0], [1]], "coefficients": ["1", "7" * 3001]}))
        code, out, err = run(capsys, "compose", "veronese", str(pair), "--degree", "2")
        assert code == 0 and err == "" and sys.get_int_max_str_digits() == bound
        assert max(map(len, json.loads(out)["coefficients"])) > bound

    @pytest.mark.parametrize(
        "argv",
        [["height", "{cubic}"], ["plot", "{cubic}", "--place", "2", "--out", "{svg}", "--format", "json"]],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout(self, cubic_path, tmp_path, argv):
        # standard output is a pipe whose read end is already closed
        src = str(Path(toricheight.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        paths = {"cubic": cubic_path, "svg": str(tmp_path / "o.svg")}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from toricheight.cli import main; sys.exit(main())"]
                + [a.format(**paths) for a in argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err


def test_cli_import_leaves_sympy_out():
    src = str(Path(toricheight.__file__).parents[1])
    code = "import sys, toricheight.cli, toricheight; toricheight.relevant_places([6]); print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_json_height_leaves_mpmath_out(cubic_path):
    src = str(Path(toricheight.__file__).parents[1])
    # -S keeps site's own imports (typing among them) out of the count
    code = ("import sys; from toricheight.cli import main; code = main(['--format', 'json', 'height', sys.argv[1]]); "
            "print(*[m for m in ('mpmath', 'dataclasses', 'inspect', 'typing') if m in sys.modules], code, file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, cubic_path], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.stderr.split() == ["0"] and json.loads(proc.stdout)["symbolic"] == "7*log(2) + 3*log(3)"


@st.composite
def pair_documents(draw):
    n = draw(st.integers(1, 2))
    # a few distinct rows drawn with repetition: single monomials, repeated
    # exponents and point domains come up often
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=3))
    exponents = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
    coefficients = draw(
        st.lists(st.sampled_from(["1", "-1", "2", "1/3", "6", "-5/4", "12"]), min_size=len(exponents), max_size=len(exponents))
    )
    return {"exponents": exponents, "coefficients": coefficients}


RATIONALS = ["1", "-1", "2", "1/3", "6", "-5/4", "12", 3]
# booleans, non-rational strings and non-strings, all to be rejected
BAD_SCALARS = [True, False, "x", "1/0", "", 1.5, None, [1]]


@st.composite
def mixed_entries(draw):
    """Entries over 1-D or 2-D exponents, n+1 of them when well formed,
    each with at most 3 points and one value per point; sometimes
    malformed by a wrong entry count, a mixed dimension or a bad scalar."""
    # the well-formed choice comes first, where Hypothesis draws most often
    n = draw(st.integers(1, 2))
    count = draw(st.sampled_from([n + 1] * 9 + [n, n + 2]))
    scalar = st.sampled_from(RATIONALS)
    if draw(st.sampled_from([False] * 7 + [True])):
        scalar = st.sampled_from(RATIONALS + BAD_SCALARS)
    entries = []
    for _ in range(count):
        dim = draw(st.sampled_from([n] * 9 + [n + 1, n - 1]))
        size = draw(st.sampled_from([3, 2, 1]))
        coordinate = st.sampled_from([1, 0, 2])
        points = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=size, max_size=size))
        if draw(st.sampled_from([False] * 9 + [True])):
            points[0][:1] = [draw(st.sampled_from(BAD_SCALARS))]
        entries.append((points, draw(st.lists(scalar, min_size=len(points), max_size=len(points)))))
    return entries


def mixed_document(command, entries):
    """The entries as a document for ``command``: all but the first as
    polytopes, or each as a weight or pair document."""
    if command == "mixed-volume":
        return {"polytopes": [points for points, _ in entries[1:]]}
    if command == "mixed-integral":
        return {"weights": [{"exponents": p, "weights": v} for p, v in entries]}
    return {"pairs": [{"exponents": p, "coefficients": v} for p, v in entries]}


@st.composite
def hilbert_documents(draw, field):
    """Weight (``field="weights"``) or pair documents over 1-D or 2-D
    exponents with repeats, mostly on the full lattice; sometimes malformed
    by a bad scalar, a short value list or a missing field."""
    n = draw(st.integers(1, 2))
    point = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    exponents = draw(st.lists(point, min_size=1, max_size=3))
    if draw(st.sampled_from([True] * 4 + [False])):  # the origin and the unit vectors generate Z^n
        exponents += [[0] * n] + [[int(i == j) for i in range(n)] for j in range(n)]
    exponents = draw(st.permutations(exponents + draw(st.lists(st.sampled_from(exponents), max_size=2))))
    scalars = RATIONALS
    if draw(st.sampled_from([False] * 7 + [True])):
        scalars = RATIONALS + BAD_SCALARS + ["0"]
    values = draw(st.lists(st.sampled_from(scalars), min_size=len(exponents), max_size=len(exponents)))
    flaw = draw(st.sampled_from([None] * 9 + ["short", "missing"]))
    doc = {"exponents": exponents, field: values[:-1] if flaw == "short" else values}
    if flaw == "missing":
        del doc[field]
    return doc


def hnorm_enumerated(pair, d):
    coords, _, _ = lattice_normalize(pair.exponents)
    places = relevant_places(pair.coefficients)
    return sum((hilbert_weight_enumerated(coords, weight_vector(pair, v), d) for v in places), LogLinearNumber())


class TestFuzz:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        doc=pair_documents(),
        command=st.sampled_from(["plot", "height", "orbits"]),
        place=st.sampled_from(["inf", "2", "3"]),
        fmt=st.sampled_from(["text", "json"]),
    )
    def test_small_pairs_exit_cleanly(self, doc, command, place, fmt):
        # repeated exponents and single monomials included: every run ends
        # in an answer or a documented error exit, never an exception
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pair.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = ["--format", fmt, command, path]
            if command == "plot":
                argv += ["--place", place, "--out", os.path.join(tmp, "p.svg")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in {0, 2, 3, 4, 5}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["hilbert", "hnorm"]),
        data=st.data(),
        d=st.integers(0, 10),
        cap=st.integers(0, 60),
    )
    def test_hilbert_documents(self, command, data, d, cap):
        # exit 0 prints exactly the exhaustive enumeration's value
        doc = data.draw(hilbert_documents("weights" if command == "hilbert" else "coefficients"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--format", "symbolic", command, path, "--degree", str(d), "--cap", str(cap)])
        assert code in {0, 2, 3, 4}
        if code == 0 and command == "hilbert":
            exps, weights = parse_weight_document(doc)
            assert out.getvalue() == f"{hilbert_weight_enumerated(exps, weights, d)}\n"
        elif code == 0:
            assert out.getvalue() == f"{hnorm_enumerated(parse_pair_document(doc)[0], d)}\n"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(entries=mixed_entries())
    def test_mixed_documents_exit_cleanly(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            for command in ("mixed-volume", "mixed-integral", "multiheight"):
                path = os.path.join(tmp, f"{command}.json")
                with open(path, "w") as fh:
                    json.dump(mixed_document(command, entries), fh)
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, path])
                assert code in {0, 2, 3, 4, 5}


class TestRoofJson:
    def test_schema(self):
        pair = MonomialPair.make([(0,), (1,), (2,), (3,)], [1, 4, Fraction(1, 3), Fraction(1, 2)])
        roof = roof_from_weight(pair.exponents, weight_vector(pair, Place.infinite()))
        doc = roof_to_json(roof)
        assert {"domain", "cells", "generators"} <= set(doc)
        assert len(doc["generators"]) == 4
        assert all({"vertices", "gradient", "offset"} <= set(c) for c in doc["cells"])
        json.dumps(doc)  # serializable

    def test_plot_json_emits_roof_document(self, capsys, cubic_path, tmp_path):
        out = tmp_path / "c.svg"
        code = main(["--format", "json", "plot", cubic_path, "--place", "inf", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert len(doc["cells"]) == 2
        assert out.exists()
