import io
import json

import pytest

from cfhankel.cli import main

FIB_TAIL = "1547934105600000000"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_catalog(tmp_path, capsys, name, *extra):
    code, out, _ = run(capsys, "catalog", name, *extra)
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    return path


class TestPipelines:
    def test_catalog_then_eval(self, tmp_path, capsys):
        path = write_catalog(tmp_path, capsys, "catalan", "--terms", "8")
        code, out, _ = run(capsys, "eval", "--cfraction", str(path), "--order", "5")
        assert code == 0
        assert json.loads(out) == {
            "coeffs": ["1", "1", "2", "5", "14", "42"],
            "order": 5,
        }

    def test_expand_constant_series_exact(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"coeffs": ["1", "0", "0", "0", "0"], "order": 4}))
        code, out, _ = run(capsys, "expand", "--series", str(path), "--exact")
        assert code == 0
        assert json.loads(out) == {"a": [], "q": [], "status": "terminated"}

    def test_expand_defaults_to_truncated(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"coeffs": ["1", "0", "0"], "order": 2}))
        code, out, _ = run(capsys, "expand", "--series", str(path))
        assert json.loads(out)["status"] == {"truncated": 2}

    def test_expand_from_stdin(self, capsys, monkeypatch):
        blob = json.dumps({"coeffs": ["1", "1", "2", "5", "14"], "order": 4})
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, _ = run(capsys, "expand", "--series", "-")
        assert code == 0
        decoded = json.loads(out)
        assert decoded["a"] == ["-1", "-1", "-1", "-1"]
        assert decoded["q"] == [1, 1, 1, 1]

    def test_hankel_oracle(self, tmp_path, capsys):
        path = tmp_path / "catalan.json"
        path.write_text(json.dumps({"coeffs": ["1", "1", "2", "5", "14"], "order": 4}))
        code, out, _ = run(capsys, "hankel", "--series", str(path), "--max-n", "2")
        assert code == 0
        assert json.loads(out) == {"max_n": 2, "transform": ["1", "1", "1"]}

    def test_closed_transform(self, tmp_path, capsys):
        path = write_catalog(tmp_path, capsys, "fibonacci-cf", "--terms", "8")
        code, out, _ = run(capsys, "closed", "--cfraction", str(path), "--max-n", "12")
        assert code == 0
        decoded = json.loads(out)
        assert decoded["dense"][-1] == FIB_TAIL
        assert decoded["convention"] == "sign-corrected"
        assert decoded["profile"][0] == {"n": 0, "value": "1", "multiplicity": 2}

    def test_compare_agrees(self, tmp_path, capsys):
        path = write_catalog(tmp_path, capsys, "fibonacci-cf", "--terms", "8")
        code, out, _ = run(capsys, "compare", "--cfraction", str(path), "--max-n", "12")
        assert code == 0
        decoded = json.loads(out)
        assert decoded["equal"] is True
        assert decoded["oracle"][-1] == FIB_TAIL

    def test_compare_as_printed_disagrees(self, tmp_path, capsys):
        path = write_catalog(tmp_path, capsys, "catalan", "--terms", "9")
        code, out, _ = run(
            capsys,
            "compare", "--cfraction", str(path), "--max-n", "4",
            "--convention", "as-printed",
        )
        assert code == 1
        assert json.loads(out)["equal"] is False

    def test_catalog_symbolic_gamma(self, capsys):
        code, out, _ = run(capsys, "catalog", "rogers-ramanujan", "--terms", "3")
        assert code == 0
        decoded = json.loads(out)
        assert decoded["a"] == [{"coeffs": ["0", "1"]}] * 3
        assert decoded["q"] == [1, 2, 3]

    def test_catalog_rational_gamma(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "rogers-ramanujan", "--gamma", "1/2", "--terms", "2"
        )
        assert json.loads(out)["a"] == ["1/2", "1/2"]

    def test_verify_reports_refutations(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 1
        decoded = json.loads(out)
        assert decoded["convention"] == "sign-corrected"
        verdicts = {c["id"]: c["verdict"] for c in decoded["claims"]}
        assert verdicts["ex2-hankel-all-ones"] == "confirmed"
        assert verdicts["ex4-value-depth-2"] == "refuted"


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "catalog", "catalan", "--wat")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 2

    def test_missing_required_option(self, capsys):
        code, _, _ = run(capsys, "eval", "--order", "3")
        assert code == 2

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "catalog", "motzkin")
        assert code == 3
        assert "error" in err

    def test_negative_ladder_exponent(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"a": ["1", "1"], "q": [3, 1], "status": "terminated"})
        )
        code, _, err = run(capsys, "closed", "--cfraction", str(path), "--max-n", "4")
        assert code == 3
        assert "negative" in err

    def test_insufficient_terms(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"coeffs": ["1", "1"], "order": 1}))
        code, _, _ = run(capsys, "hankel", "--series", str(path), "--max-n", "3")
        assert code == 3

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "expand", "--series", str(path))
        assert code == 2

    def test_zero_denominator_coefficient(self, capsys, monkeypatch):
        blob = json.dumps({"coeffs": ["1", "1/0", "2"]})
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, err = run(capsys, "hankel", "--series", "-", "--max-n", "1")
        assert code == 2
        assert out == "" and "zero denominator" in err

    def test_zero_denominator_gamma(self, capsys):
        code, out, err = run(capsys, "catalog", "rogers-ramanujan", "--gamma", "1/0")
        assert code == 2
        assert out == "" and "zero denominator" in err

    def test_negative_max_n(self, tmp_path, capsys):
        path = tmp_path / "catalan.json"
        path.write_text(json.dumps({"coeffs": ["1", "1", "2", "5", "14"], "order": 4}))
        code, out, _ = run(capsys, "hankel", "--series", str(path), "--max-n", "-3")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "q, status",
        [
            ([1.5, 2.9], "terminated"),
            ([True, 1], "terminated"),
            ([1, 2], {"truncated": True}),
            ([1, 2], {"truncated": 4.0}),
        ],
        ids=["float-exponents", "bool-exponent", "bool-order", "float-order"],
    )
    def test_non_integer_fraction_fields(self, tmp_path, capsys, q, status):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"a": ["1", "1"], "q": q, "status": status}))
        code, out, err = run(capsys, "closed", "--cfraction", str(path), "--max-n", "4")
        assert code == 2
        assert out == "" and "integer" in err

    def test_series_coeffs_must_be_a_list(self, capsys, monkeypatch):
        # a string used to be read character by character as 1, 1, 2, 5
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"coeffs": "1125"})))
        code, out, err = run(capsys, "hankel", "--series", "-", "--max-n", "1")
        assert code == 2
        assert out == "" and "must be a list" in err

    @pytest.mark.parametrize(
        "a, q",
        [([{"coeffs": "12"}], [1]), ("12", [1, 1]), (["1", "1"], "11")],
        ids=["polynomial-coeffs", "numerators", "exponents"],
    )
    def test_fraction_lists_must_be_lists(self, tmp_path, capsys, a, q):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"a": a, "q": q, "status": "terminated"}))
        code, out, err = run(capsys, "eval", "--cfraction", str(path), "--order", "3")
        assert code == 2
        assert out == "" and "must be a list" in err

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--order", "4"), ("closed", "--max-n", "4"), ("compare", "--max-n", "4")],
        ids=lambda argv: argv[0],
    )
    def test_negative_truncated_order(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"a": ["1", "1"], "q": [1, 1], "status": {"truncated": -5}}))
        code, out, err = run(capsys, argv[0], "--cfraction", str(path), *argv[1:])
        assert code == 2
        assert out == "" and "non-negative" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "expand", "--series", "/nonexistent/series.json")
        assert code == 2


class TestOutputStability:
    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write_catalog(tmp_path, capsys, "fibonacci-cf", "--terms", "6")
        _, first, _ = run(capsys, "closed", "--cfraction", str(path), "--max-n", "7")
        _, second, _ = run(capsys, "closed", "--cfraction", str(path), "--max-n", "7")
        assert first == second
