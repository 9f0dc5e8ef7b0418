import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cfhankel import catalog, cli
from cfhankel.catalog import CATALOG_NAMES, Claim, VerificationReport
from cfhankel.closedform import Convention
from cfhankel.cli import SIZE_CEILING, main

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

    def test_values_past_the_int_digit_limit_round_trip(self, tmp_path, capsys):
        # with gamma = 10^100 the series reaches coefficients of more than
        # 4,300 digits, CPython's default int<->str limit
        path = write_catalog(tmp_path, capsys, "rogers-ramanujan", "--gamma", "1" + "0" * 100)
        code, series, _ = run(capsys, "eval", "--cfraction", str(path), "--order", "60")
        assert code == 0
        (tmp_path / "series.json").write_text(series)
        code, out, _ = run(capsys, "expand", "--series", str(tmp_path / "series.json"))
        assert code == 0
        fraction, back = json.loads(path.read_text()), json.loads(out)
        assert (back["a"], back["q"]) == (fraction["a"], fraction["q"])

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

    def test_verify_fails_on_an_inconsistent_convention(self, capsys, monkeypatch):
        # every catalog run refutes claims, so only a stubbed report can
        # show the convention check deciding the exit code on its own
        claims = (Claim("id", "example 1", [1], [1], "confirmed"),)
        for consistent, exit_code in ((True, 0), (False, 1)):
            report = VerificationReport(Convention.SIGN_CORRECTED, consistent, claims)
            monkeypatch.setattr(catalog, "verify_claims", lambda max_n: report)
            code, out, _ = run(capsys, "verify")
            assert code == exit_code
            assert json.loads(out)["convention_consistent"] is consistent


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

    def test_catalog_usage_errors(self, capsys):
        # a name or a --gamma the catalog does not have is bad input
        for argv, message in ((("nosuch",), "no catalog entry named 'nosuch'"),
                              (("rogers-ramanujan", "--gamma", "0"), "needs a nonzero gamma")):
            code, out, err = run(capsys, "catalog", *argv)
            assert (code, out) == (2, "")
            assert err.startswith("usage error: ") and message in err

    def test_negative_ladder_exponent(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"a": ["1", "1"], "q": [3, 1], "status": "terminated"})
        )
        code, _, err = run(capsys, "closed", "--cfraction", str(path), "--max-n", "4")
        assert code == 3
        assert "negative" in err

    @pytest.mark.parametrize("command", ["closed", "compare"])
    def test_past_a_truncated_window(self, tmp_path, capsys, monkeypatch, command):
        # Catalan extracted through x^8 or x^7 fixes h_0..h_4 or h_0..h_3
        # only; compare refuses before it expands the fraction or runs the
        # oracle, and the window's last entry is answered
        monkeypatch.setattr(cli, "evaluate", None)
        for order in (8, 7):
            window = order // 2
            path = tmp_path / f"catalan-{order}.json"
            path.write_text(json.dumps(
                {"a": ["-1"] * order, "q": [1] * order, "status": {"truncated": order}}))
            code, out, err = run(capsys, command, "--cfraction", str(path),
                                 "--max-n", str(window + 1))
            assert (code, out) == (3, ""), order
            assert f"reliable through order {order}" in err and f"n <= {window}" in err
            code, _, _ = run(capsys, "closed", "--cfraction", str(path), "--max-n", str(window))
            assert code == 0, order

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

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "command, head",
        [(("expand", "--series"), ""), (("hankel", "--max-n", "1", "--series"), '{"coeffs": ')],
        ids=["expand", "hankel"],
    )
    def test_deeply_nested_json(self, tmp_path, capsys, monkeypatch, source, command, head):
        # the decoder's recursion limit is hit while reading: bad input, not a bug
        blob = head + "[" * 100_000
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(blob)
            where = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(blob))
            where = "-"
        code, out, err = run(capsys, *command, where)
        assert (code, out) == (2, "")
        assert err.startswith("usage error:") and "nested too deeply" in err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--cfraction", "-", "--order"),
            ("hankel", "--series", "-", "--max-n"),
            ("closed", "--cfraction", "-", "--max-n"),
            ("compare", "--cfraction", "-", "--max-n"),
            ("catalog", "catalan", "--terms"),
            ("verify", "--max-n"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_size_above_the_ceiling(self, capsys, monkeypatch, argv):
        # refused while parsing: stdin is never read
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run(capsys, *argv, str(SIZE_CEILING + 1))
        assert code == 2
        assert out == "" and f"0..{SIZE_CEILING}" in err

    @pytest.mark.parametrize("command", ["closed", "compare"])
    def test_unknown_convention(self, capsys, monkeypatch, command):
        # refused while parsing: stdin is never read
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run(capsys, command, "--cfraction", "-", "--max-n", "2",
                             "--convention", "as-quoted")
        assert code == 2
        assert out == "" and "invalid choice: 'as-quoted'" in err
        assert "'as-printed', 'sign-corrected'" in err

    @pytest.mark.parametrize("text", ["1e30000000", "1.5", " 1", "1_0", "0x10", "1/-2", "\u0661"])
    def test_rational_must_be_p_over_q(self, capsys, monkeypatch, text):
        # Fraction reads all of these; "1e30000000" took a minute to decode
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"coeffs": ["1", text]})))
        code, out, err = run(capsys, "hankel", "--series", "-", "--max-n", "0")
        assert code == 2
        assert out == "" and "not a rational" in err

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise KeyError("boom\nsecond line")

        monkeypatch.setitem(cli._RUNNERS, "verify", broken)
        code, out, err = run(capsys, "verify")
        assert code == 3
        assert out == "" and err.startswith("internal error: KeyError(") and err.count("\n") == 1
        assert " at test_cli.py:" in err


def json_values():
    """Arbitrary JSON, with keys and strings the decoders look for."""
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
        st.sampled_from(["1", "-1", "2/3", "0", "1/0", "terminated", "x"]), st.text(max_size=3),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.sampled_from(["coeffs", "order", "a", "q", "status", "truncated"]),
                            inner, max_size=4),
        ),
        max_leaves=12,
    )


VALID_SCALARS = st.one_of(
    st.sampled_from(["1", "-1", "1/2", "-2/3", "0", "3"]),
    st.integers(-3, 3),
    st.lists(st.sampled_from(["0", "1", "-1", "1/2"]), max_size=3).map(lambda cs: {"coeffs": cs}),
)


def series_like(scalar, junk):
    coeffs = st.lists(scalar, max_size=6)
    return st.fixed_dictionaries(
        {"coeffs": st.one_of(coeffs.map(lambda cs: ["1", *cs]), coeffs, junk)},
        optional={"order": st.one_of(st.integers(-2, 6), junk)},
    )


def fraction_like(scalar, exponent, junk):
    terms = st.lists(st.tuples(scalar, exponent), max_size=4)
    truncated = st.integers(-1, 8).map(lambda n: {"truncated": n})
    return st.builds(
        lambda aq, status: {"a": [a for a, _ in aq], "q": [q for _, q in aq], "status": status},
        terms,
        st.one_of(st.just("terminated"), truncated, junk),
    )


def encodings(kind):
    """Valid encodings, encodings with arbitrary JSON mixed in, and arbitrary JSON."""
    junk = json_values()
    near_scalars = st.one_of(VALID_SCALARS, junk)
    if kind == "series":
        valid, near = series_like(VALID_SCALARS, st.nothing()), series_like(near_scalars, junk)
    else:
        valid = fraction_like(VALID_SCALARS, st.integers(1, 3), st.nothing())
        near = fraction_like(near_scalars, st.one_of(st.integers(-1, 3), junk), junk)
    return st.one_of(valid, near, junk)


SUBCOMMANDS = {
    "expand": (("expand", "--series", "-"), "series"),
    "expand-exact": (("expand", "--series", "-", "--exact"), "series"),
    "eval": (("eval", "--cfraction", "-", "--order", "6"), "fraction"),
    "hankel": (("hankel", "--series", "-", "--max-n", "2"), "series"),
    "closed": (("closed", "--cfraction", "-", "--max-n", "4"), "fraction"),
    "compare": (("compare", "--cfraction", "-", "--max-n", "3"), "fraction"),
}


class TestDecoderFuzz:
    """Arbitrary and near-valid JSON through every decoder: a verdict or a
    clean refusal, never an internal error."""

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_json_input(self, capsys, monkeypatch, name, data):
        argv, kind = SUBCOMMANDS[name]
        payload = data.draw(encodings(kind))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "internal error" not in err and "Traceback" not in err

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        name=st.one_of(st.sampled_from(CATALOG_NAMES), st.text(max_size=5)),
        gamma=st.one_of(st.none(), st.sampled_from(["2", "0", "1/0", "-1/3"]), st.text(max_size=4)),
        terms=st.one_of(st.integers(-2, 12).map(str), st.text(max_size=4)),
    )
    def test_catalog_arguments(self, capsys, name, gamma, terms):
        argv = ["catalog", name, "--terms", terms]
        if gamma is not None:
            argv += ["--gamma", gamma]
        code, _, err = run(capsys, *argv)
        assert code in (0, 2)
        assert "internal error" not in err and "Traceback" not in err


class TestOutputStability:
    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write_catalog(tmp_path, capsys, "fibonacci-cf", "--terms", "6")
        _, first, _ = run(capsys, "closed", "--cfraction", str(path), "--max-n", "7")
        _, second, _ = run(capsys, "closed", "--cfraction", str(path), "--max-n", "7")
        assert first == second
