import json
from pathlib import Path

import pytest

from budget import Budget
from torickit import localization
from torickit.cli import main, parse_class
from torickit.examples import catalog, get_example
from torickit.gitdata import GITData
from torickit.localization import EquivClass


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_examples(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("conifold", "c2-diagonal", "p12", "kp2"):
        assert name in out
    assert "Atiyah flop" in out


def test_catalog_json(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--json")
    entries = json.loads(out)
    assert {e["name"] for e in entries} == {"conifold", "c2-diagonal", "p12", "kp2"}


def test_examples_round_trip():
    for entry in catalog():
        again = GITData.from_json(json.dumps(entry.data.to_json_dict()))
        assert again == entry.data


def test_validate_pass_and_fail(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "--example", "conifold")
    assert code == 0 and "pass" in out
    bad = tmp_path / "bad.json"
    bad.write_text('{"r": 1, "m": 2, "weights": [[1], [1]], "omega": ["-1"]}')
    code, out, _ = run_cli(capsys, "validate", "--data", str(bad))
    assert code == 1


def test_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "malformed.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", "--data", str(bad))
    assert code == 2 and "input error" in err
    code, _, err = run_cli(capsys, "validate", "--example", "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "euler")
    assert code == 2


def test_hrr_check_c2_diagonal(capsys):
    code, out, _ = run_cli(capsys, "hrr-check", "--example", "c2-diagonal", "--order", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert "5/12" in payload["lhs"] and "-1/12" in payload["lhs"]
    assert "1/240" in payload["rhs"]


def test_euler_command(capsys):
    code, out, _ = run_cli(capsys, "euler", "--example", "p12", "--class", "O(2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rational_after_clearing"] is True


def test_wallcross_conifold(capsys):
    code, out, _ = run_cli(capsys, "wallcross", "--example", "conifold", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["crepant"] is True
    assert payload["e"] == [1] and payload["wall"]["normal"] == [1]
    assert payload["wall"]["point"] == ["0"]
    assert payload["eta"] == [2, 2]
    assert payload["extended_weights"] == [[1, -1], [1, -1], [-1, 0], [-1, 0], [0, 1]]
    assert payload["loci"]["C~"] == [[1, 3], [1, 4], [2, 3], [2, 4]]


def test_windows_summary_and_lift(capsys):
    code, out, _ = run_cli(capsys, "windows", "--example", "conifold", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == [2, 2] and payload["window"] == [0, 2]
    code, out, _ = run_cli(capsys, "windows", "--example", "conifold", "--lift", "O(2)", "--json")
    payload = json.loads(out)
    assert payload["in_window"] is True
    assert sorted(payload["weights"]) == [0, 1, 1]


def test_fm_check_command(capsys):
    code, out, _ = run_cli(capsys, "fm-check", "--example", "conifold", "--L", "O(1)", "--M", "O(-1)")
    assert code == 0 and "MATCH" in out


def test_hrr_check_without_order_expands_through_degree_6(capsys):
    code, out, _ = run_cli(capsys, "hrr-check", "--example", "c2-diagonal", "--json")
    payload = json.loads(out)
    assert code == 0 and "O(deg 7)" in payload["lhs"] and "O(deg 7)" in payload["rhs"]


def test_fixed_points_json(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--example", "p12", "--json")
    rows = json.loads(out)
    assert code == 0
    assert rows == [
        {"delta": [1], "group_order": 1, "tangent_weights": {"2": ["-2", "1"]}},
        {"delta": [2], "group_order": 2, "tangent_weights": {"1": ["1", "-1/2"]}},
    ]


def test_wallcross_text_contains_rows(capsys):
    code, out, _ = run_cli(capsys, "wallcross", "--example", "conifold")
    assert code == 0
    assert "(1, 1, -1, -1, 0)" in out and "(-1, -1, 0, 0, 1)" in out


def test_windows_check_fm_flag(capsys):
    code, out, _ = run_cli(capsys, "windows", "--example", "kp2", "--check-fm", "O(2)", "O(1)", "--json")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_parse_class_forms(tmp_path):
    data = get_example("conifold").data
    assert parse_class(data, "O(-3)") == EquivClass.line(1, 4, (-3,))
    inline = '[{"u": [1], "s": [0,0,0,0], "coeff": 2}]'
    assert parse_class(data, inline) == EquivClass.line(1, 4, (1,), coeff=2)
    path = tmp_path / "cls.json"
    path.write_text(inline)
    assert parse_class(data, "@" + str(path)) == EquivClass.line(1, 4, (1,), coeff=2)
    with pytest.raises(Exception):
        parse_class(data, "O(x)")


def test_equivclass_json_round_trip():
    cls = EquivClass.line(1, 4, (1,), (0, 1, 0, 0), 2) - EquivClass.line(1, 4, (0,))
    again = EquivClass.from_json_list(1, 4, cls.to_json_list())
    assert again == cls


def test_on_wall_omega_exits_2(capsys):
    code, _, err = run_cli(capsys, "wallcross", "--example", "conifold", "--omega-plus", "0", "--omega-minus", "-1")
    assert code == 2 and err.startswith("input error:") and "wall" in err


def test_same_chamber_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "fm-check", "--example", "kp2", "--omega-plus", "1", "--omega-minus", "5/2",
                           "--L", "O(1)", "--M", "O(0)")
    assert code == 2 and err.startswith("input error:") and "same chamber" in err


def test_negative_order_exits_2(capsys):
    code, out, err = run_cli(capsys, "hrr-check", "--example", "c2-diagonal", "--order", "-3")
    assert code == 2 and "MATCH" not in out and err.startswith("input error:")


def test_wallcross_near_a_second_hyperplane(capsys, tmp_path):
    # a hyperplane of the extended data crosses the ray below the wall point
    # at t = 1/4000, so the resolution offset must stay under it
    path = tmp_path / "near.json"
    path.write_text('{"r": 2, "m": 4, "weights": [[1,0],[100,1],[100,-1],[-1,0]], "omega": ["1/20","1/10000"]}')
    code, out, err = run_cli(capsys, "wallcross", "--data", str(path), "--omega-plus", "1/20,1/10000",
                             "--omega-minus", "1/20,-1/10000", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["chambers"]["tilde"]["sample"] == ["1/20", "0", "-1/8000"]
    assert payload["loci"]["C~"] == [[1, 2, 3], [2, 3, 5]]


@pytest.mark.parametrize(
    "argv",
    [
        ["fm-check", "--L", "O(0)", "--M", "O(0)"],
        ["windows", "--check-fm", "O(0)", "O(0)"],
        ["windows", "--lift", "O(1)"],
    ],
    ids=["fm-check", "windows-check-fm", "windows-lift"],
)
def test_non_crepant_wall_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "noncrepant.json"
    path.write_text('{"r": 1, "m": 3, "weights": [[1], [1], [-1]], "omega": ["1"]}')
    code, out, err = run_cli(capsys, *argv, "--data", str(path), "--omega-plus", "1", "--omega-minus", "-1")
    assert code == 2 and out == "" and err.startswith("input error:") and "crepant" in err


@pytest.mark.parametrize(
    "argv, options",
    [
        (["windows", "--example", "conifold", "--lift", "O(2)", "--check-fm", "O(0)", "O(0)"], ["--lift", "--check-fm"]),
        (["validate", "--example", "conifold", "--data", "missing.json"], ["--example", "--data"]),
        (["wallcross", "--example", "conifold", "--window-base", "1"], ["--window-base"]),
    ],
    ids=["lift-with-check-fm", "example-with-data", "wallcross-window-base"],
)
def test_option_that_would_be_ignored_exits_2(capsys, tmp_path, argv, options):
    # each of these once exited 0 with one of the options unread
    argv = [str(tmp_path / a) if a == "missing.json" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert all(option in err for option in options) and "Traceback" not in err


def test_stability_condition_starting_with_minus_is_given_after_equals(capsys, tmp_path):
    # argparse reads "--omega-minus -1,1" as a missing value, so the rank-2
    # wall's omega_minus = (-1, 1) is written --omega-minus=-1,1
    path = tmp_path / "rank2.json"
    path.write_text('{"r": 2, "m": 5, "weights": [[1,-1],[1,-1],[-1,0],[-1,0],[0,1]], "omega": ["1","1"]}')
    code, out, err = run_cli(capsys, "wallcross", "--data", str(path), "--omega-plus", "1,1", "--omega-minus=-1,1", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["e"] == [1, 0] and payload["crepant"] is True


def test_euler_at_isotropy_order_200(capsys, tmp_path):
    # the fixed point {2,3} has |G| = 200
    path = tmp_path / "d100.json"
    path.write_text('{"r": 2, "m": 4, "weights": [[1,0],[100,1],[100,-1],[-1,0]], "omega": ["1/20","1/10000"]}')
    with Budget("D_100 euler", "CLI euler at |G| = 200", 10.0):
        code, out, err = run_cli(capsys, "euler", "--data", str(path), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["rational_after_clearing"] is True


def test_internal_invariant_failure_exits_3(capsys, monkeypatch):
    import torickit.wallcrossing as wallcrossing

    def broken(ext, cells_plus, cells_minus):
        raise AssertionError("side chamber does not reduce to the base quotient")

    monkeypatch.setattr(wallcrossing, "_verify_reductions", broken)
    code, out, err = run_cli(capsys, "wallcross", "--example", "conifold")
    assert code == 3 and out == ""
    assert err == "internal error: side chamber does not reduce to the base quotient\n"


@pytest.mark.parametrize(
    "text, failure",
    [
        ('{"r": 1, "m": 2, "weights": [[1], [1]], "omega": ["-1"]}', "the full index set is not an anticone"),
        ('{"r": 1, "m": 4, "weights": [[1], [1], [-1], [-1]], "omega": ["0"]}', "anticone {} does not span"),
    ],
    ids=["inadmissible", "conifold-on-wall"],
)
def test_fixed_points_rejects_invalid_data_like_euler(capsys, tmp_path, text, failure):
    path = tmp_path / "data.json"
    path.write_text(text)
    for command in ("fixed-points", "euler"):
        code, out, err = run_cli(capsys, command, "--data", str(path))
        assert code == 2 and out == ""
        assert err == "input error: invalid GIT data: %s\n" % failure


@pytest.mark.parametrize(
    "argv",
    [
        ["anticones", "--data", "{data}"],
        ["euler", "--example", "conifold", "--class", '[{{"u": [1.5]}}]'],
        ["euler", "--example", "conifold", "--class", '[{{"u": ["x"]}}]'],
        ["wallcross", "--example", "conifold", "--omega-plus", "abc"],
        # JSON true and false are not read as 1 and 0
        ["euler", "--example", "conifold", "--class", '[{{"u": [true]}}]'],
        ["euler", "--example", "conifold", "--class", '[{{"u": [1], "s": [0, 0, 0, false]}}]'],
        ["euler", "--example", "conifold", "--class", '[{{"u": [1], "coeff": true}}]'],
        # a zero denominator is a malformed number, not a division
        ["validate", "--data", "{zero_omega}"],
        ["wallcross", "--example", "conifold", "--omega-plus", "1/0", "--omega-minus", "-1"],
        ["euler", "--example", "p12", "--class", '[{{"u": ["1/0"]}}]'],
    ],
    ids=[
        "fractional-weight", "fractional-class", "non-numeric-class", "non-numeric-omega",
        "boolean-class-u", "boolean-class-s", "boolean-class-coeff",
        "zero-denominator-data", "zero-denominator-omega", "zero-denominator-class",
    ],
)
def test_malformed_number_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "data.json"
    path.write_text('{"r": 1, "m": 2, "weights": [[1.5], [2]], "omega": ["1"]}')
    zero_omega = tmp_path / "zero_omega.json"
    zero_omega.write_text('{"r": 1, "m": 2, "weights": [[1], [2]], "omega": ["1/0"]}')
    code, out, err = run_cli(capsys, *[a.format(data=path, zero_omega=zero_omega) for a in argv])
    assert code == 2 and out == "" and err.startswith("input error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--data", "{path}"], "cannot read data file: "),
        (["euler", "--example", "p12", "--class", "@{path}"], "cannot read class file: "),
    ],
    ids=["data-file", "class-file"],
)
def test_non_utf8_file_exits_2(capsys, tmp_path, argv, message):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"omega": ["\xff"]}')
    code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("input error: " + message) and "codec can't decode" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"r": true, "m": 2, "weights": [[1], [2]], "omega": ["1"]}',
        '{"r": 1, "m": 2, "weights": [[true], [2]], "omega": ["1"]}',
        '{"r": 1, "m": 2, "weights": [[1], [2]], "omega": [true]}',
    ],
    ids=["r", "weights", "omega"],
)
def test_boolean_git_data_exits_2(capsys, tmp_path, text):
    # a JSON true is not read as 1
    path = tmp_path / "data.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "validate", "--data", str(path))
    assert code == 2 and out == "" and err.startswith("input error:")


P1XP1 = '{"r": 2, "m": 4, "weights": [[1, 0], [1, 0], [0, 1], [0, 1]], "omega": ["1", "1"]}'


@pytest.mark.parametrize(
    "text, argv",
    [
        ('{"r": 1, "m": 2, "weights": "12", "omega": ["1"]}', ["validate"]),
        ('{"r": 2, "m": 2, "weights": ["10", "01"], "omega": "11"}', ["validate"]),
        ('{"r": 2, "m": 2, "weights": ["10", "01"], "omega": ["1", "1"]}', ["validate"]),
        ('{"r": 2, "m": 2, "weights": [[1, 0], [0, 1]], "omega": "11"}', ["validate"]),
        (P1XP1, ["euler", "--class", '[{"u": "12"}]']),
        (P1XP1, ["euler", "--class", '[{"u": [1, 2], "s": "0000"}]']),
    ],
    ids=["weights", "weight-rows-and-omega", "weight-rows", "omega", "class-u", "class-s"],
)
def test_json_string_where_list_is_required_exits_2(capsys, tmp_path, text, argv):
    # a JSON string is not read one character at a time: "12" is not [1, 2]
    path = tmp_path / "data.json"
    path.write_text(text)
    command, *rest = argv
    code, out, err = run_cli(capsys, command, "--data", str(path), *rest)
    assert code == 2 and out == "" and err.startswith("input error:")


def test_fixed_points_prints_group_order_without_enumerating_the_group(capsys, tmp_path, monkeypatch):
    # |G| = |det D_delta| = 20000 at the fixed point {2}: no Smith form and
    # no group element is needed to print it
    path = tmp_path / "data.json"
    path.write_text('{"r": 1, "m": 2, "weights": [[1], [20000]], "omega": ["1"]}')

    def refused(*args):
        raise AssertionError("the isotropy group was enumerated")

    monkeypatch.setattr(localization, "smith_normal_form", refused)
    with Budget("fixed-points |G|=20000", "isotropy order as a determinant", 0.5):
        code, out, err = run_cli(capsys, "fixed-points", "--data", str(path))
    assert (code, err) == (0, "")
    assert "|G|=20000" in out and "|G|=1" in out


GOLDEN = Path(__file__).parent / "golden"


def test_graded_series_golden(capsys):
    # --json output of euler and hrr-check on the built-in examples, keyed by
    # command line: pins how characters and graded pieces print
    produced = {}
    for example, class_args in (
        ("conifold", ["--class", "O(1)"]),
        ("kp2", ["--class", "O(1)"]),
        ("p12", ["--class", "O(1)"]),
        ("c2-diagonal", []),
    ):
        for command, extra in (("euler", []), ("hrr-check", ["--order", "2"])):
            argv = [command, "--example", example, *class_args, *extra, "--json"]
            code, out, _ = run_cli(capsys, *argv)
            produced[" ".join(argv)] = {"exit": code, "output": json.loads(out)}
    text = json.dumps(produced, indent=2, sort_keys=True) + "\n"
    assert text.encode("utf-8") == (GOLDEN / "graded_series.json").read_bytes()


def test_graded_series_golden_equal_sides_print_identically():
    # equal sides expand over one denominator, so they print the same string
    golden = json.loads((GOLDEN / "graded_series.json").read_text())
    checks = [case["output"] for argv, case in golden.items() if argv.startswith("hrr-check")]
    assert len(checks) == 4 and all(out["equal"] for out in checks)
    for out in checks:
        assert out["lhs"] == out["rhs"]


def _fm_golden_text(capsys) -> str:
    produced = {}
    for argv in (
        ["fm-check", "--example", "kp2", "--L", "O(1)", "--M", "O(0)", "--json"],
        ["fm-check", "--example", "conifold", "--L", "O(1)", "--M", "O(-1)", "--json"],
        ["windows", "--example", "kp2", "--check-fm", "O(1)", "O(0)", "--json"],
        ["windows", "--example", "conifold", "--check-fm", "O(1)", "O(-1)", "--json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        produced[" ".join(argv)] = {"exit": code, "output": json.loads(out)}
    return json.dumps(produced, indent=2, sort_keys=True) + "\n"


def test_fm_check_golden(capsys):
    # --json output of fm-check and windows --check-fm: pins how the two
    # collapsed localization characters print
    assert _fm_golden_text(capsys).encode("utf-8") == (GOLDEN / "fm_check.json").read_bytes()
