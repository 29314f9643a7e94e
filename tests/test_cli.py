import json

import pytest

from gtyangian import cli, drinfeld
from gtyangian.cli import main
from gtyangian.errors import PoleError


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_patterns_count(capsys):
    code, out = run_cli(capsys, ["patterns", "--m", "1", "--n", "1", "--weight", "1|0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 2
    assert doc["schema_version"] == 1
    assert doc["job"]["command"] == "patterns"


def test_patterns_zero_weight(capsys):
    code, out = run_cli(capsys, ["patterns", "--m", "2", "--n", "1", "--weight", "0,0|0"])
    assert code == 0
    assert json.loads(out)["result"]["count"] == 1


def test_patterns_not_covariant_exit2(capsys):
    code = main(["patterns", "--m", "2", "--n", "1", "--weight", "0,0|2"])
    assert code == 2


def test_malformed_shift_exit2(capsys):
    code = main(
        ["tame", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "1|0",
         "--shift", "0", "--shift", "x/y"]
    )
    assert code == 2


def test_tame_verdicts(capsys):
    code, out = run_cli(
        capsys,
        ["tame", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "1|0",
         "--shift", "0", "--shift", "1/2"],
    )
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "tame"
    code, out = run_cli(
        capsys,
        ["tame", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "1|0",
         "--shift", "0", "--shift", "0"],
    )
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "not_tame"


def test_verify_defrel_empty(capsys):
    code, out = run_cli(
        capsys,
        ["verify", "--suite", "defrel", "--m", "1", "--n", "1", "--weight", "2|1"],
    )
    assert code == 0
    assert json.loads(out)["result"]["violations"] == []


def test_drinfeld_trivial(capsys):
    code, out = run_cli(capsys, ["drinfeld", "--m", "1", "--n", "1", "--weight", "0|0"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["agree"] is True
    assert res["closed_form"]["P"] == {}
    assert res["closed_form"]["Q0"] == []


def test_skew_inadmissible_exit2(capsys):
    code = main(
        ["skew", "--m", "1", "--n", "1", "--weight", "2,1,0", "--mu", "0"]
    )
    assert code == 2


def test_skew_output(capsys):
    code, out = run_cli(
        capsys,
        ["skew", "--m", "1", "--n", "1", "--weight", "2,1,0", "--mu", "1"],
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dim"] == 4
    assert len(res["zeta"]) == 4


def test_byte_identical_output(capsys):
    argv = ["spectrum", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "1|0",
            "--shift", "0", "--shift", "1/2"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, list(argv))
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["patterns", "--m", "1", "--n", "1", "--weight", "1|0", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["result"]["count"] == 2


def test_r_flag_validation(capsys):
    code = main(
        ["skew", "--m", "1", "--n", "1", "--weight", "2,1,0", "--mu", "1", "--r", "2"]
    )
    assert code == 2


def test_xi_vectors(capsys):
    code, out = run_cli(
        capsys, ["xi", "--m", "1", "--n", "1", "--weight", "2,1,0", "--mu", "1"]
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dim"] == 4
    assert len(res["vectors"]) == 4
    for item in res["vectors"]:
        assert any(x != "0" for x in item["vector"])


def test_tensor_series_wire_format(capsys):
    from gtyangian.exact import RFMatrix

    code, out = run_cli(
        capsys,
        ["tensor", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "1|0",
         "--shift", "0", "--shift", "1/2"],
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dim"] == 4
    # wire format round-trips to the exact operator
    from gtyangian.glmod import build_module as bm
    from gtyangian.patterns import SuperShape
    from gtyangian.yangian import evaluation_action, tensor_action

    W = tensor_action(
        [
            evaluation_action(bm(SuperShape(1, 1), (1, 0)), 0),
            evaluation_action(bm(SuperShape(1, 1), (1, 0)), "1/2"),
        ]
    )
    for key, mat in W.t.items():
        data = res["t"][f"{key[0]},{key[1]}"]
        assert RFMatrix.from_json_dict(data) == mat


def test_noncross(capsys):
    code, out = run_cli(
        capsys,
        ["noncross", "--m", "1", "--n", "1", "--weight", "3|1", "--weight", "1|0"],
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["strong"] is True and res["arithmetic"] is True


def test_engine_pole_exit3(capsys, monkeypatch):
    # a direct Berezinian that fails at every point outlasts any honest pole count
    def pole(ym, u0):
        raise PoleError(f"pole at u = {u0}")

    monkeypatch.setattr(cli, "berezinian_direct_point", pole)
    code = main(["verify", "--suite", "berezinian", "--m", "1", "--n", "1",
                 "--weight", "1|0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("shift", ["-5", "-7", "-9"])
def test_berezinian_check_steps_past_poles(capsys, shift):
    # B(u) has a pole at u = -shift, one of the first check points 5, 7, 9
    code, out = run_cli(capsys, ["verify", "--suite", "berezinian", "--m", "1", "--n", "1",
                                 "--weight", "1|0", "--shift", shift])
    assert code == 0
    assert json.loads(out)["result"]["violations"] == []


@pytest.mark.parametrize("patch", [
    ("nullspace", lambda rows: []),  # no joint highest vector
    ("_eigen_series", lambda ym, vec: None),  # no kernel vector is an eigenvector
])
def test_missing_highest_vector_exit3(capsys, monkeypatch, patch):
    monkeypatch.setattr(drinfeld, *patch)
    code = main(["drinfeld", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "2|1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: ") and len(err.strip().splitlines()) == 1


def test_shared_parser_keeps_no_state(capsys):
    # a second call through the once-built parser must not see the first's lists
    _, first = run_cli(capsys, ["patterns", "--m", "1", "--n", "1", "--weight", "2|1"])
    _, second = run_cli(capsys, ["patterns", "--m", "1", "--n", "1", "--weight", "0|0"])
    assert json.loads(second)["job"]["weights"] == ["0|0"]
    assert json.loads(first)["result"]["count"] != json.loads(second)["result"]["count"]
