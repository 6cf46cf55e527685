import hashlib
import json

import numpy as np
import pytest

from hypcycles import bounds, cli, orbits, transform
from hypcycles.lorentz import CycleConfig
from hypcycles.orbits import fuchsian_generators, picard_generators


@pytest.fixture(scope="module")
def picard_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("gens") / "picard.json"
    path.write_text(json.dumps(picard_generators().to_json()))
    return str(path)


def _run(argv, capsys=None):
    rc = cli.main(argv)
    return rc


def test_transform_json_record(tmp_path):
    out = tmp_path / "t.json"
    rc = _run(["transform", "--d", "3", "--mu", "1", "--nu-re", "0",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    rec = obj["records"][0]
    assert rec["h_closed"] == pytest.approx(8 * (np.pi / 2) * 0.42102443824070833, rel=1e-9)
    assert rec["rel_err"] < 1e-6


def test_transform_respects_tol_override(tmp_path):
    out = tmp_path / "t.csv"
    rc = _run(["transform", "--d", "3", "--mu", "1", "--tol", "transform=1e-17",
               "--out", str(out)])
    assert rc == 1  # below achievable quadrature precision: documented failure
    assert "tolerances" in out.read_text().splitlines()[0]


def test_transform_passes_quad_tol(tmp_path, monkeypatch):
    seen = []
    real = cli.transform.selberg_transform_quadrature

    def spy(d, mu, nu, rel_tol=1e-9):
        seen.append(rel_tol)
        return real(d, mu, nu, rel_tol=rel_tol)

    monkeypatch.setattr(cli.transform, "selberg_transform_quadrature", spy)
    rc = _run(["transform", "--d", "3", "--mu", "1", "--tol", "quad=1e-7",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert seen == [1e-7]


def test_verify_passes_quad_tol(tmp_path, monkeypatch):
    seen = []
    real = cli.transform.selberg_transform_quadrature

    def spy(d, mu, nu, rel_tol=1e-9):
        seen.append(rel_tol)
        return real(d, mu, nu, rel_tol=rel_tol)

    monkeypatch.setattr(cli.transform, "selberg_transform_quadrature", spy)
    rc = _run(["verify", "--d", "3", "--mu", "1", "--tol", "quad=1e-7",
               "--out", str(tmp_path / "v.csv")])
    assert rc == 0
    assert seen == [1e-7, 1e-7, 1e-7, 1e-7]


def test_import_loads_no_scipy(fresh_python):
    code = ("import sys, hypcycles, hypcycles.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = fresh_python("-c", code, check=True).stdout
    assert out.strip() == "[]"


def test_import_adds_only_its_own_modules(fresh_python):
    # numpy.polynomial alone once added nine modules and about 1 MB to every
    # run's peak memory; on top of numpy, the package needs json and
    # dataclasses, and the CLI argparse
    code = ("import sys, numpy; before = set(sys.modules); import hypcycles, hypcycles.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = fresh_python("-c", code, check=True).stdout.split()
    allowed = {"hypcycles", "json", "_json", "dataclasses", "copy", "__future__",
               "argparse", "gettext"}
    assert "hypcycles.cli" in added
    assert [m for m in added
            if m not in allowed and not m.startswith(("hypcycles.", "json."))] == []


def test_count_loads_no_numpy_ma(tmp_path, picard_path, fresh_python):
    # numpy.ma adds about 0.5 MB to the peak memory and the count needs none of it
    code = ("import sys; from hypcycles import cli; "
            f"rc = cli.main(['count', '--gens', {picard_path!r}, '--max-len', '4', "
            f"'--out', {str(tmp_path / 'count.csv')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    out = fresh_python("-c", code, check=True).stdout
    assert out.strip() == "0 False"


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "verify.csv"
    rc = _run(["verify", "--d", "3", "--mu", "1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "constructor_group_residual,pass" in text
    assert "fail" not in text


@pytest.mark.parametrize("d", [4, 5])
def test_verify_runs_at_higher_d_without_gens(d, tmp_path):
    out = tmp_path / "verify.csv"
    assert _run(["verify", "--d", str(d), "--mu", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "cycle_distance_oracle,pass" in text and "fail" not in text
    # the bundled Picard set, moved to dimension d with its normal coordinate
    # last: T and S stay in the cycle subgroup and U leaves it, as at d = 3
    gens = cli._bundled_picard(d)
    assert gens.labels == ("T", "U", "S") and gens.d == d
    for n in range(2, d):
        cfg = cli.lorentz.CycleConfig(d, n)
        assert [bool(cli.lorentz.check_membership(g, "G0", cfg))
                for g in gens.matrices] == [True, False, True]


def test_verify_rejects_corrupt_generators(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "d": 3,
        "generators": [{"label": "X",
                        "matrix": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}],
    }))
    rc = _run(["verify", "--gens", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "generator 'X' is not in the identity component of SO(1,d)" in err


def test_delta_csv_and_determinism(tmp_path, picard_path):
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    for out in (out1, out2):
        rc = _run(["delta", "--gens", picard_path, "--d", "3", "--n", "2",
                   "--max-len", "4", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[2] == "word,word_length,M,N_u,Q_u,delta_u,dist"
    assert len(lines) > 10


def test_delta_empty_ball_exits_1(tmp_path, capsys):
    gens = tmp_path / "fuchsian.json"
    gens.write_text(json.dumps(fuchsian_generators().to_json()))
    for command in ("delta", "count"):
        rc = _run([command, "--gens", gens.as_posix(), "--max-len", "3"])
        assert rc == 1
        assert "no nontrivial classes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "delta"])
def test_generator_dimension_mismatch_exits_2_before_any_suite(command, picard_path,
                                                               monkeypatch, capsys):
    # verify's first suite draws random group elements: none may be drawn
    monkeypatch.setattr(cli.lorentz, "random_lorentz",
                        lambda *args: pytest.fail("a suite ran before the generator check"))
    assert _run([command, "--gens", picard_path, "--d", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: generator dimension 3 does not match --d 4\n"
    assert captured.out == ""


# sha256 of the CSV stdout; a change that moves these bytes says why
GOLDEN_CSV = {
    "delta": "0c026d21f2c89dcd2d2c197922b084112e85152c8de5c5725da0164a33227f00",
    "count": "fe361a105dd29202114f7d7834a1c883e9c241285ec700060770f75ff6284248",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CSV))
def test_orbit_csv_bytes_are_pinned(command, picard_path, capsys):
    assert _run([command, "--gens", picard_path, "--max-len", "6", "--u", "0.3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_CSV[command]


# sha256 of the stdout, CSV or JSON, of the commands that need no generator file
GOLDEN_CSV_ARGV = {
    "verify --d 3 --mu 1":
        "0aaf5514b2794ae971ab08878da7e3eb1a483f76276a51778e500ad1d1025027",
    # the embedded Picard set, two values of mu and the JSON writer
    "verify --d 4 --mu 1,2 --format json":
        "68ebfe640083441a171d8ff60c22915790144f9e6dd54905ac0ffc16c478582d",
    "transform --d 3 --mu 1,2 --nu-im 1":
        "00586d9ff3c2bea6d02f29a32ce4d74b6fd06ee7f8d65b5ff901d84d5d16bf5e",
    "transform --d 5 --mu 0.7 --nu-re 0.4 --format json":
        "c73fbcf03d3ddb9e6140f2ea466bdab6162372bee36858a55d69aded354541f6",
    "asymptote --d 3 --n 2 --mu 10,20,60":
        "29a66900a1c59fcf689eef50a817521d5b59da30d8f374959b03c89cd03233c4",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CSV_ARGV))
def test_csv_bytes_are_pinned(command, capsys):
    assert _run(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_CSV_ARGV[command]


def test_delta_requires_gens(capsys):
    rc = _run(["delta"])
    assert rc == 2
    assert "--gens" in capsys.readouterr().err


def test_count_reports_slope(tmp_path, picard_path):
    out = tmp_path / "count.json"
    rc = _run(["count", "--gens", picard_path, "--max-len", "5",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["slope"] <= 0.8
    assert obj["ordering_stat_min"] > 0
    counts = [p["count"] for p in obj["points"]]
    assert counts == sorted(counts)


def test_asymptote_properties(tmp_path):
    out = tmp_path / "a.json"
    rc = _run(["asymptote", "--d", "3", "--n", "2", "--mu", "10,20,30,40,50,60",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["properties"]["plateau_within_1pct"]
    assert obj["properties"]["envelope_below_1pct_of_main"]
    assert obj["properties"]["envelope_decreasing"]
    rows = obj["rows"]
    assert [r["mu"] for r in rows] == sorted(r["mu"] for r in rows)


def test_config_file_precedence(tmp_path, picard_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"d": 3, "max_word_length": 3,
                                   "generators_path": picard_path}))
    out1 = tmp_path / "c1.csv"
    rc = _run(["delta", "--config", str(cfgfile), "--out", str(out1)])
    assert rc == 0
    # the flag overrides the config file
    out2 = tmp_path / "c2.csv"
    rc = _run(["delta", "--config", str(cfgfile), "--max-len", "2", "--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() != out2.read_bytes()


# argv -> its RunConfig's fields that are not the defaults: a flag may stand
# before the command, a later --tol overrides an earlier one, and the flags
# override the config file CFG
PARSED = {
    "verify --d 4 --mu 1,2": {"d": 4, "mu_list": (1.0, 2.0)},
    "delta --gens g.json --max-len 5 --u 0.3": {"generators_path": "g.json",
                                               "max_word_length": 5, "u": (0.3,)},
    "count --gens g.json --n 2 --format json --out c.json": {
        "generators_path": "g.json", "format": "json", "output_path": "c.json"},
    "transform --d 5 --mu 0.7 --nu-re 0.4 --nu-im -1": {"d": 5, "mu_list": (0.7,),
                                                        "nu_re": 0.4, "nu_im": -1.0},
    "asymptote --d 4 --mu 10,20,60": {"d": 4, "mu_list": (10.0, 20.0, 60.0)},
    "--d 4 --mu 1 verify": {"d": 4},
    "transform --tol quad=1e-8 --tol coset=1e-9 --tol quad=1e-7": {
        "tolerances": {"quad": 1e-7, "coset": 1e-9}},
    "delta --config CFG": {"d": 4, "max_word_length": 3,
                           "tolerances": {"quad": 1e-8, "dist": 1e-9}},
    "delta --config CFG --max-len 2 --d 3 --tol quad=1e-6": {
        "max_word_length": 2, "tolerances": {"quad": 1e-6, "dist": 1e-9}},
}


@pytest.mark.parametrize("argv", sorted(PARSED))
def test_an_argv_parses_to_its_run_config(argv, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"d": 4, "max_word_length": 3,
                                   "tolerances": {"quad": 1e-8, "dist": 1e-9}}))
    expected = dict(PARSED[argv])
    expected["tolerances"] = {**cli.DEFAULT_TOLERANCES, **expected.get("tolerances", {})}
    args = cli._build_parser().parse_args(argv.replace("CFG", str(cfgfile)).split())
    assert cli._config_from_args(args) == cli.RunConfig(**expected)


def test_help_names_every_command_with_its_doc(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    for name, command in cli.COMMANDS.items():
        assert [name, command.__doc__.splitlines()[0]] in lines


@pytest.mark.parametrize("argv", [["nosuch"], [], ["--d", "3"]],
                         ids=["unknown", "none", "flag-only"])
def test_an_unknown_or_missing_command_exits_2_through_argparse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hypcycles") and "command" in err.splitlines()[-1]


def test_bad_tol_flag(capsys):
    rc = _run(["transform", "--tol", "junk"])
    assert rc == 2
    assert "NAME=VAL" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--mu", "abc"], ["--u", "1,x"], ["--mu", "1,,2"], ["--u", "1,"], ["--mu", ",1"],
], ids=["mu", "u", "mu-doubled-comma", "u-trailing-comma", "mu-leading-comma"])
def test_bad_number_list_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert f"argument {argv[0]}: expected comma-separated numbers" in err[-1]


@pytest.mark.parametrize("content", [
    [1, 2],
    {"tolerances": {"quad": "abc"}},
    {"mu_list": 2.0},
    {"tolerances": "abc"},
    {"tolerances": [["quad", 1e-7]]},
], ids=["list", "tol-value", "mu-list", "tol-string", "tol-pairs"])
def test_malformed_config_file_exits_2(content, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(content))
    rc = _run(["transform", "--config", str(cfgfile), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_tolerance_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"tolerances": {"transform": 1e-5, "quad": 1e-8}}))
    out = tmp_path / "t.csv"

    def header(*argv):
        assert _run(["transform", "--mu", "1", "--out", str(out), *argv]) == 0
        return out.read_text().splitlines()[0]

    assert header() == "# tolerances: transform=1e-06 quad=1e-09"
    assert header("--config", str(cfgfile)) == "# tolerances: transform=1e-05 quad=1e-08"
    assert header("--config", str(cfgfile), "--tol", "quad=1e-7") == \
        "# tolerances: transform=1e-05 quad=1e-07"


@pytest.mark.parametrize("argv, key", [
    (["delta", "--max-len", "4", "--u", "0.3"], None),
    (["count", "--max-len", "4"], "points"),
    (["transform", "--mu", "0.5,1,2", "--nu-im", "1"], "records"),
    (["asymptote", "--mu", "10"], "rows"),
], ids=["delta", "count", "transform", "asymptote"])
def test_csv_rows_equal_json_rows(argv, key, tmp_path, picard_path):
    if argv[0] in ("delta", "count"):
        argv = [*argv, "--gens", picard_path]
    csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
    rc_csv = _run([*argv, "--out", str(csv_out)])
    rc_json = _run([*argv, "--format", "json", "--out", str(json_out)])
    assert rc_csv == rc_json == 0
    lines = [line for line in csv_out.read_text().splitlines() if not line.startswith("#")]
    columns, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    obj = json.loads(json_out.read_text())
    records = obj if key is None else obj[key]
    assert len(rows) == len(records) > 0
    for row, rec in zip(rows, records):
        assert set(rec) == set(columns)
        # a float's repr reads back as the same float, so this is exact equality
        assert row == [rec[c] if isinstance(rec[c], str) else repr(rec[c]) for c in columns]


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("gens, message", [
    ("1", "cannot load generators"),
    ([1, 2], "a generator set is a JSON object"),
    ({**picard_generators().to_json(), "d": 3.7},
     "invalid generators: d must be a JSON integer, got 3.7"),
], ids=["json-number", "json-list-file", "json-d-3.7"])
def test_bad_generator_input_exits_2(gens, message, tmp_path, capsys):
    # --gens names a file; "1" is a path that does not exist, not JSON
    if not isinstance(gens, str):
        (tmp_path / "gens.json").write_text(json.dumps(gens))
        gens = str(tmp_path / "gens.json")
    assert _run(["delta", "--gens", gens]) == 2
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize("argv, message", [
    (["--config", "xml.json"], "format must be csv or json"),
    (["--config", "missing.json"], "cannot read config file"),
    (["--tol", "quad=abc"], "bad --tol value 'abc'"),
], ids=["config-format-xml", "config-unreadable", "tol-not-a-number"])
def test_unusable_config_or_tol_value_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xml.json").write_text(json.dumps({"format": "xml"}))
    assert _run(["transform", *argv, "--out", "t.csv"]) == 2
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.filterwarnings("error")
def test_a_mu_below_the_quadratures_range_exits_2_with_one_line(tmp_path, capsys):
    # the engine's "quad_family needs finite integration bounds" once came after two
    # RuntimeWarnings
    assert _run(["transform", "--d", "3", "--mu", "1e-300", "--out", str(tmp_path / "t.csv")]) == 2
    assert _one_error_line(capsys).startswith("error: mu must be large enough")
    assert not (tmp_path / "t.csv").exists()


def test_transform_runs_in_d_2(tmp_path):
    # transform never reads n, so no cycle dimension can block it
    out = tmp_path / "t.json"
    for extra in ([], ["--n", "1"]):
        assert _run(["transform", "--d", "2", "--mu", "1", "--format", "json",
                     "--out", str(out), *extra]) == 0
        rec = json.loads(out.read_text())["records"][0]
        # 2^d (pi/2mu)^((d-1)/2) K_0(1) at d = 2, mu = 1
        assert rec["h_closed"] == pytest.approx(4 * np.sqrt(np.pi / 2) * 0.42102443824070833,
                                                rel=1e-10)
        assert rec["rel_err"] < 1e-12


@pytest.mark.parametrize("command", ["delta", "count"])
@pytest.mark.parametrize("max_len, message", [
    ("13", "max_word_length must be in [1, 12], got 13"),
    ("0", "max_word_length must be in [1, 12], got 0"),
    ("-1", "max_word_length must be in [1, 12], got -1"),
], ids=["above-cap", "zero", "negative"])
def test_bad_max_len_exits_2(command, max_len, message, tmp_path, picard_path, capsys):
    out = tmp_path / "o.csv"
    assert _run([command, "--gens", picard_path, "--max-len", max_len, "--out", str(out)]) == 2
    err = _one_error_line(capsys)
    assert message in err
    # the CLI has no length_cap to pass, so its message must not offer one
    assert "length_cap" not in err
    assert not out.exists()


def test_verify_refuses_a_bad_max_len_before_any_check(tmp_path, monkeypatch, capsys):
    # the word ball's own rule refuses it, and the ball is built before the first draw
    monkeypatch.setattr(cli.lorentz, "random_lorentz", lambda *a: pytest.fail("a check ran"))
    out = tmp_path / "v.csv"
    assert _run(["verify", "--max-len", "0", "--out", str(out)]) == 2
    assert "max_word_length must be in [1, 12], got 0" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["transform", "--mu", "1"], ["asymptote", "--mu", "10"]],
                         ids=["transform", "asymptote"])
def test_commands_without_a_ball_ignore_max_len(argv, tmp_path):
    # as they ignore --n: only verify, delta and count build a word ball
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    assert _run([*argv, "--out", str(outs[0])]) == 0
    assert _run([*argv, "--max-len", "0", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_tolerance_name_exits_2(source, tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["transform", "--mu", "1", "--out", str(out)]
    if source == "flag":
        argv += ["--tol", "quadd=1e-3"]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tolerances": {"quadd": 1e-3}}))
        argv += ["--config", str(cfgfile)]
    assert _run(argv) == 2
    err = _one_error_line(capsys)
    assert "unknown tolerance 'quadd'" in err
    assert all(name in err for name in cli.DEFAULT_TOLERANCES)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["transform", "--mu", "0"], "mu_list must be positive (finite and positive only), got 0.0"),
    (["verify", "--mu", "0"], "mu_list must be positive (finite and positive only), got 0.0"),
    (["asymptote", "--mu", "-5"], "mu_list must be positive (finite and positive only), got -5.0"),
    (["transform", "--mu", "1,inf"], "mu_list must be positive (finite and positive only), got inf"),
    (["transform", "--mu", ","], "mu_list must hold at least one entry"),
    (["verify", "--mu", ","], "mu_list must hold at least one entry"),
    (["asymptote", "--mu", ","], "mu_list must hold at least one entry"),
    (["transform", "--d", "8"], "unsupported dimension d=8 (quadrature cost guard, d <= 6)"),
    (["delta", "--u", "1,2"], "u must be a direction of n-1 = 1 finite numbers"),
    (["count", "--u", "nan"], "u must be a direction of n-1 = 1 finite numbers"),
    (["asymptote", "--d", "3", "--n", "3", "--mu", "10"], "2 <= n <= d-1"),
    (["asymptote", "--mu", "61"], "mu_grid capped at 60, got 61.0"),
    (["count", "--n", "4"], "2 <= n <= d-1"),
    (["delta", "--n", "1"], "2 <= n <= d-1"),
    (["verify", "--n", "3"], "need d >= 3 and 2 <= n <= d-1, got d=3, n=3"),
    (["transform", "--d", "3", "--mu", "1", "--nu-re", "nan"], "nu_re must be finite, got nan"),
    (["asymptote", "--d", "3", "--n", "2", "--mu", "10", "--nu-re", "nan"],
     "nu_re must be finite, got nan"),
    (["transform", "--d", "3", "--mu", "1", "--nu-im", "inf"], "nu_im must be finite, got inf"),
    (["verify", "--d", "3", "--mu", "1", "--nu-re", "nan"], "nu_re must be finite, got nan"),
], ids=["transform-mu-0", "verify-mu-0", "asymptote-mu-neg", "mu-inf", "transform-mu-empty",
        "verify-mu-empty", "asymptote-mu-empty", "transform-d-8", "delta-u-too-long",
        "count-u-nan", "asymptote-n-3", "asymptote-mu-61", "count-n-4", "delta-n-1", "verify-n-3",
        "transform-nu-re-nan", "asymptote-nu-re-nan", "transform-nu-im-inf", "verify-nu-re-nan"])
def test_out_of_range_numbers_exit_2(argv, message, tmp_path, picard_path, capsys):
    out = tmp_path / "o.csv"
    if argv[0] in ("delta", "count"):
        argv = [*argv, "--gens", picard_path]
    assert _run([*argv, "--out", str(out)]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command, tol", [
    ("transform", "quad=nan"),
    ("verify", "gr=nan"),
    ("transform", "transform=inf"),
    ("transform", "quad=-1"),
])
def test_nonfinite_or_nonpositive_tolerance_exits_2(command, tol, tmp_path, capsys):
    # NaN passes a `t <= 0` test; it must be refused like a negative value
    out = tmp_path / "t.csv"
    assert _run([command, "--d", "3", "--mu", "1", "--tol", tol, "--out", str(out)]) == 2
    name, value = tol.split("=")
    assert (f"tolerance {name} must be positive (finite and positive only), got {float(value)!r}"
            in _one_error_line(capsys))
    assert not out.exists()


_ASYMPTOTE_BOX = bounds.BoxDomain(v_bounds=((0.0, 1.0),), r_bounds=(1.0, 2.0))


@pytest.mark.parametrize("argv, refusal", [
    ("count --max-len 13", lambda: orbits.ball_enumerate(picard_generators(), 13)),
    ("transform --d 8", lambda: transform.selberg_transform_quadrature(8, 1.0, 0j)),
    ("transform --d 1", lambda: transform.selberg_transform_quadrature(1, 1.0, 0j)),
    ("transform --nu-re 60", lambda: transform.selberg_transform_closed(3, 1.0, 60 + 0j)),
    ("asymptote --mu 61", lambda: bounds.rescaled_limit_shape(
        CycleConfig(3, 2), [1.0, 40.0, 60.0, 61.0], 0j, _ASYMPTOTE_BOX)),
    ("asymptote --nu-re 60", lambda: bounds.rescaled_limit_shape(
        CycleConfig(3, 2), [1.0, 40.0, 60.0], 60 + 0j, _ASYMPTOTE_BOX)),
    # once an OverflowError traceback from the box integral, exit 1
    ("asymptote --nu-re 600", lambda: bounds.rescaled_limit_shape(
        CycleConfig(3, 2), [1.0, 40.0, 60.0], 600 + 0j, _ASYMPTOTE_BOX)),
    ("delta --d 2", lambda: CycleConfig(2, 2)),
], ids=["count-max-len-13", "transform-d-8", "transform-d-1", "transform-nu-re-60",
        "asymptote-mu-61", "asymptote-nu-re-60", "asymptote-nu-re-600", "delta-d-2"])
def test_a_library_refusal_is_exit_2_with_the_librarys_message(argv, refusal, tmp_path,
                                                               picard_path, capsys):
    # the rule lives in the library alone: the CLI reports its ValueError as it is
    with pytest.raises(ValueError) as exc:
        refusal()
    argv = argv.split()
    if argv[0] in ("delta", "count"):
        argv += ["--gens", picard_path]
    out = tmp_path / "o.csv"
    assert _run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["count", "delta", "verify", "transform"])
@pytest.mark.parametrize("content, message", [
    ({"d": True}, "d must be an integer, got True"),
    ({"n": True}, "n must be an integer, got True"),
    ({"max_word_length": True}, "max_word_length must be an integer, got True"),
    ({"nu_re": False}, "nu_re must be a number, got False"),
    ({"mu_list": [True]}, "mu_list must be a list of numbers, got (True,)"),
    ({"tolerances": {"quad": True}}, "tolerance quad must be a number, got True"),
], ids=["d", "n", "max_word_length", "nu_re", "mu_list", "tolerance"])
def test_a_json_bool_is_no_number_in_a_config_file(command, content, message, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(content))
    assert _run([command, "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["transform", "verify"])
def test_a_mu_where_the_transform_underflows_runs(command, tmp_path, capsys):
    # both sides read 0.0 there: they compare nothing, so the run completes
    # with a gap of inf and fails its check
    out = tmp_path / "o.json"
    assert _run([command, "--mu", "1e300", "--format", "json", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    obj = json.loads(out.read_text())
    if command == "transform":
        rec = obj["records"][0]
        assert rec["h_closed"] == rec["h_quad"] == 0.0
        assert rec["rel_err"] == float("inf")
    else:
        check = next(c for c in obj["checks"] if c["check"] == "transform_agreement")
        assert check["status"] == "fail" and check["max_err"] == float("inf")
        assert [c["check"] for c in obj["checks"] if c["status"] == "fail"] == [
            "transform_agreement"]


def test_a_check_whose_errors_are_nan_fails(tmp_path, monkeypatch):
    # max() passes over a NaN: a check whose every error is NaN must not pass
    monkeypatch.setattr(cli.decompose, "dist_horospherical", lambda *args: float("nan"))
    out = tmp_path / "v.csv"
    assert _run(["verify", "--d", "3", "--mu", "1", "--out", str(out)]) == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r for r in rows if r[1] != "pass"] == [["distance_duality", "fail", "nan", "1e-10",
                                                    "200"]]
