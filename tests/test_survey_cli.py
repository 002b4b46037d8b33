import hashlib
import json

import pytest

from wrlat import survey_cli as cli
from wrlat.quartic_field import QuarticField, quartic_param_box


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_construct_cubic(capsys):
    code, out = run(capsys, ["cubic", "construct", "-m", "7"])
    assert code == 0
    assert "x^3 - x^2 - 2x + 1" in out
    assert "discriminant: 49" in out


def test_construct_quartic(capsys):
    code, out = run(capsys, ["quartic", "construct",
                             "-a", "1", "-b", "2", "-c", "1", "-d", "5"])
    assert code == 0
    assert "x^4 - 10x^2 + 5" in out
    assert "discriminant: 2000" in out
    assert "case: III" in out


def test_construct_invalid_exits_2(capsys):
    code = cli.main(["cubic", "construct", "-m", "12"])
    capsys.readouterr()
    assert code == 2


def test_decompose_examples(capsys):
    code, out = run(capsys, ["decompose", "--field", "quartic:1,2,1,5",
                             "--prime", "5", "--oracle"])
    assert code == 0
    assert "shape P^4" in out and "norm 5 exponent 4" in out
    assert "oracle agreement: yes" in out
    code, out = run(capsys, ["decompose", "--field", "quartic:1,2,1,5",
                             "--prime", "2"])
    assert "shape P^2" in out and "norm 4" in out
    code, out = run(capsys, ["decompose", "--field", "quartic:1,2,1,5",
                             "--prime", "3"])
    assert "shape inert" in out


def test_index_divisor_witnesses_decompose_and_scan(capsys):
    # 101 divides b = 404 and the cubic index 68863's |b|/3; both fields
    # need the splitting engine at p = 101
    code, out = run(capsys, ["decompose", "--field", "quartic:1,404,1,163217",
                             "--prime", "101", "--oracle"])
    assert code == 0
    assert "shape P1*P2*P3*P4" in out and "oracle agreement: yes" in out
    for spec in ("cubic:68863", "quartic:1,404,1,163217"):
        code, out = run(capsys, ["scan", "--fields", spec, "--norm-bound", "120"])
        assert code == 0, out
        assert "failures=0" in out.splitlines()[-1]


def test_decompose_bad_prime_exits_2(capsys):
    code = cli.main(["decompose", "--field", "cubic:7", "--prime", "6"])
    capsys.readouterr()
    assert code == 2


def test_decompose_internal_failure_exits_1_with_witness(capsys, monkeypatch):
    # a ValueError raised inside the library is an internal failure, not bad
    # input: exit 1, naming the field, the prime and the exception class
    def broken(field, p):
        raise ValueError("injected oracle failure")

    monkeypatch.setattr(cli, "stable_subspace_primes", broken)
    code = cli.main(["decompose", "--field", "quartic:1,2,1,5", "--prime", "5", "--oracle"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: quartic:1,2,1,5 p=5: ValueError: injected oracle failure" in err
    code = cli.main(["decompose", "--field", "quartic:1,2,1,7", "--prime", "5"])
    capsys.readouterr()
    assert code == 2


def test_field_spec_expansion():
    assert cli.expand_field_spec("cubic:7..40") == \
        ["cubic:7", "cubic:9", "cubic:13", "cubic:19", "cubic:31", "cubic:37"]
    ids = cli.expand_field_spec("quartic:box:1,6")
    assert ids == ["quartic:-1,1,1,2", "quartic:1,1,1,2",
                   "quartic:-1,1,2,5", "quartic:1,1,2,5",
                   "quartic:-1,2,1,5", "quartic:1,2,1,5"]
    odd = cli.expand_field_spec("quartic:box:1,6,odd")
    assert odd == ["quartic:-1,2,1,5"]
    mixed = cli.expand_field_spec("cubic:7;quartic:1,2,1,5")
    assert mixed == ["cubic:7", "quartic:1,2,1,5"]


def test_quartic_box_selector_matches_library_box():
    want = [QuarticField(*t).key for t in quartic_param_box(5, 40)]
    want += [QuarticField(*t).key for t in quartic_param_box(5, 40, odd_disc_only=True)]
    assert cli.expand_field_spec("quartic:box:5,40;quartic:box:5,40,odd") == want


def test_scan_json_roundtrip_and_determinism(capsys):
    argv = ["scan", "--fields", "cubic:7", "--norm-bound", "30", "--json"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    config, records, summary = cli.parse_json(out1)
    assert config["norm_bound"] == 30
    assert summary["records"] == len(records)
    assert records == sorted(
        records, key=lambda r: (r["field_id"], r["ideal_norm"], r["hnf"]))
    # round trip through the emitters
    assert cli.emit_json(config, records, summary) == out1
    assert cli.parse_csv(cli.emit_csv(records)) == records


# sha256 of the canonical JSON (sorted keys, no whitespace) of records +
# summary of this scan, pinned on the Fraction-based enumerator: faster
# paths must leave every scan record byte-identical
SCAN_GOLDEN_FIELDS = "cubic:91;cubic:7..60;quartic:-1,2,1,5;quartic:1,2,1,5"
SCAN_GOLDEN_SHA256 = "c8e15c1f33857751d3ce26b2d5d1b62b09a0fb27d1ba3edd63c12c68b5835c3f"


def test_scan_output_matches_golden_digest(capsys):
    code, out = run(capsys, ["scan", "--fields", SCAN_GOLDEN_FIELDS,
                             "--norm-bound", "500", "--json"])
    assert code == 0
    doc = json.loads(out)
    canon = json.dumps({"records": doc["records"], "summary": doc["summary"]},
                       sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == SCAN_GOLDEN_SHA256


def test_scan_csv_output(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code = cli.main(["scan", "--fields", "quartic:1,2,1,5", "--norm-bound",
                     "20", "--csv", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    text = out_path.read_text()
    records = cli.parse_csv(text)
    assert [r["ideal_norm"] for r in records] == [1, 4, 5, 19, 19, 19, 19, 20]
    wr4 = [r for r in records if r["ideal_norm"] == 4]
    assert wr4[0]["wr"] is True and wr4[0]["predicate"] is True
    assert wr4[0]["minimum"] == "16/1"


def test_scan_jobs_deterministic(capsys):
    argv1 = ["scan", "--fields", "cubic:7;cubic:9;cubic:13",
             "--norm-bound", "20", "--json"]
    code1, out1 = run(capsys, argv1)
    code2, out2 = run(capsys, argv1 + ["--jobs", "2"])
    assert code1 == code2 == 0
    c1, r1, s1 = cli.parse_json(out1)
    c2, r2, s2 = cli.parse_json(out2)
    assert r1 == r2


def test_scan_empty_range(capsys):
    code, out = run(capsys, ["scan", "--fields", "cubic:20..25",
                             "--norm-bound", "10", "--json"])
    assert code == 0
    _, records, summary = cli.parse_json(out)
    assert records == [] and summary["fields"] == 0


def test_crosscheck_command(capsys):
    code, out = run(capsys, ["crosscheck", "--fields", "cubic:7..40"])
    assert code == 0
    assert "0 failures" in out


def test_crosscheck_internal_failure_exits_1_with_witness(capsys, monkeypatch):
    # past field validation a library ValueError is an internal failure:
    # exit 1, naming the field and the exception class; a bad field id is
    # still bad input
    def broken(field):
        raise ValueError("injected crosscheck failure")

    monkeypatch.setattr(cli, "crosscheck_field", broken)
    code = cli.main(["crosscheck", "--fields", "cubic:7"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: cubic:7: ValueError: injected crosscheck failure" in err
    code = cli.main(["crosscheck", "--fields", "cubic:12"])
    capsys.readouterr()
    assert code == 2


def test_conjecture_builds_each_field_once(capsys, monkeypatch):
    # the odd-discriminant set comes from the scan's own field objects
    spec = "cubic:7..40;quartic:box:1,6"
    field_ids = cli.expand_field_spec(spec)
    parse = cli.parse_field_id
    built = []
    monkeypatch.setattr(cli, "parse_field_id", lambda fid: built.append(fid) or parse(fid))
    code, out = run(capsys, ["conjecture", "--fields", spec, "--norm-bound", "30", "--json"])
    assert sorted(built) == sorted(field_ids)
    _, _, summary = cli.parse_json(out)
    assert summary["odd_disc_fields"] == sum(parse(fid).disc % 2 for fid in field_ids) == 7
    assert code == 1 and summary["counterexamples"] and not summary["failures"]


def test_conjecture_conforming(capsys):
    # norms <= 30 in (-1,2,1,5): the WR primes above 5 and 11 appear; 5
    # divides 125 but 11 does not, so the scan reports a counterexample
    code, out = run(capsys, ["conjecture", "--fields", "quartic:-1,2,1,5",
                             "--norm-bound", "10"])
    assert code == 0
    assert "no counterexamples" in out
    code, out = run(capsys, ["conjecture", "--fields", "quartic:-1,2,1,5",
                             "--norm-bound", "30"])
    assert code == 1
    assert "COUNTEREXAMPLE" in out and "norm 11" in out


def test_conjecture_even_disc_expected_nonconforming(capsys):
    code, out = run(capsys, ["conjecture", "--fields", "quartic:1,2,1,5",
                             "--norm-bound", "500", "--jobs", "1"])
    assert code == 0
    assert "expected non-conforming (even disc): quartic:1,2,1,5 norm 484" in out


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": "cubic:7", "norm_bound": 10,
                               "format": "json"}))
    code, out = run(capsys, ["scan", "--config", str(cfg)])
    assert code == 0
    config, records, _ = cli.parse_json(out)
    assert config["norm_bound"] == 10
    assert all(r["field_id"] == "cubic:7" for r in records)


def test_missing_fields_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--norm-bound", "5"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["scan", "--fields", "cubic:7", "--norm-bound", "0"], "--norm-bound must be"),
    (["conjecture", "--fields", "cubic:7", "--norm-bound", "-3"], "--norm-bound must be"),
    (["scan", "--fields", "cubic:7", "--norm-bound", "10", "--jobs", "0"], "--jobs must be"),
    (["conjecture", "--fields", "cubic:7", "--norm-bound", "10", "--jobs", "-1"],
     "--jobs must be"),
], ids=["scan-bound-0", "conjecture-bound-negative", "scan-jobs-0", "conjecture-jobs-negative"])
def test_bad_bound_or_jobs_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_bad_values_from_config_file_are_usage_errors(capsys, tmp_path):
    for data, message in (({"norm_bound": 0}, "--norm-bound must be"),
                          ({"norm_bound": 10, "jobs": 0}, "--jobs must be")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(data, fields="cubic:7")))
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--config", str(missing)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read config file %s" % missing in err and "Traceback" not in err


def _fail_on(monkeypatch, field_id):
    scan = cli.scan_field

    def scan_field(field, norm_bound):
        if field.key == field_id:
            raise RuntimeError("injected scan failure")
        return scan(field, norm_bound)

    monkeypatch.setattr(cli, "scan_field", scan_field)


def test_text_mode_names_each_failed_field(capsys, monkeypatch):
    _fail_on(monkeypatch, "cubic:9")
    witness = "error: cubic:9: RuntimeError: injected scan failure"
    code = cli.main(["scan", "--fields", "cubic:7;cubic:9", "--norm-bound", "10"])
    captured = capsys.readouterr()
    assert code == 1 and "failures=1" in captured.out
    assert captured.err.splitlines() == [witness]
    code = cli.main(["conjecture", "--fields", "cubic:7;cubic:9", "--norm-bound", "10"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err.splitlines() == [witness]


def test_json_and_csv_keep_failures_off_stderr(capsys, monkeypatch):
    # the JSON summary carries the witness, and stderr stays empty in both
    # machine formats
    _fail_on(monkeypatch, "cubic:9")
    code = cli.main(["scan", "--fields", "cubic:7;cubic:9", "--norm-bound", "10", "--json"])
    captured = capsys.readouterr()
    _, records, summary = cli.parse_json(captured.out)
    assert code == 1 and not captured.err and summary["failures"] == [
        {"field_id": "cubic:9", "error": "RuntimeError: injected scan failure"}]
    assert {r["field_id"] for r in records} == {"cubic:7"}
    code = cli.main(["scan", "--fields", "cubic:7;cubic:9", "--norm-bound", "10", "--csv"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    assert {r["field_id"] for r in cli.parse_csv(captured.out)} == {"cubic:7"}
