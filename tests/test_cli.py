import json

from hopfcyclic.cli import run


def test_validate_builtin_exit_zero():
    code, text = run(["validate", "kC2"])
    assert code == 0
    assert "PASS" in text


def test_validate_json_round_trip():
    code, text = run(["--format", "json", "validate", "kS3"])
    assert code == 0
    data = json.loads(text)
    assert data["summary"]["fail"] == 0
    assert json.loads(json.dumps(data)) == data


def test_unknown_input_exit_two():
    code, _ = run(["validate", "no-such-algebra"])
    assert code == 2


def test_galois_setup_builtin():
    code, text = run(["galois", "kS3/kC2"])
    assert code == 0
    assert "SKIP" in text and "flatness" in text


def test_homology_table():
    code, text = run(["homology", "kC2", "--theory", "hh", "--max-degree", "2"])
    assert code == 0
    assert "degree 0" in text


def test_homology_hc():
    code, text = run(["--format", "json", "homology", "kC2", "--theory", "hc",
                      "--max-degree", "2"])
    assert code == 0
    data = json.loads(text)
    assert data["tables"]["dimensions"] == {"degree 0": 2, "degree 1": 0, "degree 2": 2}


def test_isocheck_module_coalgebra():
    code, text = run(["isocheck", "kS3/kC2", "--theorem", "3.4", "--max-degree", "1"])
    assert code == 0


def test_isocheck_comodule_algebra():
    code, text = run(["isocheck", "H4/B", "--theorem", "3.7", "--max-degree", "1"])
    assert code == 0


def test_isocheck_normal_quotient_error_path():
    code, text = run(["isocheck", "kS3/kC2", "--theorem", "jara-stefan",
                      "--max-degree", "1"])
    assert code == 1
    assert "Hopf ideal" in text


def test_isocheck_normal_quotient_passes():
    code, text = run(["isocheck", "kS3/kC3", "--theorem", "jara-stefan",
                      "--max-degree", "1"])
    assert code == 0


def test_tor_command():
    code, text = run(["--format", "json", "tor", "H4", "--max-degree", "3"])
    assert code == 0
    data = json.loads(text)
    assert data["tables"]["tor_k_ad"] == {
        "degree 0": 2, "degree 1": 1, "degree 2": 1, "degree 3": 1}


def test_classical_frobenius_table():
    code, text = run(["classical", "--group", "S3", "--subgroup", "(12)",
                      "--op", "frobenius", "--chi", "trivial"])
    assert code == 0
    assert "class of e" in text


def test_classical_all_small():
    code, text = run(["classical", "--group", "S3", "--subgroup", "(12)",
                      "--op", "all", "--max-degree", "1"])
    assert code == 0


def test_determinism_byte_identical():
    argv = ["--format", "json", "homology", "kC2", "--theory", "hh",
            "--max-degree", "2", "--seed", "7"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second


def test_field_fp():
    code, text = run(["--field", "fp:5", "validate", "kC2"])
    assert code == 0


def test_field_fp_char_divides_order_still_valid_algebra():
    # kC2 over F2 is a valid Hopf algebra even if not semisimple
    code, _ = run(["--field", "fp:2", "validate", "kC2"])
    assert code == 0


def test_file_input(tmp_path):
    spec = {
        "name": "kC2-file",
        "field": {"type": "Q"},
        "dim": 2,
        "basis": ["e", "g"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
        "unit": ["1", "0"],
        "comult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
        "counit": ["1", "1"],
        "antipode": [[0, 0, "1"], [1, 1, "1"]],
    }
    path = tmp_path / "kc2.json"
    path.write_text(json.dumps(spec))
    code, text = run(["validate", str(path)])
    assert code == 0


def test_bad_file_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2}))
    code, _ = run(["validate", str(path)])
    assert code == 2


def test_galois_with_ideal_file(tmp_path):
    # the augmentation ideal of kC2, generated by g - e
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"generators": [["-1", "1"]]}))
    code, text = run(["galois", "kC2", "--ideal", str(path)])
    assert code == 0


def test_homology_with_subalgebra_file(tmp_path):
    # span{e, (12)} inside kS3 (basis order e,(23),(12),(123),(132),(13))
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"generators": [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0"],
    ]}))
    code, text = run(["--format", "json", "homology", "kS3",
                      "--subalgebra", str(path), "--max-degree", "1"])
    assert code == 0
    data = json.loads(text)
    # HH_0(H | B) collapses the class space: dim 3 for kS3 over kC2
    assert data["tables"]["dimensions"]["degree 0"] == 3


def test_timing_flag_included_only_on_request():
    _, no_timing = run(["--format", "json", "validate", "kC2"])
    assert "timing_seconds" not in json.loads(no_timing)
    _, with_timing = run(["--format", "json", "--timing", "validate", "kC2"])
    assert "timing_seconds" in json.loads(with_timing)


def test_bad_field_exit_two_with_message():
    for spec in ("fp:8", "fp:1", "fp:abc", "fp:-7", "fp:4000000000000000000000000"):
        code, text = run(["--field", spec, "validate", "kC2"])
        assert code == 2, spec
        assert f"bad field '{spec}'" in text


def test_field_large_prime_modulus():
    # 2^61 - 1: trial division never finished; Miller-Rabin is immediate
    code, text = run(["--format", "json", "--field", "fp:2305843009213693951",
                      "validate", "kC2"])
    assert code == 0
    assert json.loads(text)["params"]["field"] == "F2305843009213693951"


def test_hc_degree_cap_is_input_error():
    code, text = run(["homology", "kC2", "--theory", "hc", "--max-degree", "5"])
    assert code == 2
    assert "between 0 and 4" in text
    code, text = run(["--format", "json", "homology", "kC2", "--theory", "hc",
                      "--max-degree", "4"])
    assert code == 0
    assert json.loads(text)["tables"]["dimensions"]["degree 4"] == 2
    code, _ = run(["homology", "kC2", "--theory", "hh", "--max-degree", "5"])
    assert code == 0
