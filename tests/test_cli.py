import json
import time

import pytest

from hopfcyclic.cli import run
from hopfcyclic.presets import HOPF_NAMES, PAIR_NAMES


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


def _kc2_spec():
    return {
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


def test_file_input(tmp_path):
    path = tmp_path / "kc2.json"
    path.write_text(json.dumps(_kc2_spec()))
    code, text = run(["validate", str(path)])
    assert code == 0


def _assert_bad_hopf_file(tmp_path, spec, detail, field=()):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    for argv in (["validate", str(path)], ["homology", str(path), "--max-degree", "1"],
                 ["galois", str(path)]):
        code, text = run(list(field) + argv)
        assert code == 2, (argv, text)
        assert "bad Hopf algebra file:" in text and detail in text, text


def test_hopf_file_mult_index_out_of_range_exit_two(tmp_path):
    # was accepted: validate reported 5 axiom failures, homology "counit is not H-linear"
    spec = _kc2_spec()
    spec["mult"][1] = [0, 1, 5, "1"]
    _assert_bad_hopf_file(tmp_path, spec, "mult index 5 outside 0..1")


def test_hopf_file_antipode_index_out_of_range_exit_two(tmp_path):
    # was an uncaught ShapeMismatch traceback
    spec = _kc2_spec()
    spec["antipode"][1] = [1, 7, "1"]
    _assert_bad_hopf_file(tmp_path, spec, "antipode index 7 outside 0..1")


def test_hopf_file_unit_length_mismatch_exit_two(tmp_path):
    # was exit 1 with "coad(...) fails: ['module unit']"
    spec = _kc2_spec()
    spec["unit"] = ["1", "0", "1"]
    _assert_bad_hopf_file(tmp_path, spec, "unit has length 3, expected dim 2")
    spec = _kc2_spec()
    spec["counit"] = ["1"]
    _assert_bad_hopf_file(tmp_path, spec, "counit has length 1, expected dim 2")


def test_hopf_file_zero_denominator_exit_two(tmp_path):
    # was an uncaught ZeroDivisionError traceback
    spec = _kc2_spec()
    spec["mult"][0] = [0, 0, 0, "1/0"]
    _assert_bad_hopf_file(tmp_path, spec, "zero denominator in '1/0'")


def test_hopf_file_denominator_divisible_by_p_exit_two(tmp_path):
    # "1/7" under --field fp:7 was an uncaught ZeroDivisionError traceback
    spec = _kc2_spec()
    spec["counit"] = ["1", "1/7"]
    _assert_bad_hopf_file(tmp_path, spec, "denominator of '1/7' is divisible by 7",
                          field=("--field", "fp:7"))


def test_hopf_file_dim_zero_exit_two(tmp_path):
    # validate crashed with IndexError; galois and homology exited 1 with
    # "counit of the class of 1 is not 1"
    spec = {"name": "empty", "dim": 0, "basis": [], "mult": [], "unit": [],
            "comult": [], "counit": [], "antipode": []}
    _assert_bad_hopf_file(tmp_path, spec, "dim must be at least 1, got 0")


def test_hopf_file_float_index_exit_two(tmp_path):
    # [1.5, 1, 0, "1"] was read as [1, 1, 0, "1"], and validate exited 0
    spec = _kc2_spec()
    spec["mult"][3] = [1.5, 1, 0, "1"]
    _assert_bad_hopf_file(tmp_path, spec, "mult row [1.5, 1, 0, '1'] has an index that is "
                                          "not an integer")


def test_hopf_file_bool_index_exit_two(tmp_path):
    # true was read as index 1
    spec = _kc2_spec()
    spec["comult"][1] = [True, 1, 1, "1"]
    _assert_bad_hopf_file(tmp_path, spec, "comult row [True, 1, 1, '1'] has an index that is "
                                          "not an integer")


def test_hopf_file_string_dim_exit_two(tmp_path):
    # "dim": "2" was read as 2
    spec = _kc2_spec()
    spec["dim"] = "2"
    _assert_bad_hopf_file(tmp_path, spec, "dim '2' is not an integer")
    spec["dim"] = True
    _assert_bad_hopf_file(tmp_path, spec, "dim True is not an integer")


def test_hopf_file_float_coefficient_exit_two(tmp_path):
    # 1.0 was read through str() as the fraction 1
    spec = _kc2_spec()
    spec["mult"][0] = [0, 0, 0, 1.0]
    _assert_bad_hopf_file(tmp_path, spec, "coefficient 1.0 is neither an integer nor a string")
    spec = _kc2_spec()
    spec["counit"] = [1, True]
    _assert_bad_hopf_file(tmp_path, spec, "coefficient True is neither an integer nor a string")


@pytest.mark.parametrize("key, row", [("mult", [1, 0, 1, "1"]), ("comult", [1, 1, 1, "1"]),
                                      ("antipode", [1, 1, "1"])])
def test_hopf_file_repeated_row_exit_two(tmp_path, key, row):
    # a repeated row was dropped (the last one kept) in mult and comult, and
    # summed in antipode
    spec = _kc2_spec()
    spec[key].append(row)
    _assert_bad_hopf_file(tmp_path, spec, f"{key} repeats the indices of row {row}")


def test_hopf_file_is_read_over_its_declared_field(tmp_path):
    # a kC2 file declaring F_2 read HH 2, 0, 0 over Q; now it reads the HH
    # of kC2 over F_2 unless --field overrides the declaration
    spec = _kc2_spec()
    spec["field"] = {"type": "Fp", "p": 2}
    path = tmp_path / "kc2_f2.json"
    path.write_text(json.dumps(spec))
    argv = ["homology", str(path), "--max-degree", "2"]
    declared, fp2, q = (json.loads(run(["--format", "json"] + field + argv)[1])
                        for field in ([], ["--field", "fp:2"], ["--field", "q"]))
    assert declared["params"]["field"] == "F2" and declared["tables"] == fp2["tables"]
    assert list(declared["tables"]["dimensions"].values()) == [2, 2, 2]
    assert q["params"]["field"] == "Q"
    assert list(q["tables"]["dimensions"].values()) == [2, 0, 0]
    # a built-in stays over Q
    assert json.loads(run(["--format", "json", "validate", "kC2"])[1])["params"]["field"] == "Q"


@pytest.mark.parametrize("field, detail", [
    ({"type": "Fp", "p": 4}, "modulus 4 is not prime"),
    ({"type": "Fp"}, "unknown field"),
    ({"type": "Fp", "p": "5"}, "unknown field"),
    ({"type": "R"}, "unknown field"),
    ("Q", "has no attribute"),
])
def test_hopf_file_bad_declared_field_exit_two(tmp_path, field, detail):
    spec = _kc2_spec()
    spec["field"] = field
    _assert_bad_hopf_file(tmp_path, spec, detail)


def test_generator_file_zero_denominator_exit_two(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [["-1", "1/0"]]}))
    for option in ("--ideal", "--subalgebra"):
        code, text = run(["galois", "kC2", option, str(path)])
        assert code == 2, option
        assert "bad ideal file: zero denominator in '1/0'" in text, text


@pytest.mark.parametrize("command", [["galois"], ["homology"], ["isocheck", "--theorem", "3.4"],
                                     ["spectral"]], ids=lambda argv: argv[0])
def test_a_builtin_pair_refuses_an_ideal_or_subalgebra_file(tmp_path, command):
    # was exit 0 on the preset pair, the file unread even when it did not exist
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [["0", "1"]]}))
    missing = tmp_path / "missing.json"
    for option, given in [("--ideal", str(missing)), ("--subalgebra", str(path))]:
        code, text = run([*command, "H4/B", option, given])
        assert code == 2, (option, text)
        assert f"the built-in pair 'H4/B' fixes B and C; give {option}" in text, text


_LOADER_ARGV = {
    "hopf": lambda path: ["validate", path],
    "ideal": lambda path: ["homology", "kS3", "--ideal", path],
    "group": lambda path: ["classical", "--group", path],
}


@pytest.mark.parametrize("content", ["directory", "not JSON", "not UTF-8"])
@pytest.mark.parametrize("loader", sorted(_LOADER_ARGV))
def test_unreadable_input_file_exit_two(tmp_path, loader, content):
    # was a traceback and exit 1 for a directory, and for the Hopf loader
    # also for a file that is not JSON or not UTF-8
    path = tmp_path / "input.json"
    if content == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"not json" if content == "not JSON" else b"\xff\xfe{}")
    code, text = run(_LOADER_ARGV[loader](str(path)))
    assert code == 2, text
    assert "ERROR" in text and "Traceback" not in text, text


def _assert_precondition_exit_two(tmp_path, option, generators, detail):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": generators}))
    for command in ("galois", "homology"):
        code, text = run([command, "kC2", option, str(path)])
        assert code == 2, (command, text)
        assert detail in text and "Traceback" not in text, text


def test_ideal_outside_counit_kernel_exit_two(tmp_path):
    # was exit 1: "construction [FAIL] ideal is not contained in the kernel of the counit"
    _assert_precondition_exit_two(tmp_path, "--ideal", [["1", "0"]],
                                  "--ideal file: ideal is not contained in the kernel of the counit")


def test_subalgebra_without_one_exit_two(tmp_path):
    # was exit 1: "construction [FAIL] subalgebra does not contain 1"
    _assert_precondition_exit_two(tmp_path, "--subalgebra", [["0", "1"]],
                                  "--subalgebra file: subalgebra does not contain 1")


def _broken_kc2_spec():
    # g.g = e + g: Delta and eps are no longer algebra maps
    spec = _kc2_spec()
    spec["mult"].append([1, 1, 1, "1"])
    return spec


def test_broken_hopf_file_is_not_blamed_on_a_good_ideal_file(tmp_path):
    # the zero ideal meets every hypothesis; the Hopf file is what is broken
    hopf_path, ideal_path = tmp_path / "hopf.json", tmp_path / "ideal.json"
    hopf_path.write_text(json.dumps(_broken_kc2_spec()))
    ideal_path.write_text(json.dumps({"generators": [["0", "0"]]}))
    for command in ("galois", "homology"):
        code, text = run([command, str(hopf_path), "--ideal", str(ideal_path)])
        assert code == 2, (command, text)
        assert "--ideal file" not in text and "bad Hopf algebra file" in text, text


@pytest.mark.parametrize("argv", [["galois"], ["homology", "--max-degree", "1"],
                                  ["isocheck", "--theorem", "3.4", "--max-degree", "1"],
                                  ["tor", "--max-degree", "1"], ["spectral"]],
                         ids=lambda a: a[0])
def test_hopf_file_breaking_an_axiom_exits_two_naming_it(tmp_path, argv):
    # was exit 1: "construction [FAIL] right action is not a module coalgebra structure"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_broken_kc2_spec()))
    code, text = run([argv[0], str(path)] + argv[1:])
    assert code == 2, text
    assert "axiom 'comultiplication is an algebra map' fails (witness (g, g))" in text, text
    assert "Traceback" not in text


def test_validate_reports_a_broken_axiom_as_a_failed_check(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_broken_kc2_spec()))
    code, text = run(["validate", str(path)])
    assert code == 1
    assert "comultiplication is an algebra map" in text and "bad Hopf algebra file" not in text


@pytest.mark.parametrize("error", ["Inconsistent", "ShapeMismatch"])
def test_linear_algebra_error_is_a_construction_failure(monkeypatch, error):
    # was an uncaught exception: run() caught only HopfError and NotWellDefined
    import hopfcyclic.cli as cli
    import hopfcyclic.linalg as linalg

    def fail(args, field):
        raise getattr(linalg, error)("solve: system has no solution")

    monkeypatch.setitem(cli.COMMANDS, "tor", fail)
    code, text = run(["tor", "kC2"])
    assert code == 1, text
    assert "[FAIL]" in text and "solve: system has no solution" in text, text
    assert "Traceback" not in text


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_running_out_of_memory_is_bad_input(monkeypatch, fmt):
    # was a MemoryError traceback with exit 1, the code of a failed check
    import hopfcyclic.cli as cli

    def exhaust(args, field):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "homology", exhaust)
    code, text = run(["--format", fmt, "homology", "kS3", "--max-degree", "5"])
    assert code == 2, text
    assert "out of memory" in text and "lower --max-degree" in text, text
    assert "Traceback" not in text and "[FAIL]" not in text, text


def _child(argv, cap_kb=None, script=None):
    """Run the CLI on ``argv`` (or ``script`` with ``argv``) in a child
    process, its address space capped at ``cap_kb`` by RLIMIT_AS, set in
    the child alone."""
    import os
    import subprocess
    import sys

    import hopfcyclic

    resource = pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(hopfcyclic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_kb * 1024, cap_kb * 1024))

    cmd = ["-c", script] if script else ["-m", "hopfcyclic.cli"]
    return subprocess.run([sys.executable, *cmd, *argv], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=cap if cap_kb else None)


def test_running_out_of_address_space_exits_two_without_a_traceback():
    """Under a cap between the import footprint and the run's peak, a run
    exits 2, naming the cause, with no traceback: it was exit 1 with a bare
    MemoryError when memory ran out again while the report was made, or a
    generator freed with the run's frames could not be closed."""
    import os

    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads VmPeak from /proc")
    argv = ["spectral", "kS3/k"]
    peak_of = ("import sys, hopfcyclic.cli as cli\n"
               "if sys.argv[1:]: cli.run(sys.argv[1:])\n"
               "print(open('/proc/self/status').read().split('VmPeak:')[1].split()[0])")
    footprint, peak = (int(_child(args, script=peak_of).stdout) for args in ([], argv))
    assert peak > footprint
    for k in range(1, 5):
        child = _child(argv, cap_kb=footprint + (peak - footprint) * k // 5)
        assert child.returncode == 2, (k, child.stdout, child.stderr)
        assert "out of memory" in child.stdout + child.stderr, (k, child.stdout, child.stderr)
        assert "Traceback" not in child.stdout + child.stderr, (k, child.stderr)


def test_galois_translation_map_failure_is_reported(monkeypatch):
    # a failing lift check used to escape as a construction failure and lose the report
    import hopfcyclic.cli as cli
    from hopfcyclic.hopf import HopfError

    def fail(h, b, c):
        raise HopfError("translation map depends on the choice of representatives")

    monkeypatch.setattr(cli, "translation_map", fail)
    code, text = run(["--format", "json", "galois", "kS3/kC2"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert checks["translation map independent of lift"] == {
        "name": "translation map independent of lift", "status": "fail",
        "detail": "translation map depends on the choice of representatives"}
    assert checks["cocanonical map bijective"]["status"] == "pass"


def test_validate_reports_a_failing_coadjoint_module_as_its_own_line(monkeypatch):
    # a failing coad(H) used to replace the whole report with "construction [FAIL]"
    import hopfcyclic.cli as cli
    from hopfcyclic.sayd import SaydError

    def fail(h):
        raise SaydError("coad fails: ['coaction is coassociative']")

    _, passing = run(["--format", "json", "validate", "kS3"])
    monkeypatch.setattr(cli, "coad_module", fail)
    code, text = run(["--format", "json", "validate", "kS3"])
    assert code == 1, text
    checks = json.loads(text)["checks"]
    want = json.loads(passing)["checks"]
    assert [c["name"] for c in checks] == [c["name"] for c in want]
    assert checks[:-1] == want[:-1]
    assert checks[-1] == {"name": "coadjoint coefficients SAYD", "status": "fail",
                          "detail": "coad fails: ['coaction is coassociative']"}


def test_classical_direct_picture_past_the_tuple_budget_exits_two(tmp_path):
    # C60 at degree 3 has 60^4 tuples per set: refused before enumerating them
    c60 = [[(a + b) % 60 for b in range(60)] for a in range(60)]
    code, text = _classical_on_group_file(
        tmp_path, {"name": "C60", "order": 60, "table": c60},
        "--subgroup", "all", "--op", "direct", "--max-degree", "3")
    assert code == 2, text
    assert "tuple budget exceeded" in json.loads(text)["error"]


@pytest.mark.parametrize("options, detail", [
    # each took 23 s, 32 s and over a minute before it was refused up front
    (["--op", "stabilizers", "--max-degree", "2"],
     "3600*60^2 = 12960000 stabilizer candidates at degree 1 is over the budget of 10000000"),
    # extended reads the dual picture one degree past its own
    (["--op", "extended", "--subgroup", "0"],
     "max(60^3, 60^3*60) = 12960000 coordinates at degree 2 is over the budget of 500000"),
    (["--op", "dual", "--subgroup", "0"],
     "max(60^3, 60^3*60) = 12960000 coordinates at degree 2 is over the budget of 500000"),
    # the coextension object's tables span 60^4 coordinates even where K is trivial
    (["--op", "direct", "--subgroup", "0", "--max-degree", "3"],
     "max(60*1^4, 60^4) = 12960000 coordinates at degree 3 is over the budget of 500000"),
], ids=["stabilizers", "extended", "dual", "direct"])
def test_classical_past_a_budget_exits_two_before_enumerating(tmp_path, options, detail):
    c60 = [[(a + b) % 60 for b in range(60)] for a in range(60)]
    start = time.monotonic()
    code, text = _classical_on_group_file(tmp_path, {"name": "C60", "order": 60, "table": c60},
                                          *options)
    assert code == 2, text
    assert json.loads(text)["error"] == f"tuple budget exceeded: {detail}"
    assert time.monotonic() - start < 2


def _c12_spec():
    """The group algebra of C12 as a Hopf algebra file."""
    n = 12
    return {
        "name": "kC12-file",
        "dim": n,
        "basis": [f"g{i}" for i in range(n)],
        "mult": [[i, j, (i + j) % n, "1"] for i in range(n) for j in range(n)],
        "unit": ["1"] + ["0"] * (n - 1),
        "comult": [[k, k, k, "1"] for k in range(n)],
        "counit": ["1"] * n,
        "antipode": [[(n - j) % n, j, "1"] for j in range(n)],
    }


@pytest.mark.parametrize("argv", [["homology", "--max-degree", "4"], ["tor", "--max-degree", "4"],
                                  ["isocheck", "--theorem", "3.4", "--max-degree", "4"],
                                  ["spectral"]],
                         ids=lambda argv: argv[0])
def test_past_the_coordinate_budget_exits_two(tmp_path, argv):
    # 12^6 = 2,985,984 coordinates, refused before any space is built: at
    # degree 4, and by spectral, whose double complex has cells C^(x)4 (x) H (x)
    # ad H of 12^6 coordinates although its absolute HH reaches only 12^5
    import hopfcyclic.cli as cli

    path = tmp_path / "kc12.json"
    path.write_text(json.dumps(_c12_spec()))
    code, text = run(["--format", "json", argv[0], str(path), *argv[1:]])
    assert code == 2, text
    error = json.loads(text)["error"]
    assert "12^6 = 2985984 coordinates" in error and str(cli.COORDINATE_BUDGET) in error


def test_classical_builds_the_dual_picture_once_to_the_degree_its_ops_read(monkeypatch):
    import hopfcyclic.classical as classical

    built = []

    def counted(setup, n_max):
        built.append(n_max)
        return module_coalgebra_transform(setup, n_max)

    module_coalgebra_transform = classical.module_coalgebra_transform
    monkeypatch.setattr(classical, "module_coalgebra_transform", counted)
    for op, n, degree in (("all", 2, 2), ("all", 0, 1), ("dual", 3, 2), ("extended", 3, 2),
                          ("frobenius", 3, 0), ("direct", 1, None)):
        built.clear()
        code, text = run(["classical", "--group", "S3", "--subgroup", "(12)", "--op", op,
                          "--max-degree", str(n)])
        assert code == 0, text
        assert built == ([] if degree is None else [degree]), (op, n)


def _subgroups(g):
    """Every subgroup of a built-in group: each is generated by two elements."""
    return {tuple(g.subgroup_closure([x, y])) for x in g.elements() for y in g.elements()}


def test_chi_sign_is_the_sign_of_k_permuting_itself():
    from hopfcyclic.cli import _resolve_chi
    from hopfcyclic.groups import BUILTIN_GROUPS, builtin_group, subgroup_as_group
    from hopfcyclic.linalg import QQ

    for name in BUILTIN_GROUPS:
        g = builtin_group(name)
        for sub in _subgroups(g):
            k = subgroup_as_group(g, list(sub))
            chi = _resolve_chi(g, list(sub), "sign")
            for x in k.elements():
                for y in k.elements():
                    assert chi.at(k.mul(x, y)) == chi.at(x) * chi.at(y), (name, sub, x, y)
    # on C4, g is one 4-cycle, an odd permutation, and g^2 two 2-cycles, an even one
    c4 = builtin_group("C4")
    assert _resolve_chi(c4, list(c4.elements()), "sign").values == [
        QQ.one, QQ.from_int(-1), QQ.one, QQ.from_int(-1)]


def test_classical_bad_chi_exit_two():
    # "1/0" was a ZeroDivisionError traceback, "abc" a ValueError traceback
    for chi, detail in (("1/0", "zero denominator in '1/0'"), ("abc", "bad --chi 'abc'")):
        code, text = run(["classical", "--group", "S3", "--subgroup", "(12)",
                          "--op", "frobenius", "--chi", chi])
        assert code == 2, chi
        assert detail in text, text


def test_classical_chi_of_wrong_length_exit_two():
    # (12) generates a subgroup with two classes, so three values are bad input
    code, text = run(["classical", "--group", "S3", "--subgroup", "(12)",
                      "--op", "frobenius", "--chi", "1,1,1"])
    assert code == 2, text
    assert "wrong number of class values" in text, text


def test_classical_induction_routes_disagreeing_is_a_failed_check(monkeypatch):
    # was a hard-coded PASS line, and the GroupError exited 2 as bad input
    import hopfcyclic.cli as cli
    from hopfcyclic.groups import GroupError

    def fail(g, sub, chi, picture):
        raise GroupError("induction routes disagree at class 1")

    monkeypatch.setattr(cli, "induce_class_function", fail)
    code, text = run(["--format", "json", "classical", "--group", "S3", "--subgroup", "(12)",
                      "--op", "frobenius"])
    assert code == 1, text
    report = json.loads(text)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["three induction routes agree"] == {
        "name": "three induction routes agree", "status": "fail",
        "detail": "induction routes disagree at class 1"}
    assert "induced_character" not in report["tables"]
    assert checks["class functions extended quotient of a point counts classes"]["status"] == "pass"


def test_classical_reciprocity_checks_the_reported_induced_function(monkeypatch):
    # reciprocity must check the induced function the report shows, not a fresh one
    import hopfcyclic.cli as cli
    from hopfcyclic.classical import induce_class_function
    from hopfcyclic.groups import ClassFunction

    def doubled(g, sub, chi, picture):
        true = induce_class_function(g, sub, chi, picture)
        return ClassFunction(g, [v + v for v in true.values], true.field)

    monkeypatch.setattr(cli, "induce_class_function", doubled)
    code, text = run(["--format", "json", "classical", "--group", "S3", "--subgroup", "(12)",
                      "--op", "frobenius"])
    assert code == 1, text
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert checks["three induction routes agree"]["status"] == "pass"
    assert checks["reciprocity reciprocity vs irreducible 0"]["status"] == "fail"


def test_classical_reciprocity_skipped_without_character_table():
    code, text = run(["--format", "json", "classical", "--group", "C3", "--op", "frobenius"])
    assert code == 0, text
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert checks["reciprocity"] == {
        "name": "reciprocity", "status": "skip",
        "detail": "no built-in rational character table for C3"}


def _classical_on_group_file(tmp_path, spec, *options):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    return run(["--format", "json", "classical", "--group", str(path), *options])


def _reciprocity_checks(text):
    return [c for c in json.loads(text)["checks"] if c["name"].startswith("reciprocity")]


def test_group_file_named_s3_with_the_table_of_c6_skips_reciprocity(tmp_path):
    # was an AssertionError traceback, exit 1
    c6 = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    code, text = _classical_on_group_file(tmp_path, {"name": "S3", "order": 6, "table": c6})
    assert code == 0, text
    assert _reciprocity_checks(text) == [{
        "name": "reciprocity", "status": "skip",
        "detail": "no built-in rational character table for S3"}]


def test_group_file_named_q8_of_order_two_gets_the_table_of_c2(tmp_path):
    # was five "irreducible" characters for a group with two classes
    code, text = _classical_on_group_file(
        tmp_path, {"name": "Q8", "order": 2, "table": [[0, 1], [1, 0]]}, "--op", "frobenius")
    assert code == 0, text
    assert [c["status"] for c in _reciprocity_checks(text)] == ["pass", "pass"]


def test_group_file_with_the_table_of_s3_under_another_name_runs_reciprocity(tmp_path):
    # was skipped: the table was chosen by the name S3
    from hopfcyclic.groups import builtin_group

    s3 = builtin_group("S3")
    spec = {"name": "mine", "order": 6, "table": s3.table, "names": s3.names}
    code, text = _classical_on_group_file(tmp_path, spec, "--subgroup", "(12)",
                                          "--op", "frobenius")
    assert code == 0, text
    assert [c["name"] for c in _reciprocity_checks(text)] == [
        f"reciprocity reciprocity vs irreducible {k}" for k in range(3)]
    assert all(c["status"] == "pass" for c in _reciprocity_checks(text))


@pytest.mark.parametrize("spec, detail", [
    # duplicate names used to drop a class from the report
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": ["a", "a"]},
     "element names are not distinct"),
    # a short names list used to be reported as "table is not square"
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": ["a"]},
     "names list has length 1, table has 2 rows"),
    ({"order": 3, "table": [[0, 1], [1, 0]], "names": ["a", "b"]},
     "order 3 does not match a table of 2 rows"),
], ids=["duplicate names", "names length", "order"])
def test_group_file_whose_order_names_and_table_disagree_exit_two(tmp_path, spec, detail):
    code, text = _classical_on_group_file(tmp_path, spec)
    assert code == 2, text
    assert json.loads(text)["error"] == f"bad group file: {detail}"


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
    for theory in ("hh", "hc"):
        code, text = run(["homology", "kC2", "--theory", theory, "--max-degree", "6"])
        assert code == 2, theory
        assert "between 0 and 5" in text
        code, text = run(["--format", "json", "homology", "kC2", "--theory", theory,
                          "--max-degree", "5"])
        assert code == 0, theory
    assert json.loads(text)["tables"]["dimensions"]["degree 4"] == 2  # HC_4(kC2)


@pytest.mark.parametrize("argv", [["galois", "nosuch/x"], ["homology", "kS3/kC5"],
                                  ["isocheck", "H4/Bx", "--theorem", "3.4"],
                                  ["spectral", "kC5/k"]])
def test_unknown_builtin_pair_exit_two_naming_it(argv):
    # was exit 1: "construction [FAIL] unknown built-in setup ..."
    code, text = run(argv)
    assert code == 2, text
    assert f"no built-in pair or file named {argv[1]!r}" in text, text


def test_every_builtin_pair_name_resolves():
    for name in PAIR_NAMES:
        code, text = run(["galois", name])
        assert code == 0, (name, text)


def test_galois_passes_on_every_subgroup_of_every_builtin_group_under_both_prefixes():
    from hopfcyclic.groups import BUILTIN_GROUPS, builtin_group
    from support import subgroup_names

    for group in BUILTIN_GROUPS:
        g = builtin_group(group)
        for gens, sub in subgroup_names(g).items():
            for prefix, side in (("k", "dim_B"), ("O", "dim_C")):
                name = f"{prefix}{group}/{gens}"
                code, text = run(["--format", "json", "galois", name])
                assert code == 0, (name, text)
                # B = kK in kG, C = O(K) from O(G)
                assert json.loads(text)["params"][side] == len(sub), name


def test_the_aliases_report_what_they_stand_for():
    from hopfcyclic.presets import ALIASES

    for alias, pair in ALIASES.items():
        for argv in (["galois"], ["homology", "--theory", "hc"], ["isocheck", "--theorem", "3.4"]):
            reports = []
            for name in (alias, pair):
                code, text = run(["--format", "json", argv[0], name, *argv[1:]])
                assert code == 0, (name, text)
                report = json.loads(text)
                # a report keeps the name as it was typed
                assert report["params"].pop("hopf") == report["params"].pop("setup", name) == name
                reports.append(report)
            assert reports[0] == reports[1], (alias, argv)


@pytest.mark.parametrize("name, reason", [
    ("Xs3/k", "unknown Hopf algebra 'Xs3': write k<G> or O<G> for a built-in group G, or H4"),
    ("kC5/k", "unknown built-in group 'C5'"),
    ("kS3/(14)", "unknown group element '(14)'"),
    ("H4/g", "'H4/g' is no pair: write <Hopf name>/<subgroup>, H4/k or H4/B"),
])
def test_a_bad_pair_name_exits_two_naming_the_problem(name, reason):
    code, text = run(["--format", "json", "homology", name])
    assert code == 2, text
    assert json.loads(text)["error"] == f"no built-in pair or file named {name!r}: {reason}"


def test_kq8_over_k_is_b_equal_k_and_the_subgroup_of_k_is_written_minus_k():
    dims = {}
    for name in ("kQ8/k", "kQ8/-k"):
        code, text = run(["--format", "json", "galois", name])
        assert code == 0, text
        dims[name] = json.loads(text)["params"]["dim_B"]
    assert dims == {"kQ8/k": 1, "kQ8/-k": 4}


def test_classical_builds_one_pair_per_run_and_none_when_refused(monkeypatch, tmp_path):
    from hopfcyclic import presets

    calls = []
    group_pair = presets.group_pair

    def counted(*args):
        calls.append(args)
        return group_pair(*args)

    monkeypatch.setattr(presets, "group_pair", counted)
    for group, sub in (("S3", "(12)"), ("Q8", "i"), ("A4", "(123)")):
        calls.clear()
        code, text = run(["classical", "--group", group, "--subgroup", sub])
        assert code == 0, text
        assert len(calls) == 1, (group, sub)
    calls.clear()
    c60 = [[(a + b) % 60 for b in range(60)] for a in range(60)]
    code, text = _classical_on_group_file(tmp_path, {"name": "C60", "order": 60, "table": c60},
                                          "--op", "dual", "--subgroup", "0")
    assert code == 2 and calls == [], text


def test_a_group_file_that_is_not_associative_exits_two_with_its_witness(tmp_path):
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    code, text = _classical_on_group_file(tmp_path, {"name": "L5", "order": 5, "table": loop})
    assert code == 2, text
    assert json.loads(text)["error"] == "bad group file: associativity fails at (1,1,2)"


@pytest.mark.parametrize("name", HOPF_NAMES)
def test_the_setup_name_a_report_prints_is_accepted_back(name):
    # kC4/k, OC2/k and sweedler/k used to exit 2
    code, text = run(["--format", "json", "homology", name, "--max-degree", "1"])
    assert code == 0, text
    setup = json.loads(text)["params"]["setup"]
    assert setup == f"{name}/k"
    again, text_again = run(["--format", "json", "homology", setup, "--max-degree", "1"])
    assert again == 0, text_again
    assert json.loads(text_again)["tables"] == json.loads(text)["tables"]


def test_isocheck_os3_oc2_higher_degree_within_budget():
    # both ran for minutes when the transform ambients were expanded
    # Sweedler combination by Sweedler combination
    for args, dims in ((["--theorem", "3.7", "--max-degree", "2"], None),
                       (["--theorem", "3.4", "--max-degree", "3"], [6, 12, 24, 48])):
        start = time.perf_counter()
        tables = []
        for field in ("q", "fp:2147483647"):
            code, text = run(["--format", "json", "--field", field, "isocheck", "OS3/OC2"] + args)
            data = json.loads(text)
            assert code == 0 and data["summary"]["fail"] == 0, (args, field)
            tables.append(data["tables"])
        assert tables[0] == tables[1], args
        if dims is not None:
            assert list(tables[0]["dims"].values()) == dims
        assert time.perf_counter() - start < 60, args
