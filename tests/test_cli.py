import json

import pytest

from latchain import boolean_lattice, chain_poset, poset_from_text, rank_matrix, truncated_boolean
from latchain.cli import _POLY_OPS, main
from helpers import run_cli


def test_poly_commands(capsys):
    assert main(["poly", "real-rooted", "1 4 5 2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["poly", "real-rooted", "1 0 1"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["poly", "interlaces", "1 2", "1 4 3"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["poly", "sturm-count", "1 4 5 2", "--lo", "-1", "--hi", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["poly", "roots-in-interval", "1 4 5 2", "--lo", "-1", "--hi", "0"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["poly", "h-from-f", "1 4 5 2", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1 1"
    assert main(["poly", "f-from-h", "1 1", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1 4 5 2"
    assert main(["poly", "diamond", "0 1", "0 1"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2"
    assert main(["poly", "eval", "1 4 5 2", "--at", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "9/2"
    assert main(["poly", "eulerian", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1 4 1"
    assert main(["poly", "q-eulerian", "--n", "3", "--at", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 12 8"


def test_poly_rational_parsing(capsys):
    assert main(["poly", "eval", "1/2 1/3", "--at", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"
    assert main(["poly", "eval", "1/2 -3", "--at=-1/2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["poly", "sturm-count", "+1 4 5 2", "--lo=-1", "--hi", "+0/5"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_huge_exponent_token_is_refused_at_once():
    # Fraction would expand 1e10000000 into a 33-million-bit integer first
    out = run_cli(["poly", "real-rooted", "1e10000000"], timeout=5)
    assert out.returncode == 2
    errors = [line for line in out.stderr.splitlines() if ": error: " in line]
    assert errors == ["latchain poly: error: real-rooted: invalid number '1e10000000': write an integer or p/q"]


@pytest.mark.parametrize("op", ["h-from-f", "f-from-h"])
def test_transform_dimension_over_the_cap_is_refused_at_once(op):
    # uncapped, n = 10^8 first allocated a list of 10^8 + 1 coefficients
    out = run_cli(["poly", op, "1 2", "--n", "100000000"], timeout=5)
    assert out.returncode == 2
    errors = [line for line in out.stderr.splitlines() if ": error: " in line]
    assert errors == [f"latchain poly: error: {op}: dimension parameter n=100000000 over the cap of 10000"]


def test_build_poset(tmp_path, capsys):
    out = tmp_path / "poset.txt"
    assert main(["build", "boolean:3", "--out", str(out)]) == 0
    text = out.read_text()
    p = poset_from_text(text)
    assert p.n == 8
    assert text.splitlines()[0] == "poset 8"


def test_build_rows(tmp_path, capsys):
    out = tmp_path / "rows.txt"
    assert main(["build", "dowling-rows:m=2:N=4", "--out", str(out)]) == 0
    rows = [line.split() for line in out.read_text().splitlines()]
    assert rows[0] == ["1"]
    assert rows[2] == ["1", "4", "1"]


@pytest.mark.parametrize(
    "dsl, poset",
    [("boolean-rows:3", boolean_lattice(3)), ("chain-rows:4", chain_poset(4)),
     ("trunc-rows:5:2", truncated_boolean(5, 2))],
)
def test_build_writes_the_rank_rows_of_a_row_head(dsl, poset, tmp_path, capsys):
    out = tmp_path / "rows.txt"
    assert main(["build", dsl, "--out", str(out)]) == 0
    assert out.read_text() == rank_matrix(poset).to_text()


def test_suite_command_with_outputs(tmp_path, capsys):
    json_out = tmp_path / "r.jsonl"
    csv_out = tmp_path / "r.csv"
    rc = main(
        [
            "suite",
            "dowling",
            "--seed",
            "2",
            "--json",
            str(json_out),
            "--csv",
            str(csv_out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "3/3 passed" in stdout
    payloads = [json.loads(line) for line in json_out.read_text().splitlines()]
    assert all(p["verdict"] == "pass" for p in payloads)
    assert len(csv_out.read_text().splitlines()) == 4  # header plus three rows


def test_suite_command_with_instances_file(tmp_path, capsys):
    instances = tmp_path / "instances.txt"
    instances.write_text("boolean:3\ntrunc-boolean:4:1\n")
    rc = main(["suite", "triangular", "--instances", str(instances)])
    assert rc == 0
    assert "2/2 passed" in capsys.readouterr().out


def test_instances_file_skips_blank_and_comment_lines(tmp_path, capsys):
    instances = tmp_path / "instances.txt"
    instances.write_text("# header\n\n  # indented note\n\t#tabbed\n   \n  boolean:3  \n")
    rc = main(["suite", "rank3", "--instances", str(instances)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.splitlines()[0].startswith("PASS  rank3 boolean:3 (")
    assert "1/1 passed" in out and "#" not in out


def test_instances_file_with_no_instance_is_refused(tmp_path, capsys):
    instances = tmp_path / "instances.txt"
    instances.write_text("# nothing here\n\n")
    with pytest.raises(SystemExit) as err:
        main(["suite", "designs", "--instances", str(instances), "--json", str(tmp_path / "out.jsonl")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"latchain suite: error: --instances file {instances} lists no instance"
    assert not (tmp_path / "out.jsonl").exists()


def test_failing_suite_exit_code(tmp_path, capsys):
    # the Vamos lattice is not rank uniform on either side, so this check fails
    instances = tmp_path / "instances.txt"
    instances.write_text("vamos\n")
    rc = main(["suite", "triangular", "--instances", str(instances)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["suite", "not-a-suite"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "sturm-count", "1 4 5 2", "--lo", "-1"],
        ["poly", "roots-in-interval", "1 4 5 2"],
        ["poly", "interlaces", "1 2"],
        ["poly", "diamond", "0 1"],
        ["poly", "h-from-f", "1 4 5 2"],
        ["poly", "f-from-h", "1 1"],
        ["poly", "eval", "1 4 5 2"],
        ["poly", "eulerian"],
        ["poly", "q-eulerian", "--n", "3"],
        ["poly", "real-rooted"],
        ["poly", "real-rooted", "1_x"],
        # only integers and p/q: no exponent, underscore, decimal point or zero denominator
        ["poly", "real-rooted", "1e1000000"],
        ["poly", "real-rooted", "1 1/0"],
        ["poly", "eval", "1 2", "--at=-2E3"],
        ["poly", "sturm-count", "1 2", "--lo", "0.5", "--hi", "1"],
        ["poly", "q-eulerian", "--n", "3", "--at", "1_0"],
        ["poly", "interlaces", "1 0 1", "1 2"],
        ["build", "boolean", "--out", "x"],
        ["build", "see:boolean:3", "--out", "x"],
        ["suite", "paving", "--instances", "no-such-file.txt"],
        ["suite", "all", "--instances", "f"],
        ["build", "paving:file=/missing.txt", "--out", "x"],
        ["build", "boolean:3", "--out", "/no/such/dir/x"],
        ["suite", "paving", "--json", "/no/such/dir/x.jsonl"],
        # extra, missing, unknown and repeated DSL fields
        ["build", "boolean:3:4", "--out", "x"],
        ["build", "trunc-boolean:5", "--out", "x"],
        ["build", "vamos:1", "--out", "x"],
        ["build", "dowling-rows:N=3:m=2:x=1", "--out", "x"],
        ["build", "dowling-rows:m=2:m=3:N=4", "--out", "x"],
        ["build", "dowling-rows:m=2:3", "--out", "x"],
        ["build", "see:boolean:3:cut=1:cut=2", "--out", "x"],
        # a d-partition file with two ground lines
        ["build", "paving:file=two-grounds", "--out", "x"],
        # a d-partition file with a non-integer ground point
        ["build", "paving:file=bad-point", "--out", "x"],
        # the zero polynomial beside one that is not real-rooted
        ["poly", "interlaces", "0", "1 1 1"],
        # a cut member named twice
        ["build", "see:boolean:4:cut=1,1", "--out", "x"],
        # an instances file that is not UTF-8
        ["suite", "paving", "--instances", "not-utf8"],
        # integers int() takes but the grammar refuses
        ["suite", "diamond", "--seed", "1_0"],
        ["poly", "eulerian", "--n", "٣"],
        ["build", "boolean:٣", "--out", "x"],
        # numbers past Python's 4300-digit limit, read and printed
        ["poly", "real-rooted", "9" * 5000],
        ["poly", "eval", "1 1", "--at", "9" * 5000],
        ["poly", "eval", "1 1", "--at", "1/" + "9" * 5000],
        ["poly", "eval", "0 0 1", "--at", "9" * 3000],
        ["poly", "h-from-f", "1 " + "9" * 1400, "--n", "10000"],
        ["build", "boolean:" + "9" * 5000, "--out", "x"],
        ["build", "paving:file=long-ground", "--out", "x"],
        ["suite", "diamond", "--seed", "9" * 5000],
        ["poly", "eulerian", "--n", "9" * 5000],
        # five nonzero coefficients at n = 10000: over the transform work budget
        ["poly", "f-from-h", "1 1 1 1 1", "--n", "10000"],
    ],
)
def test_usage_errors_exit_2_with_one_error_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("boolean:3\n")
    (tmp_path / "two-grounds").write_text(
        "dpartition 2\nground 1 2 3 4\nground 1 2 3\nblock 1 2\nblock 1 3\nblock 2 3\n"
    )
    (tmp_path / "bad-point").write_text("dpartition 2\nground 1 2 x\nblock 1 2\n")
    (tmp_path / "not-utf8").write_bytes(b"\xff\xfe")
    (tmp_path / "long-ground").write_text("dpartition 2\nground 1 2 " + "9" * 5000 + "\nblock 1 2\n")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].startswith(f"latchain {argv[0]}: error: ")
    assert not (tmp_path / "x").exists()
    if max(map(len, argv)) > 1000 or "paving:file=long-ground" in argv:  # named in one short line
        assert errors[0].endswith("number over the limit of 4300 digits") and len(errors[0]) < 300
        assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize(
    "dsl, message",
    [
        # AG(4, 5): 625 points, 19500 lines, 20150 planes, 780 solids, the
        # whole space and the empty flat; counted before any enumeration
        ("affine:4:5", "has 41057 elements, over the cap of 5000"),
        # the Mersenne prime 2^89 - 1: trial division would not finish
        (f"subspace:2:{2**89 - 1}", "out of desk-scale range"),
        # 63004 sets of size below 8 and 48620 blocks, counted before any block is listed
        ("uniform-design:18:9", "has over 5000 poset elements"),
        # one past the row cap; N = 3000 would take minutes and gigabytes
        ("dowling-rows:m=1:N=65", "over the cap of 64"),
        # one past the group-order cap; above about m = 80 at N = 64 the suite
        # falls back to remainder sequences and takes minutes
        ("dowling-rows:m=65:N=1", "m=65, over the cap of 64"),
    ],
)
def test_build_out_of_range_fails_fast(dsl, message, tmp_path):
    out = run_cli(["build", dsl, "--out", str(tmp_path / "x")], timeout=5)
    assert out.returncode == 2
    errors = [line for line in out.stderr.splitlines() if ": error: " in line]
    assert len(errors) == 1 and message in errors[0]
    assert not (tmp_path / "x").exists()


def test_unwritable_report_file_stops_before_any_suite_runs(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["suite", "all", "--json", str(tmp_path / "missing" / "r.jsonl")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict lines, no summary
    errors = [line for line in captured.err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].startswith("latchain suite: error: cannot write reports")


@pytest.mark.parametrize("existing", [None, "earlier reports\n"])
def test_unwritable_csv_leaves_the_json_path_without_reports(existing, tmp_path, capsys):
    json_out = tmp_path / "r.jsonl"
    if existing is not None:
        json_out.write_text(existing)
    with pytest.raises(SystemExit) as err:
        main(["suite", "dowling", "--json", str(json_out), "--csv", str(tmp_path / "missing" / "r.csv")])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""
    if existing is None:
        assert not json_out.exists()
    else:
        assert json_out.read_text() == existing


@pytest.mark.parametrize(
    "dsl, message",
    [
        ("trunc-boolean:13:1", "ground size out of range: 13"),
        ("subspace:2:1", "field order must be prime: 1"),
        ("dowling-rows:m=0:N=2", "need m >= 1 and N >= 0"),
    ],
)
def test_build_refuses_parameters_out_of_range(dsl, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", dsl, "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert errors == [f"latchain build: error: cannot build {dsl!r}: ValueError: {message}"]
    assert not (tmp_path / "x").exists()


def test_sturm_count_without_bounds_counts_every_real_root(capsys):
    assert main(["poly", "sturm-count", "1 0 -1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_sturm_count_refuses_an_empty_interval(capsys):
    with pytest.raises(SystemExit) as err:
        main(["poly", "sturm-count", "1 0 -1", "--lo", "1", "--hi", "-1"])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert errors == ["latchain poly: error: sturm-count: empty interval"]


# each op: an argument list it accepts, flags it does not read, and their names in the error
_UNREAD_FLAGS = {
    "real-rooted": (["1 2"], ["--at", "3"], "--at"),
    "sturm-count": (["1 2"], ["--n", "3"], "--n"),
    "roots-in-interval": (["1 2", "--lo=-1", "--hi", "0"], ["--at", "3"], "--at"),
    "interlaces": (["1 2", "1 4 3"], ["--n", "2"], "--n"),
    "diamond": (["0 1", "0 1"], ["--lo", "0"], "--lo"),
    "h-from-f": (["1 2", "--n", "3"], ["--hi", "1"], "--hi"),
    "f-from-h": (["1 1", "--n", "3"], ["--at", "1"], "--at"),
    "eval": (["1 2", "--at", "3"], ["--lo", "0", "--hi", "1"], "--lo or --hi"),
    "eulerian": (["--n", "3"], ["--at", "2"], "--at"),
    "q-eulerian": (["--n", "3", "--at", "2"], ["--lo", "1"], "--lo"),
}


def test_every_poly_op_has_an_unread_flag_case():
    assert set(_UNREAD_FLAGS) == set(_POLY_OPS)


@pytest.mark.parametrize("op", list(_UNREAD_FLAGS))
def test_poly_op_refuses_a_flag_it_does_not_read(op, capsys):
    accepted, unread, named = _UNREAD_FLAGS[op]
    assert main(["poly", op, *accepted]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["poly", op, *accepted, *unread])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if ": error: " in line]
    assert errors == [f"latchain poly: error: {op}: takes no {named}"]
