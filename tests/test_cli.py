import csv
import os
import subprocess
import sys

import pytest

from pbcnf import SAT, UNSAT, SolveResult, bench, cli, encode_gte, gac_check, parse_opb, pipeline
from pbcnf.cli import main

REFERENCE_OPB = "* #variable= 4 #constraint= 1\n+2 x1 +3 x2 +3 x3 +3 x4 <= 5 ;\n"

REFERENCE_DIMACS = (
    "p cnf 13 18\n"
    "-1 -2 7 0\n"
    "-1 5 0\n"
    "-2 6 0\n"
    "-3 -4 9 0\n"
    "-3 8 0\n"
    "-4 8 0\n"
    "-5 -8 12 0\n"
    "-5 -9 13 0\n"
    "-6 -8 13 0\n"
    "-6 -9 13 0\n"
    "-7 -8 13 0\n"
    "-7 -9 13 0\n"
    "-5 10 0\n"
    "-6 11 0\n"
    "-7 12 0\n"
    "-8 11 0\n"
    "-9 13 0\n"
    "-13 0\n"
)


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "ref.opb"
    path.write_text(REFERENCE_OPB)
    return str(path)


# --- encode ---


def test_encode_to_stdout(reference_file, capsys):
    rc = main(["encode", reference_file, "--encoding", "gte"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out == REFERENCE_DIMACS
    assert "aux_vars=9" in err
    assert "aux_clauses=18" in err
    assert "encode_ms=" in err


def test_encode_to_file_byte_identical_reruns(reference_file, tmp_path, capsys):
    out1 = tmp_path / "a.cnf"
    out2 = tmp_path / "b.cnf"
    assert main(["encode", reference_file, str(out1), "--encoding", "gte"]) == 0
    assert main(["encode", reference_file, str(out2), "--encoding", "gte"]) == 0
    assert out1.read_bytes() == out2.read_bytes() == REFERENCE_DIMACS.encode()
    # the default, auto, is deterministic too
    assert main(["encode", reference_file, str(out1)]) == 0
    assert main(["encode", reference_file, str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"p cnf ")


def test_encode_missing_file(capsys):
    rc = main(["encode", "/nonexistent/nope.opb"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "cannot read" in err


def test_encode_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.opb"
    bad.write_text("+1 x1 <=\n")
    rc = main(["encode", str(bad)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "line 1" in err


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="int() has no digit limit below 5000 here",
)
@pytest.mark.parametrize("command", ["encode", "solve"])
@pytest.mark.parametrize(
    "text",
    [f"+1 x1 <= {'9' * 5000} ;\n", f"+{'9' * 5000} x1 <= 3 ;\n", f"+1 x{'9' * 5000} <= 3 ;\n"],
    ids=["bound", "coefficient", "variable"],
)
def test_numbers_past_the_digit_limit_are_parse_errors(tmp_path, capsys, command, text):
    bad = tmp_path / "big.opb"
    bad.write_text(text)
    rc = main([command, str(bad)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "line 1" in err and "too long" in err
    assert "Traceback" not in err and not out


def test_encode_unwritable_output(reference_file, capsys):
    rc = main(["encode", reference_file, "/nonexistent/dir/out.cnf"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "cannot write" in err


# --- usage errors ---


def test_unknown_encoder_is_usage_error(capsys):
    rc = main(["verify", "--encoders", "nosuch"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "unknown encoder" in err


def test_stats_without_inputs_is_usage_error(capsys):
    rc = main(["stats"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "no instances" in err


def test_bad_flag_is_usage_error(capsys):
    assert main(["solve", "--frobnicate", "x"]) == 1


@pytest.mark.parametrize("command", ["encode", "solve"])
def test_totalizer_encoding_on_weighted_input_is_gte(reference_file, command, capsys):
    # the reference constraint is weighted; the totalizer is gte by another name
    rc = main([command, reference_file, "--encoding", "totalizer"])
    out = capsys.readouterr().out
    assert main([command, reference_file, "--encoding", "gte"]) == rc == {"encode": 0, "solve": 10}[command]
    assert capsys.readouterr().out == out
    assert command == "solve" or out == REFERENCE_DIMACS


# --- solve ---


def test_solve_sat(reference_file, capsys):
    rc = main(["solve", reference_file])
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert rc == 10
    assert lines[0] == "SAT"
    model = [int(t) for t in lines[1].split()]
    assert sorted(abs(n) for n in model) == [1, 2, 3, 4]  # truncated to inputs
    assignment = {abs(n): n > 0 for n in model}
    c = parse_opb(REFERENCE_OPB).constraints[0]
    assert c.holds(assignment)


def test_solve_unsat(tmp_path, capsys):
    path = tmp_path / "unsat.opb"
    path.write_text("+1 x1 >= 1 ;\n+1 x1 <= 0 ;\n")
    rc = main(["solve", str(path)])
    out, _ = capsys.readouterr()
    assert rc == 20
    assert out.strip() == "UNSAT"


def pigeonhole_opb(holes):
    pigeons = holes + 1
    var = lambda p, h: (p - 1) * holes + h
    lines = []
    for p in range(1, pigeons + 1):
        terms = " ".join(f"+1 x{var(p, h)}" for h in range(1, holes + 1))
        lines.append(f"{terms} >= 1 ;")
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                lines.append(f"+1 x{var(p1, h)} +1 x{var(p2, h)} <= 1 ;")
    return "\n".join(lines) + "\n"


def test_solve_conflict_budget_timeout(tmp_path, capsys):
    path = tmp_path / "php.opb"
    path.write_text(pigeonhole_opb(5))
    rc = main(["solve", str(path), "--max-conflicts", "1"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.strip() == "TIMEOUT"


CAP_ERRORS = {"-3": "must be at least 0, not -3", "many": "not an integer: 'many'"}


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            [command, "REF", "--max-conflicts", cap],
            f"error: argument --max-conflicts: {CAP_ERRORS[cap]}",
            id=f"{cap}-{command}",
        )
        for cap in CAP_ERRORS
        for command in ("solve", "stats")
    ]
    + [
        pytest.param(
            ["verify", "--trials", "-2"],
            "error: argument --trials: must be at least 1, not -2",
            id="verify-trials--2",
        )
    ]
    + [
        pytest.param(
            argv,
            f"error: argument {argv[-2]}: must be at least 1, not 0",
            id="-".join(a.lstrip("-") for a in argv),
        )
        for argv in (
            ["verify", "--max-n", "0"],
            ["verify", "--max-weight", "0"],
            ["gac-check", "--max-n", "0"],
            ["gac-check", "--max-weight", "0"],
            ["stats", "--generate", "pb12like", "--max-weight", "0"],
            ["stats", "--generate", "pedigreelike", "--n", "0"],
            ["gen-bench", "--family", "pb12like", "--max-weight", "0"],
            ["gen-bench", "--family", "pedigreelike", "--n", "0"],
            ["verify", "--trials", "0"],
            ["gac-check", "--constraints", "0"],
            ["gac-check", "--samples", "0"],
            ["stats", "--generate", "pb12like", "--count", "0"],
            ["stats", "--generate", "pb12like", "--constraints", "0"],
            ["gen-bench", "--family", "pb12like", "--constraints", "0"],
        )
    ]
    + [
        pytest.param(
            ["verify", "--max-n", "17"],
            "error: argument --max-n: must be at most 16, not 17",
            id="verify-max-n-17",
        )
    ]
    + [
        pytest.param(
            [*command, "--distinct-weights", value],
            f"error: argument --distinct-weights: must be at least 2, not {value}",
            id=f"{command[0]}-distinct-weights-{value}",
        )
        for command in (["gen-bench", "--family", "pb12like"], ["stats", "--generate", "pb12like"])
        for value in ("1", "0", "-1")
    ]
    + [
        pytest.param(
            ["solve", "REF", "--time-limit", value],
            "error: argument --time-limit: must be a number of seconds above 0 and at most 1000000, "
            f"not {value}",
            id=f"solve-time-limit-{value}",
        )
        # 1e400 reads as inf; finite waits beyond the bound overflow subprocess's poll
        for value in ("inf", "nan", "1e400", "0", "-1", "2e6", "abc")
    ]
    + [pytest.param(["verify", "--encoders", ","], "error: no encoders given", id="verify-encoders-none")]
    + [
        pytest.param(
            [*command, "--seed", value],
            f"error: argument --seed: {message}",
            id=f"{command[0]}-seed-{value}",
        )
        for command in (["verify"], ["gac-check"], ["stats"], ["gen-bench", "--family", "pb12like"])
        for value, message in (
            ("-1", "must be at least 0, not -1"),
            (str(2**64), f"must be at most {2**64 - 1}, not {2**64}"),
        )
    ],
)
def test_bad_conflict_cap_is_usage_error(reference_file, argv, message, capsys):
    # conflict caps and size arguments below their minimum stop at the parser
    rc = main([reference_file if a == "REF" else a for a in argv])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_zero_conflict_cap_is_accepted(tmp_path, capsys):
    path = tmp_path / "php.opb"
    path.write_text(pigeonhole_opb(3))
    assert main(["solve", str(path), "--max-conflicts", "0"]) == 0
    assert capsys.readouterr().out.strip() == "TIMEOUT"


def test_solve_each_encoding_agrees(tmp_path, capsys):
    path = tmp_path / "php.opb"
    path.write_text(pigeonhole_opb(3))
    for enc in ("gte", "swc", "adder", "auto"):
        rc = main(["solve", str(path), "--encoding", enc])
        capsys.readouterr()
        assert rc == 20, enc


def test_solve_external_via_env(reference_file, tmp_path, capsys, monkeypatch):
    stub = tmp_path / "ext.sh"
    stub.write_text("#!/bin/sh\necho SAT\necho '-1 -2 -3 -4 0'\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PBCNF_SOLVER", str(stub))
    rc = main(["solve", reference_file])
    out, _ = capsys.readouterr()
    assert rc == 10
    assert out.splitlines()[1] == "-1 -2 -3 -4"


def test_solve_time_limit_reaches_the_external_solver(reference_file, capsys, monkeypatch):
    seen = []

    def external(formula, command, timeout=None):
        seen.append(timeout)
        return SolveResult(UNSAT)

    monkeypatch.setenv("PBCNF_SOLVER", "stub")
    monkeypatch.setattr(cli, "solve_external", external)
    assert main(["solve", reference_file, "--time-limit", "0.5"]) == 20
    assert capsys.readouterr().out == "UNSAT\n"
    assert seen == [0.5]


def test_solve_external_rejects_inconsistent_model(tmp_path, capsys, monkeypatch):
    # a 3-variable instance; the answer names x2 with both signs
    path = tmp_path / "three.opb"
    path.write_text("* #variable= 3 #constraint= 1\n+1 x1 +1 x2 +1 x3 >= 1 ;\n")
    stub = tmp_path / "ext.sh"
    stub.write_text("#!/bin/sh\necho SAT\necho '1 2 -2 9 0'\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PBCNF_SOLVER", str(stub))
    rc = main(["solve", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_solve_external_wrong_model_is_verification_failure(reference_file, tmp_path, capsys, monkeypatch):
    # every x on weighs 11 against the bound 5: the CNF may say what it likes
    stub = tmp_path / "ext.sh"
    stub.write_text("#!/bin/sh\necho SAT\necho '1 2 3 4 0'\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PBCNF_SOLVER", str(stub))
    rc = main(["solve", reference_file])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err == "error: the model violates constraint 1 (2 x1 + 3 x2 + 3 x3 + 3 x4 <= 5)\n"


def test_solve_embedded_wrong_model_is_verification_failure(tmp_path, capsys, monkeypatch):
    # the check runs on the embedded engine's models too, against the
    # constraints as written (here the second, a >=, before normalization)
    path = tmp_path / "two.opb"
    path.write_text("* #variable= 3 #constraint= 2\n+1 x1 +1 x2 <= 1 ;\n+2 x2 +1 x3 >= 2 ;\n")

    class WrongEngine:
        def __init__(self, formula):
            self.nvars = formula.num_vars

        def solve(self, max_conflicts=None):
            return SolveResult(SAT, [1, -2, 3] + [-v for v in range(4, self.nvars + 1)])

    monkeypatch.setattr(cli, "Solver", WrongEngine)
    rc = main(["solve", str(path)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err == "error: the model violates constraint 2 (2 x2 + 1 x3 >= 2)\n"


@pytest.mark.parametrize(
    "answer,rc,out",
    [
        ("c solver banner\ns SATISFIABLE\nv -1 -2\nv -3 -4 0\n", 10, "SAT\n-1 -2 -3 -4\n"),
        ("s UNSATISFIABLE\n", 20, "UNSAT\n"),
        ("s UNKNOWN\n", 0, "TIMEOUT\n"),
    ],
    ids=["sat", "unsat", "unknown"],
)
def test_solve_external_competition_output(reference_file, tmp_path, capsys, monkeypatch, answer, rc, out):
    stub = tmp_path / "ext.sh"
    stub.write_text(f"#!/bin/sh\ncat <<'EOF'\n{answer}EOF\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PBCNF_SOLVER", str(stub))
    assert main(["solve", reference_file]) == rc
    assert capsys.readouterr().out == out


def test_solve_external_path_with_space(reference_file, tmp_path, capsys, monkeypatch):
    folder = tmp_path / "dir with space"
    folder.mkdir()
    stub = folder / "ext.sh"
    stub.write_text("#!/bin/sh\necho UNSAT\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PBCNF_SOLVER", f'"{stub}" --quiet')
    rc = main(["solve", reference_file])
    out, _ = capsys.readouterr()
    assert rc == 20
    assert out.strip() == "UNSAT"


@pytest.mark.parametrize(
    "script,fragment",
    [
        (None, "cannot run"),
        ("echo MAYBE\n", "unrecognized"),
        ("true\n", "no output"),
        ("echo SAT\necho 'one two 0'\n", "unrecognized"),
        ("echo SAT\necho '1 2 -2 0'\n", "x2 twice"),
        ("echo SAT\necho '1 0 2 0'\n", "0 before its end"),
        ("echo 's SATISFIABLE'\necho 'v 1 14 0'\n", "x14, above"),
    ],
    ids=["missing", "garbage", "empty", "bad-model", "twice", "early-zero", "above"],
)
def test_solve_external_failure_is_io_error(reference_file, tmp_path, capsys, monkeypatch, script, fragment):
    stub = tmp_path / "ext.sh"
    if script is not None:
        stub.write_text("#!/bin/sh\n" + script)
        stub.chmod(0o755)
    monkeypatch.setenv("PBCNF_SOLVER", str(stub))
    rc = main(["solve", reference_file])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and fragment in err


def test_solve_external_unbalanced_quote_is_io_error(reference_file, capsys, monkeypatch):
    monkeypatch.setenv("PBCNF_SOLVER", '"/no/closing/quote')
    rc = main(["solve", reference_file])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error: ")


# --- verify / gac-check ---


def test_verify_passes_and_reports(capsys):
    rc = main(["verify", "--trials", "25", "--seed", "2", "--max-n", "5"])
    out, _ = capsys.readouterr()
    assert rc == 0
    for enc in ("gte", "swc", "adder"):
        assert f"encoder {enc}: " in out
    assert "FAIL" not in out


def test_verify_and_gac_check_run_the_totalizer_as_gte(capsys):
    # every constraint is checked, weighted ones included, exactly as under gte
    assert main(["verify", "--encoders", "totalizer"]) == 0
    assert capsys.readouterr().out == "encoder totalizer: 100/100 equisatisfiable\n"
    assert main(["gac-check", "--encoders", "totalizer"]) == 0
    out = capsys.readouterr().out
    assert out == "encoder totalizer: 3726/3726 partial assignments fully propagated\n"
    assert main(["gac-check", "--encoders", "gte"]) == 0
    assert capsys.readouterr().out == out.replace("totalizer", "gte")


def test_gac_check_clean_encoders(capsys):
    rc = main(["gac-check", "--constraints", "8", "--seed", "2", "--max-n", "5"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "encoder gte: " in out
    assert "encoder swc: " in out


def test_gac_check_flags_adder(capsys):
    rc = main(
        ["gac-check", "--encoders", "adder", "--constraints", "12", "--seed", "4", "--max-n", "5"]
    )
    out, _ = capsys.readouterr()
    assert rc == 3
    assert "FAIL adder" in out
    assert "not propagated" in out


def test_gac_check_prints_at_most_five_fail_lines(capsys):
    rc = main(
        ["gac-check", "--encoders", "adder", "--constraints", "12", "--seed", "4", "--max-n", "5"]
    )
    assert rc == 3
    head = "FAIL adder: 8 ~x5 + 7 x1 + 2 x3 + 2 ~x2 <= 10 partial="
    assert capsys.readouterr().out == (
        f"{head}[-5] not propagated: [-1]\n"
        f"{head}[1] not propagated: [5]\n"
        f"{head}[-5, -3] not propagated: [-1]\n"
        f"{head}[1, -3] not propagated: [5]\n"
        f"{head}[-5, 3] not propagated: [-1, 2]\n"
        "encoder adder: 910/1039 partial assignments fully propagated\n"
    )


def test_gac_check_reports_a_conflict_as_a_conflict(capsys, monkeypatch):
    # gte that also forbids its first term's literal: too strong, so a
    # partial assignment setting that literal conflicts under propagation
    def too_strong(c, out):
        encode_gte(c, out)
        if c.terms:
            out.add_clause([c.terms[0].lit ^ 1])

    monkeypatch.setitem(pipeline.ENCODERS, "gte", too_strong)
    reports = gac_check(parse_opb(REFERENCE_OPB).constraints[0], "gte")
    conflicted = [r for r in reports if r.conflicted]
    assert conflicted and not any(r.passed for r in conflicted)
    assert main(["gac-check", "--encoders", "gte", "--constraints", "2"]) == 3
    head = "FAIL gte: 7 x4 + 4 x5 + 2 x3 + 1 x6 + 6 ~x1 + 6 x2 <= 11 partial="
    assert capsys.readouterr().out == (
        f"{head}[4] propagation conflict\n"
        f"{head}[4, -5] propagation conflict\n"
        f"{head}[4, 5] propagation conflict\n"
        f"{head}[4, -3] propagation conflict\n"
        f"{head}[4, -5, -3] propagation conflict\n"
        "encoder gte: 414/504 partial assignments fully propagated\n"
    )


def test_verify_prints_each_failure(capsys, monkeypatch):
    # gte without its last clause, the unit against the root's overflow sum
    def dropping_last(c, out):
        before = len(out.lits)
        encode_gte(c, out)
        if len(out.lits) > before:
            del out.lits[-2:]

    monkeypatch.setitem(pipeline.ENCODERS, "gte", dropping_last)
    rc = main(["verify", "--encoders", "gte", "--trials", "3", "--seed", "1", "--max-n", "4"])
    assert rc == 3
    assert capsys.readouterr().out == (
        "FAIL gte: 1 x2 + 6 x1 <= 6 under {2: True, 1: True}: constraint=False cnf=True\n"
        "FAIL gte: 3 ~x3 + 7 x1 + 10 x2 <= 11 under {3: False, 1: False, 2: True}: "
        "constraint=False cnf=True\n"
        "encoder gte: 1/3 equisatisfiable\n"
    )


# --- stats ---


def test_stats_generated_csv(capsys):
    rc = main(
        ["stats", "--generate", "pb12like", "--count", "2", "--n", "8",
         "--constraints", "3", "--seed", "6", "--encoders", "gte,swc"]
    )
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "instance,encoder,aux_vars,aux_clauses,encode_ms,solve_ms,result"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("pb12like-0,gte,")
    for line in lines[1:]:
        assert line.split(",")[-1] in ("SAT", "UNSAT")


def test_stats_auto_writes_nothing_to_stderr(reference_file, capsys):
    rc = main(["stats", reference_file, "--encoders", "auto"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ""
    assert out.startswith("instance,encoder,")


def test_stats_reads_opb_files(reference_file, capsys):
    rc = main(["stats", reference_file, "--encoders", "gte,swc,adder,totalizer"])
    out, _ = capsys.readouterr()
    rows = out.strip().split("\n")[1:]
    cells = [r.split(",") for r in rows]
    assert [c[1] for c in cells] == ["gte", "swc", "adder", "totalizer"]
    by_enc = {c[1]: c for c in cells}
    assert by_enc["gte"][2] == "9"
    assert by_enc["swc"][2] == "20"
    # aux_vars, aux_clauses and result: the totalizer is gte by another name
    assert [by_enc["totalizer"][i] for i in (2, 3, 6)] == [by_enc["gte"][i] for i in (2, 3, 6)]
    assert all(c[0] == "ref" for c in cells)


def test_stats_quotes_a_label_with_a_comma_or_a_quote(tmp_path, capsys):
    names = ["a,b", 'say "x"', "plain"]
    for name in names:
        (tmp_path / f"{name}.opb").write_text(REFERENCE_OPB)
    assert main(["stats", *(str(tmp_path / f"{name}.opb") for name in names), "--encoders", "gte"]) == 0
    rows = csv.DictReader(capsys.readouterr().out.splitlines())
    assert [(r["instance"], r["result"], len(r)) for r in rows] == [(name, "SAT", 7) for name in names]


def test_stats_wrong_model_is_verification_failure(reference_file, capsys, monkeypatch):
    # stats checks each SAT model against the input's constraints, as solve does
    class WrongEngine:
        def __init__(self, formula):
            self.nvars = formula.num_vars

        def solve(self, max_conflicts=None):
            return SolveResult(SAT, list(range(1, self.nvars + 1)))

    monkeypatch.setattr(bench, "Solver", WrongEngine)
    rc = main(["stats", reference_file, "--encoders", "gte"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err == "error: ref under gte: the model violates constraint 1 (2 x1 + 3 x2 + 3 x3 + 3 x4 <= 5)\n"


# --- gen-bench ---


def test_gen_bench_roundtrips(capsys):
    rc = main(["gen-bench", "--family", "pedigreelike", "--n", "12", "--seed", "9"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "family= pedigreelike seed= 9 prng= splitmix64" in out
    inst = parse_opb(out)
    assert inst.declared_vars == 12
    assert len(inst.constraints) == 1


@pytest.mark.parametrize("command", [["gen-bench", "--family"], ["stats", "--generate"]])
def test_pedigreelike_below_two_weights_is_usage_error(command, capsys):
    rc = main([*command, "pedigreelike", "--max-weight", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: pedigreelike needs a max_weight of at least 2, not 1\n"


def test_gen_bench_deterministic(capsys):
    main(["gen-bench", "--family", "pb12like", "--n", "10", "--seed", "3"])
    first, _ = capsys.readouterr()
    main(["gen-bench", "--family", "pb12like", "--n", "10", "--seed", "3"])
    second, _ = capsys.readouterr()
    assert first == second


def test_gen_bench_takes_every_64_bit_seed(capsys):
    for seed in (0, 2**64 - 1):
        assert main(["gen-bench", "--family", "pedigreelike", "--n", "4", "--seed", str(seed)]) == 0
        assert f"seed= {seed} " in capsys.readouterr().out


@pytest.mark.parametrize("family, flag, field", [
    ("pedigreelike", "--k", "k= {}"),
    ("pb12like", "--distinct-weights", "distinct_weights= {}"),
])
def test_gen_bench_header_names_every_spec_field(capsys, family, flag, field):
    # runs that write different constraints write different headers
    headers = []
    for value in (3, 7):
        main(["gen-bench", "--family", family, "--n", "6", "--constraints", "2", flag, str(value)])
        headers.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("*")])
        assert field.format(value) in headers[-1][-1]
    assert headers[0] != headers[1]


def test_gen_bench_header_shows_a_k_the_family_ignores(capsys):
    main(["gen-bench", "--family", "pb12like", "--n", "6", "--k", "5"])
    assert "k= None" in capsys.readouterr().out


def test_gen_bench_feeds_encode(tmp_path, capsys):
    main(["gen-bench", "--family", "pedigreelike", "--n", "10", "--seed", "5"])
    opb, _ = capsys.readouterr()
    path = tmp_path / "gen.opb"
    path.write_text(opb)
    rc = main(["encode", str(path), str(tmp_path / "gen.cnf")])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "gen.cnf").read_text().startswith("p cnf ")


# --- installed entry points ---


def test_module_entry_point_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "pbcnf", "encode", "-", "-", "--encoding", "gte"],
        input=REFERENCE_OPB,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == REFERENCE_DIMACS


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "pbcnf", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for cmd in ("encode", "solve", "verify", "gac-check", "stats", "gen-bench"):
        assert cmd in proc.stdout


def test_warning_is_one_line():
    proc = subprocess.run(
        [sys.executable, "-m", "pbcnf", "encode", "-"],
        input="* #variable= 1 #constraint= 1\n+1 x1 +1 x2 <= 1 ;\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[0] == "warning: instance uses x2 beyond the declared 1 variables; extending"
    assert "UserWarning" not in proc.stderr


def test_import_starts_no_subprocess_machinery():
    # only an external solve needs subprocess and only the CLI parses
    # arguments; importing pbcnf stays cheap
    code = "import sys; b = set(sys.modules); import pbcnf; print(*sorted(set(sys.modules) - b))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    forbidden = {"subprocess", "signal", "selectors", "argparse", "shlex", "tempfile"}
    assert not forbidden & set(proc.stdout.split())


def test_stdin_decodes_like_a_file(tmp_path):
    # a byte that is not UTF-8, in a comment: under a strict stdin encoding
    # the read must not fail where the same bytes in a file solve
    data = b"+1 x1 <= 1 ;\n* \xff\n"
    path = tmp_path / "ff.opb"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    runs = [
        subprocess.run([sys.executable, "-m", "pbcnf", "solve", arg], input=data, capture_output=True, env=env)
        for arg in ("-", str(path))
    ]
    for proc in runs:
        assert proc.returncode == 10
        assert b"Traceback" not in proc.stderr
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("command", [["encode", "--encoding", "gte", "-"], ["solve", "-"]])
def test_closed_stdout_is_io_error(command):
    # 20000 forced units: a DIMACS text and a model line each larger than a
    # pipe buffer, read only in part; the write that meets the closed pipe
    # must end in exit 2, not a traceback
    n = 20000
    opb = f"* #variable= {n} #constraint= {n}\n" + "".join(f"+1 x{v} >= 1 ;\n" for v in range(1, n + 1))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pbcnf", *command],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdin.write(opb)
    proc.stdin.close()
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert "Traceback" not in err
    assert "error: stdout was closed" in err
