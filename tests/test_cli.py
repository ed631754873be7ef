import subprocess
import sys

import pytest

from pbcnf import parse_opb
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
    assert main(["encode", reference_file, str(out1)]) == 0
    assert main(["encode", reference_file, str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes() == REFERENCE_DIMACS.encode()


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
    assert by_enc["totalizer"][6] == "inapplicable"
    assert all(c[0] == "ref" for c in cells)


# --- gen-bench ---


def test_gen_bench_roundtrips(capsys):
    rc = main(["gen-bench", "--family", "pedigreelike", "--n", "12", "--seed", "9"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "family= pedigreelike seed= 9 prng= splitmix64" in out
    inst = parse_opb(out)
    assert inst.declared_vars == 12
    assert len(inst.constraints) == 1


def test_gen_bench_deterministic(capsys):
    main(["gen-bench", "--family", "pb12like", "--n", "10", "--seed", "3"])
    first, _ = capsys.readouterr()
    main(["gen-bench", "--family", "pb12like", "--n", "10", "--seed", "3"])
    second, _ = capsys.readouterr()
    assert first == second


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
        [sys.executable, "-m", "pbcnf", "encode", "-", "-"],
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
