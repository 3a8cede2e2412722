"""Command-line contract: golden outputs, exit codes, bench reproducibility."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from leu.cli import BENCH_SIZES, bench_matrix, main
from leu.textio import read_matrix

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def golden(name):
    return (GOLDEN / name).read_text()


def test_leu_golden(capsys):
    assert main(["leu", str(DATA / "gf7_worked.txt"), "--count-mults"]) == 0
    assert capsys.readouterr().out == golden("leu_gf7_worked.txt")


def test_leu_output_reparses(capsys):
    assert main(["leu", str(DATA / "gf7_worked.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    L, pos = read_matrix(lines, 0)
    assert lines[pos] == "perm n=2 ones=(0,0);(1,1)"
    U, pos = read_matrix(lines, pos + 1)
    assert lines[pos] == "rank 2"
    assert L._d == [[5, 0], [2, 4]]
    assert U._d == [[1, 2], [0, 1]]


@pytest.mark.parametrize(
    "cmd,data,name",
    [
        ("bruhat", "gf7_nilpotent.txt", "bruhat_nilpotent.txt"),
        ("kernel", "gf7_nilpotent.txt", "kernel_nilpotent.txt"),
        ("verify", "gf7_worked.txt", "verify_worked.txt"),
        ("invert", "rational_3x3.txt", "invert_rational.txt"),
        ("block", "gf7_nilpotent.txt", "block_nilpotent.txt"),
    ],
)
def test_command_goldens(capsys, cmd, data, name):
    assert main([cmd, str(DATA / data)]) == 0
    assert capsys.readouterr().out == golden(name)


def test_rank_command(capsys):
    assert main(["rank", str(DATA / "gf7_nilpotent.txt")]) == 0
    assert capsys.readouterr().out == "rank 1\n"


def test_rank_of_an_empty_dimension_pads_nothing(tmp_path, capsys):
    # a three-line file once asked rank for a 2^27 x 2^27 zero block; the
    # count is still that block's, 17(m^3 - m^2)/4 with m = 2^27
    path = tmp_path / "wide.txt"
    path.write_text("field gfp 7\nrows 0\ncols 100000000\n")
    assert main(["rank", str(path), "--count-mults"]) == 0
    assert capsys.readouterr().out == "rank 0\nmults 10275869390163154319704064\ninvs 0\n"


def test_invert_singular_exit2(capsys):
    assert main(["invert", str(DATA / "gf7_nilpotent.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "singular rank=1\n"
    assert captured.out == ""


def test_parse_error_exit1(tmp_path, capsys):
    assert main(["leu", str(DATA / "bad_truncated.txt")]) == 1
    assert "error:" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"field gfp 7\nrows 1\ncols 1\n\xff\n")  # not UTF-8
    assert main(["leu", str(latin1)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit1(capsys):
    assert main(["leu", str(DATA / "no_such_file.txt")]) == 1


def test_rectangular_input_to_square_command_exit1(tmp_path, capsys):
    rect = tmp_path / "rect.txt"
    rect.write_text("field gfp 7\nrows 1\ncols 2\n3 5\n")
    for cmd in ("leu", "block"):
        assert main([cmd, str(rect)]) == 1
        assert capsys.readouterr().err == "error: expected a square matrix, got (1, 2)\n"
    # rank and kernel accept rectangular input
    assert main(["rank", str(rect)]) == 0
    assert capsys.readouterr().out == "rank 1\n"
    assert main(["kernel", str(rect)]) == 0
    capsys.readouterr()


def test_usage_error_exit1(capsys):
    assert main(["--bogus"]) == 1
    assert main(["leu"]) == 1  # missing argument


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 0),
        (["leu", "--help"], 0),
        (["bench", "--help"], 0),
        ([], 1),
        (["--bogus"], 1),
        (["nope", str(DATA / "gf7_worked.txt")], 1),
        (["leu"], 1),  # missing MATRIX_FILE
        (["leu", str(DATA / "gf7_worked.txt"), "--count"], 1),  # no option prefixes
        (["-h"], 1),  # --help only
        (["leu", str(DATA / "gf7_worked.txt"), "--mul", "fast"], 1),
        (["leu", str(DATA / "gf7_worked.txt"), "--cutoff", "x"], 1),
        (["bench", "extra"], 1),
        # --help is acted on where it stands: after an unknown option it still
        # prints the help, after a bad value the parse has already stopped
        (["rank", "--bogus", "--help"], 0),
        (["rank", "--mul", "fast", "--help"], 1),
    ],
    ids=["help", "leu-help", "bench-help", "no-argument", "bogus", "unknown-command",
         "missing-file", "abbreviation", "short-help", "bad-mul", "bad-cutoff", "bench-extra",
         "help-after-unknown", "bad-value-before-help"],
)
def test_argv_surface(capsys, argv, code):
    assert main(argv) == code
    out = capsys.readouterr().out
    if code == 1:
        assert out == ""
        return
    assert out.lower().startswith("usage:")
    if argv == ["--help"]:
        for cmd in MATRIX_COMMANDS + ("bench",):
            assert re.search(rf"^ +{cmd}\b", out, re.M), cmd


def test_long_modulus_exit1(tmp_path, capsys):
    # more digits than int() converts (sys.get_int_max_str_digits(), 4,300)
    modulus = "1" * 4400
    path = tmp_path / "long.txt"
    path.write_text(f"field gfp {modulus}\nrows 1\ncols 1\n1\n")
    for argv in (["rank", str(path)],
                 ["rank", str(DATA / "gf7_worked.txt"), "--field", f"gfp {modulus}"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: modulus of 4400 digits is too long to parse\n"


def test_bad_cutoff_exit1(capsys):
    assert main(["leu", str(DATA / "gf7_worked.txt"), "--cutoff", "0"]) == 1


MATRIX_COMMANDS = ("leu", "bruhat", "invert", "rank", "kernel", "block", "verify")


@pytest.mark.parametrize("argv", [[cmd, str(DATA / "gf7_worked.txt")] for cmd in MATRIX_COMMANDS]
                         + [["bench"]], ids=MATRIX_COMMANDS + ("bench",))
def test_cutoff_below_one_exit1_on_every_command(capsys, argv):
    # checked before the input is read, even where the products are classical
    assert main(argv + ["--cutoff", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cutoff must be >= 1\n"


@pytest.mark.parametrize("data", ["gf7_worked.txt", "gf7_nilpotent.txt", "rational_3x3.txt"])
def test_count_mults_appends_totals_except_to_verify(capsys, data):
    path = str(DATA / data)
    for cmd in MATRIX_COMMANDS:
        code = main([cmd, path])
        plain = capsys.readouterr().out
        assert main([cmd, path, "--count-mults"]) == code
        out = capsys.readouterr().out
        if cmd == "verify":
            # every line of verify is a check
            assert out == plain
            assert out and all(line.endswith(": PASS") for line in out.splitlines())
        elif code == 0:
            assert out.startswith(plain)
            mults, invs = out[len(plain):].splitlines()
            assert mults.startswith("mults ") and invs.startswith("invs ")


def test_verify_exit0_on_any_parseable_matrix(capsys):
    assert main(["verify", str(DATA / "gf7_nilpotent.txt")]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "inverse-singular-agrees: PASS" in out


def test_field_override(capsys):
    assert main(["rank", str(DATA / "gf7_worked.txt"), "--field", "rational"]) == 0
    assert capsys.readouterr().out == "rank 2\n"
    assert main(["rank", str(DATA / "gf7_worked.txt"), "--field", "gfp 10"]) == 1


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["leu", str(DATA / "gf7_worked.txt"), "--count-mults",
                 "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == golden("leu_gf7_worked.txt")


def test_strassen_mode(capsys):
    assert main(["leu", str(DATA / "gf7_worked.txt"), "--mul", "strassen",
                 "--cutoff", "1", "--count-mults"]) == 0
    out = capsys.readouterr().out
    assert "mults 17\n" in out  # 17 products of 1x1 blocks


def test_debug_checks_flag(capsys):
    assert main(["leu", str(DATA / "gf7_worked.txt"), "--debug-checks"]) == 0
    capsys.readouterr()


def test_bench_matrix_deterministic():
    A = bench_matrix(8, 42)
    B = bench_matrix(8, 42)
    assert A == B
    assert A != bench_matrix(8, 43)
    from leu.oracle import gauss_rank

    assert gauss_rank(A) == 8


def test_bench_csv_shape(capsys):
    assert main(["bench", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "n,mode,mults,invs"
    assert len(lines) == 1 + 2 * len(BENCH_SIZES)
    for k, n in enumerate(BENCH_SIZES):
        cl = lines[1 + 2 * k].split(",")
        st = lines[2 + 2 * k].split(",")
        assert cl[:2] == [str(n), "classical"]
        assert st[:2] == [str(n), "strassen"]
        assert int(cl[2]) == 17 * (n**3 - n**2) // 4
        assert cl[3] == st[3]  # inversions do not depend on the mul mode


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "leu.cli", "invert", str(DATA / "gf7_nilpotent.txt")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "singular rank=1\n"

    proc = subprocess.run(
        [sys.executable, "-m", "leu.cli", "leu", str(DATA / "gf7_worked.txt"),
         "--count-mults"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden("leu_gf7_worked.txt")


def test_cli_imports_no_third_party_module():
    code = ("import sys; sys.modules['click'] = None; from leu.cli import main; "
            f"sys.exit(main(['rank', {str(DATA / 'gf7_worked.txt')!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rank 2\n"


VERIFY_SINGULAR = "".join(
    f"{name}: PASS\n"
    for name in ("lower-triangular", "upper-unitriangular", "reconstruction", "support-form",
                 "support-form-inverse", "rank-oracle", "kernel-annihilation",
                 "kernel-nullity-oracle", "inverse-singular-agrees")
)


def _count_calls(monkeypatch, module_names, attr):
    # wrap one function under every name it is imported as; returns the calls
    import importlib

    calls = []
    original = getattr(importlib.import_module(module_names[0]), attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name in module_names:
        monkeypatch.setattr(importlib.import_module(name), attr, counted)
    return calls


@pytest.mark.parametrize(
    "data,want",
    [
        ("gf7_worked.txt", golden("verify_worked.txt")),
        ("rational_3x3.txt", golden("verify_worked.txt")),
        ("gf7_nilpotent.txt", VERIFY_SINGULAR),
        (None, VERIFY_SINGULAR),
    ],
    ids=["full-rank", "rational", "singular", "zero"],
)
@pytest.mark.parametrize("flags", [[], ["--mul", "strassen", "--cutoff", "1"], ["--debug-checks"]],
                         ids=["classical", "strassen", "debug-checks"])
def test_verify_decomposes_once(tmp_path, monkeypatch, capsys, data, want, flags):
    # every check of verify reads one decomposition: the kernel and the
    # inverse checks reuse it instead of decomposing the matrix again
    if data is None:
        path = tmp_path / "zero.txt"
        path.write_text("field gfp 7\nrows 3\ncols 3\n0 0 0\n0 0 0\n0 0 0\n")
    else:
        path = DATA / data
    calls = _count_calls(monkeypatch, ["leu.decompose", "leu.derived"], "_leu_blocks")
    assert main(["verify", str(path)] + flags) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == want


def test_inverse_singular_agrees_reads_the_oracle(monkeypatch, capsys):
    # a decomposition that drops one of E's ones calls the full-rank worked
    # example singular; the inverse then reports that decomposition's own
    # rank, so the check must compare it with the oracle's
    import leu.cli
    from leu import LeuResult, TruncPerm, leu_decompose

    def dropped(A, counter=None, **kw):
        res = leu_decompose(A, counter, **kw)
        return LeuResult(res.L, TruncPerm(res.E.n, res.E.ones[1:]), res.U, res.counter)

    monkeypatch.setattr(leu.cli, "leu_decompose", dropped)
    assert main(["verify", str(DATA / "gf7_worked.txt")]) == 1
    assert "inverse-singular-agrees: FAIL\n" in capsys.readouterr().out


def test_debug_checks_reach_the_node_checks(monkeypatch, capsys):
    # with debug_checks the rank, the kernel and the block (verify=True) run
    # the per-node contract checks of the decomposition they rest on;
    # without it they do not
    from leu import kernel_basis, largest_nonsingular_block, mat_rank
    from leu.textio import parse_matrix

    calls = _count_calls(monkeypatch, ["leu.decompose"], "_debug_node")
    A = parse_matrix((DATA / "gf7_worked.txt").read_text())
    wide = parse_matrix("field gfp 7\nrows 2\ncols 3\n3 1 4\n2 5 1\n")
    for B in (A, wide):
        plain = kernel_basis(B), mat_rank(B)
        assert not calls
        assert kernel_basis(B, debug_checks=True) == plain[0]
        assert calls
        calls.clear()
        assert mat_rank(B, debug_checks=True) == plain[1]
        assert calls
        calls.clear()
    plain = largest_nonsingular_block(A)
    assert not calls
    assert largest_nonsingular_block(A, verify=True) == plain
    assert calls
    calls.clear()
    for command in ("rank", "block"):
        assert main([command, str(DATA / "gf7_worked.txt")]) == 0
        out = capsys.readouterr().out
        assert not calls
        assert main([command, str(DATA / "gf7_worked.txt"), "--debug-checks"]) == 0
        assert calls
        calls.clear()
        assert capsys.readouterr().out == out


def test_the_root_node_checks_the_padding(monkeypatch):
    # a 3 x 5 input is the real block of an 8 x 8 root, entered with the
    # masks of its own rows and columns: the padded region is never stored,
    # and the root's node checks run on the real block
    from leu import kernel_basis
    from leu.textio import parse_matrix

    calls = _count_calls(monkeypatch, ["leu.decompose"], "_debug_node")
    A = parse_matrix("field gfp 7\nrows 3\ncols 5\n3 1 4 1 5\n2 6 5 3 5\n0 0 1 2 3\n")
    kernel_basis(A, debug_checks=True)
    # the checks run after the children's, so the root's come last
    assert calls[-1][3:5] == (0b111, 0b11111)
