import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bwa import BlackWhiteArray, ReferenceModel, cli, generate_ops, read_csv
from bwa.cli import main
from bwa.oracle import KINDS

CASCADE_SCRIPT = """\
insert 83
insert 67
insert 59
insert 21
insert 76
insert 33
insert 45
insert 52
"""

CASCADE_GOLDEN = """\
> insert 83
rank=0 [83]
> insert 67
rank=1 [67,83]
> insert 59
rank=1 [67,83]
rank=0 [59]
> insert 21
rank=2 [21,59,67,83]
> insert 76
rank=2 [21,59,67,83]
rank=0 [76]
> insert 33
rank=2 [21,59,67,83]
rank=1 [33,76]
> insert 45
rank=2 [21,59,67,83]
rank=1 [33,76]
rank=0 [45]
> insert 52
rank=3 [21,33,45,52,59,67,76,83]
"""

DEMOTION_SCRIPT = """\
insert 6
insert 10
insert 20
insert 52
insert 59
insert 67
insert 70
insert 83
insert 21
insert 77
insert 80
insert 91
insert 45
insert 82
delete 10
delete 20
delete 70
delete 80
delete 59
"""

DEMOTION_GOLDEN_TAIL = """\
> delete 10 -> hit @9
rank=3 [6,·,20,52,59,67,70,83]
rank=2 [21,77,80,91]
rank=1 [45,82]
> delete 20 -> hit @10
rank=3 [6,·,·,52,59,67,70,83]
rank=2 [21,77,80,91]
rank=1 [45,82]
> delete 70 -> hit @14
rank=3 [6,·,·,52,59,67,·,83]
rank=2 [21,77,80,91]
rank=1 [45,82]
> delete 80 -> hit @6
rank=3 [6,·,·,52,59,67,·,83]
rank=2 [21,77,·,91]
rank=1 [45,82]
> delete 59 -> hit @12
rank=3 [6,21,52,67,77,83,91,·]
rank=1 [45,82]
"""


class TestSort:
    def test_three_numbers(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 1 2"))
        assert main(["sort"]) == 0
        assert capsys.readouterr().out == "1 2 3\n"

    def test_matches_standard_sort(self, monkeypatch, capsys):
        import random
        rng = random.Random(31)
        values = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(10_000)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(map(str, values))))
        assert main(["sort"]) == 0
        expected = " ".join(map(str, sorted(values))) + "\n"
        assert capsys.readouterr().out == expected

    def test_empty_input(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["sort"]) == 0
        assert capsys.readouterr().out == "\n"

    def test_non_integer_input_fails(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("12 x 3"))
        assert main(["sort"]) == 1
        assert "bwa sort" in capsys.readouterr().err

    def test_value_outside_int64_fails(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 99999999999999999999 1"))
        assert main(["sort"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "bwa sort: 99999999999999999999 does not fit in int64\n"

    def test_first_value_outside_int64_named(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("5 -9223372036854775809 0 9223372036854775808"))
        assert main(["sort"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "bwa sort: -9223372036854775809 does not fit in int64\n"

    def test_int64_extremes_sorted(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("9223372036854775807 0 -9223372036854775808"))
        assert main(["sort"]) == 0
        assert capsys.readouterr().out == \
            "-9223372036854775808 0 9223372036854775807\n"

    def test_tokens_parse_as_int_does(self, monkeypatch, capsys):
        # signs, digit separators, Unicode whitespace and Unicode digits
        monkeypatch.setattr("sys.stdin", io.StringIO("+5\t1_000\n-0 \u0661\u0662"))
        assert main(["sort"]) == 0
        assert capsys.readouterr().out == "0 5 12 1000\n"

    def test_bad_token_named_before_value_outside_int64(self, monkeypatch,
                                                        capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("12 99999999999999999999 x"))
        assert main(["sort"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("bwa sort: invalid literal for int() with base 10: "
                       "'x'\n")

    def test_decode_error_fails_cleanly(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"1 \xff 2"), encoding="utf-8",
                                 errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["sort"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bwa sort: stdin is not UTF-8 text: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, out, bad", [
        (" \n\t\x0b\x0c\r ", "\n", None),
        ("-", "", "'-'"),
        ("+", "", "'+'"),
        ("1 - 2", "", "'-'"),
        ("- 5", "", "'-'"),
        ("1 -", "", "'-'"),
        ("5-3", "", "'5-3'"),
        ("3\x1c1\x1f2\xa00", "0 1 2 3\n", None),
        ("0" * 700 + "5 -1", "-1 5\n", None),
    ])
    def test_numpy_disagreements_parse_as_int_does(self, monkeypatch, capsys,
                                                    text, out, bad):
        # inputs numpy's text parser reads otherwise than int() per token
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["sort"]) == (1 if bad else 0)
        err = bad and f"bwa sort: invalid literal for int() with base 10: {bad}\n"
        assert capsys.readouterr() == (out, err or "")

    def test_token_over_the_digit_limit_fails(self, monkeypatch, capsys):
        # numpy reads it as 5; int() refuses its 4302 digits
        monkeypatch.setattr("sys.stdin", io.StringIO("0" * 4301 + "5"))
        assert main(["sort"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bwa sort: Exceeds the limit (4300 digits)")

    def test_plain_text_skips_the_token_path(self, monkeypatch, capsys):
        # numpy's parser reads it: a deprecation of its text mode shows here
        def token_path(tokens, dtype):
            raise AssertionError("token path taken")
        monkeypatch.setattr(cli, "_parse_ints", token_path)
        monkeypatch.setattr("sys.stdin", io.StringIO("-3 +1\r\n0\t2\x0b7"))
        assert main(["sort"]) == 0
        assert capsys.readouterr().out == "-3 0 1 2 7\n"

    def test_numpy_warning_takes_the_token_path(self, monkeypatch, capsys):
        # older numpy warns at an unparsed character and returns what it read
        def fromstring(text, dtype, sep):
            warnings.warn("string or file could not be read to its end due "
                          "to unmatched data", DeprecationWarning)
            return np.array([1], dtype)
        monkeypatch.setattr(np, "fromstring", fromstring)
        monkeypatch.setattr("sys.stdin", io.StringIO("1 x 2"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["sort"]) == 1
        assert capsys.readouterr() == (
            "", "bwa sort: invalid literal for int() with base 10: 'x'\n")


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# one draw per class where numpy's text parser and int() can disagree
_PIECES = [" ", "\n", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e",
           "\x1f", "\xa0", "_", "\u0661", "\x00", "+", "-", "5-3", "1 -",
           "- 5", "1_000", "007", str(_INT64_MIN), str(_INT64_MAX),
           str(_INT64_MIN - 1), str(_INT64_MAX + 1), "1" * 20, "9" * 20,
           "0" * 622 + "1", "0" * 4301 + "1"]
_texts = st.lists(st.one_of(st.sampled_from(_PIECES),
                            st.integers(_INT64_MIN - 2, _INT64_MAX + 2).map(str),
                            st.text(" \t\n+-0123456789_x.", max_size=4)),
                  max_size=12).map("".join)


def _outcome(parse, *args):
    try:
        batch = parse(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return batch.dtype, batch.tolist()


@settings(max_examples=400, deadline=None)
@given(_texts)
def test_sort_parse_matches_int_per_token(text):
    assert _outcome(cli._read_ints, text) == \
        _outcome(cli._parse_ints, text.split(), np.dtype(np.int64))


def _signs_lead_digits_spec(text):
    """Every ``+`` and ``-`` at the start or after numpy's whitespace, and
    followed by an ASCII digit, read one character at a time."""
    padded = f" {text} "
    return all(padded[k - 1] in " \t\n\v\f\r" and padded[k + 1] in "0123456789"
               for k, c in enumerate(padded) if c in "+-")


@pytest.mark.parametrize("text, want", [
    ("-1 2", True), ("+1 2", True), ("1 2-", False), ("1 2+", False),
    ("+", False), ("-", False), ("1 +", False), ("+1", True), ("", True),
    ("1-2", False), ("\t-3\n+4", True), ("1 -+2", False), ("- 1", False)])
def test_sign_check_cases(text, want):
    # a sign as the first byte, as the last byte, and alone
    assert cli._signs_lead_digits(text) == want
    assert _signs_lead_digits_spec(text) == want


@settings(max_examples=400, deadline=None)
@given(st.text("12 -+\n\t\x0b\x0c\r", max_size=14))
def test_sign_check_matches_spec(text):
    assert cli._signs_lead_digits(text) == _signs_lead_digits_spec(text)


class TestTrace:
    def test_cascade_golden(self, tmp_path, capsys):
        script = tmp_path / "cascade.txt"
        script.write_text(CASCADE_SCRIPT)
        assert main(["trace", "--script", str(script)]) == 0
        assert capsys.readouterr().out == CASCADE_GOLDEN

    def test_demotion_golden(self, tmp_path, capsys):
        script = tmp_path / "demotion.txt"
        script.write_text(DEMOTION_SCRIPT)
        assert main(["trace", "--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert out.endswith(DEMOTION_GOLDEN_TAIL)

    def test_search_verdicts_and_comments(self, tmp_path, capsys):
        script = tmp_path / "s.txt"
        script.write_text("# smoke\ninsert 7\nsearch 7\nsearch 8\ndelete 7\n")
        assert main(["trace", "--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "> search 7 -> hit @1" in out
        assert "> search 8 -> miss" in out
        assert "> delete 7 -> hit @1" in out
        assert out.rstrip().endswith("(empty)")

    def test_compact_prints_no_result(self, tmp_path, capsys):
        script = tmp_path / "compact.txt"
        script.write_text("insert 5\ninsert 3\ninsert 9\ninsert 1\ninsert 7\n"
                          "insert 4\ninsert 8\ndelete 3\ncompact\n")
        assert main(["trace", "--script", str(script)]) == 0
        assert capsys.readouterr().out.endswith(
            "> delete 3 -> hit @5\nrank=2 [1,·,5,9]\nrank=1 [4,7]\nrank=0 [8]\n"
            "> compact\nrank=3 [1,4,5,7,8,9,·,·]\n")

    def test_missing_script_fails(self, capsys):
        assert main(["trace", "--script", "/no/such/file"]) == 1
        assert "bwa trace" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("shuffle 2", "cannot parse 'shuffle 2'"),
        ("extract_min 3", "cannot parse 'extract_min 3'"),
        ("interval 5", "cannot parse 'interval 5'"),
        ("search x", "invalid literal for int() with base 10: 'x'"),
        ("interval 9 3", "interval requires lo <= hi, got (9, 3)"),
    ])
    def test_bad_op_line_fails(self, tmp_path, capsys, line, message):
        script = tmp_path / "bad.txt"
        script.write_text(f"insert 1\n{line}\ninsert 2\n")
        assert main(["trace", "--script", str(script)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "> insert 1\nrank=0 [1]\n"
        assert captured.err.startswith(f"bwa trace: line 2: {message}")
        assert captured.err.count("\n") == 1

    def test_generated_ops_replay_as_the_model_answers(self, tmp_path, capsys):
        ops = generate_ops(seed=9, n=400, mix=dict.fromkeys(KINDS, 1)
                           | {"insert": 4}, value_range=64)
        assert {op.kind for op in ops} == set(KINDS)
        script = tmp_path / "ops.txt"
        script.write_text("".join(f"{op}\n" for op in ops))
        assert main(["trace", "--script", str(script)]) == 0
        steps = [line[2:] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("> ")]
        model = ReferenceModel()
        assert len(steps) == len(ops)
        for op, step in zip(ops, steps):
            expected = getattr(model, op.kind)(*op.args)
            if op.kind in ("insert", "compact"):
                assert step == str(op)
            elif op.kind in ("search", "delete"):
                line, verdict = step.split(" -> ")
                assert line == str(op)
                assert verdict.startswith("hit @" if expected else "miss")
            else:
                assert step == f"{op} -> {expected}"

    def test_script_with_byte_order_mark(self, tmp_path, capsys):
        script = tmp_path / "bom.txt"
        script.write_bytes(b"\xef\xbb\xbfinsert 5\n")
        assert main(["trace", "--script", str(script)]) == 0
        assert capsys.readouterr() == ("> insert 5\nrank=0 [5]\n", "")

    @pytest.mark.parametrize("value", ["99999999999999999999999",
                                       "-99999999999999999999999"])
    def test_value_outside_int64_fails_cleanly(self, tmp_path, capsys, value):
        script = tmp_path / "big.txt"
        # the second line exercises both the free rank-0 slot and the carry
        script.write_text(f"insert 5\ninsert {value}\n")
        assert main(["trace", "--script", str(script)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"bwa trace: line 2: {value} does not fit in int64\n"
        assert captured.out == "> insert 5\nrank=0 [5]\n"
        script.write_text(f"insert {value}\n")
        assert main(["trace", "--script", str(script)]) == 1
        assert capsys.readouterr().err.startswith("bwa trace: line 1: ")


    def test_script_not_utf8_fails_cleanly(self, tmp_path, capsys):
        script = tmp_path / "latin.txt"
        script.write_bytes(b"\xff\xfe 1 2\n")
        assert main(["trace", "--script", str(script)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"bwa trace: {script}: not UTF-8 text")
        assert captured.err.count("\n") == 1


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["sort", "trace"])
    def test_exits_one_with_stdout_on_devnull(self, command, tmp_path,
                                              monkeypatch, capsys):
        script = tmp_path / "t.txt"
        script.write_text("insert 3\ninsert 1\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("3 1 2"))
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdout", _ClosedPipe(fd))
            argv = ["sort"] if command == "sort" else ["trace", "--script", str(script)]
            assert main(argv) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_sort_into_pipe_closed_early(self, tmp_path):
        import bwa
        nums = tmp_path / "nums.txt"
        nums.write_text(" ".join(map(str, range(300_000, 0, -1))))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bwa.__file__).resolve().parents[1]))
        with open(nums) as stdin:
            proc = subprocess.Popen([sys.executable, "-m", "bwa.cli", "sort"],
                                    stdin=stdin, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, env=env)
            assert proc.stdout.read(5) == b"1 2 3"
            proc.stdout.close()             # far more output is still to come
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 1
        assert err == b""


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["verify", "--size-exp", "8", "--ops", "2000",
                     "--seed", "7"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_divergence_exits_one(self, monkeypatch, capsys):
        from bwa.oracle import Divergence, OpRecord
        div = Divergence(17, OpRecord("search", 5), True, False)
        monkeypatch.setattr("bwa.cli.run_equivalence",
                            lambda **kwargs: div)
        assert main(["verify", "--ops", "100"]) == 1
        assert "step 17" in capsys.readouterr().out

    def test_lying_bound_exits_one(self, monkeypatch, capsys):
        class LyingBound(BlackWhiteArray):
            def lower_bound(self, value):
                return None
        monkeypatch.setattr("bwa.cli.BlackWhiteArray", LyingBound)
        assert main(["verify", "--size-exp", "8", "--ops", "2000",
                     "--seed", "7"]) == 1
        assert "lower_bound" in capsys.readouterr().out

    def test_bad_arguments_exit_two(self, capsys):
        assert main(["verify", "--size-exp", "0"]) == 2

    @pytest.mark.parametrize("exp", ["63", "70"])
    def test_size_exp_beyond_int64_exits_two(self, capsys, exp):
        assert main(["verify", "--size-exp", exp, "--ops", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bwa verify: size-exp must lie in [1, 62]")
        assert err.count("\n") == 1

    def test_unallocatable_size_exits_one(self, capsys):
        # 2**62 int64 slots pass numpy's size limit: refused, not allocated
        assert main(["verify", "--size-exp", "62", "--ops", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bwa verify: cannot allocate 2**62 slots")
        assert err.count("\n") == 1


class TestBench:
    def test_tiny_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["bench", "--min-exp", "10", "--max-exp", "10",
                   "--ops", "insert", "--config", "perfect", "--trials", "1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0].op == "insert" and rows[0].size_exp == 10

    def test_unknown_op_exits_two(self, tmp_path, capsys):
        rc = main(["bench", "--ops", "insert,frobnicate",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "bwa bench" in capsys.readouterr().err

    @pytest.mark.parametrize("exp", ["61", "70"])
    def test_exponent_beyond_int64_exits_two(self, tmp_path, capsys, exp):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--min-exp", exp, "--max-exp", exp,
                   "--ops", "search", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("bwa bench: need 1 <= min_exp <= max_exp <= 60")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_largest_exponent_is_skipped_not_allocated(self, tmp_path, capsys):
        # 2**60 values pass numpy's size limit: the size is skipped
        out = tmp_path / "x.csv"
        rc = main(["bench", "--min-exp", "60", "--max-exp", "60",
                   "--ops", "insert,search", "--config", "perfect",
                   "--out", str(out)])
        assert rc == 0
        assert read_csv(out) == []
        assert "size skipped" in capsys.readouterr().err

    def test_unwritable_out_exits_one(self, capsys):
        rc = main(["bench", "--min-exp", "10", "--max-exp", "10",
                   "--ops", "insert", "--trials", "1",
                   "--out", "/no/such/dir/x.csv"])
        assert rc == 1

    def test_unwritable_out_fails_before_the_sweep(self, monkeypatch, capsys):
        def no_sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_bench", no_sweep)
        rc = main(["bench", "--out", "/nonexistent/dir/x.csv"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "bwa bench: cannot write benchmark CSV to /nonexistent/dir/x.csv")

    def test_failed_sweep_keeps_existing_out(self, monkeypatch, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("kept\n")

        def failing(cfg):
            raise MemoryError("sweep failed")

        monkeypatch.setattr(cli, "run_bench", failing)
        with pytest.raises(MemoryError):
            main(["bench", "--out", str(out)])
        assert out.read_text() == "kept\n"


class TestFlagParsing:
    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])  # --out is required
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sort", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
