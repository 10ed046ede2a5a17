import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bwa import read_csv
from bwa.cli import main

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

    def test_missing_script_fails(self, capsys):
        assert main(["trace", "--script", "/no/such/file"]) == 1
        assert "bwa trace" in capsys.readouterr().err

    def test_bad_op_line_fails(self, tmp_path, capsys):
        script = tmp_path / "bad.txt"
        script.write_text("insert 1\nshuffle 2\n")
        assert main(["trace", "--script", str(script)]) == 1

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
