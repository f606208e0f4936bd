"""End-to-end tests of the command-line surface."""
import contextlib
import io
import json
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylgf import genfun, lemmas
from cylgf.cli import main
from cylgf.cylindric import Profile, enumerate_table
from cylgf.series import NotAUnitError
from cylgf.slices import iter_slices, shape_count


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_borodin_text(self, capsys):
        code, out, _ = run(capsys, "expand", "--profile", "1,1",
                           "--order", "8", "--method", "borodin")
        assert code == 0
        assert out == "[1, 2, 3, 6, 10, 16, 25, 38, 57]\n"

    def test_chain_order_zero(self, capsys):
        code, out, _ = run(capsys, "expand", "--profile", "2,1",
                           "--order", "0", "--method", "chain")
        assert code == 0 and out == "[1]\n"

    def test_chain_distinct(self, capsys):
        code, out, _ = run(capsys, "expand", "--profile", "1,1",
                           "--order", "4", "--method", "chain-distinct")
        # (1+2q)(1+q^2)(1+2q^3)(1+q^4) = 1 + 2q + q^2 + 4q^3 + 5q^4 + ...
        assert code == 0 and out == "[1, 2, 1, 4, 5]\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "expand", "--profile", "1,1", "--order", "3",
                           "--method", "borodin", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"order": 3, "coeffs": ["1", "2", "3", "6"]}

    def test_methods_agree(self, capsys):
        results = set()
        for method in ("borodin", "chain"):
            _, out, _ = run(capsys, "expand", "--profile", "1,1,1",
                            "--order", "10", "--method", method)
            results.add(out)
        assert len(results) == 1

    def test_bad_profile(self, capsys):
        code, _, err = run(capsys, "expand", "--profile", "x,y",
                           "--order", "3", "--method", "chain")
        assert code == 2 and "error" in err

    def test_zero_level_profile(self, capsys):
        code, _, err = run(capsys, "expand", "--profile", "0,0",
                           "--order", "3", "--method", "chain")
        assert code == 2

    def test_determinism(self, capsys):
        a = run(capsys, "expand", "--profile", "2,2", "--order", "10",
                "--method", "borodin")
        b = run(capsys, "expand", "--profile", "2,2", "--order", "10",
                "--method", "borodin")
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "series.txt"
        code, out, _ = run(capsys, "expand", "--profile", "1,1", "--order", "2",
                           "--method", "chain", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == "[1, 2, 3]\n"

    def test_out_file_unwritable(self, capsys, tmp_path):
        code, out, err = run(capsys, "expand", "--profile", "1,1", "--order", "2",
                             "--method", "chain", "--out",
                             str(tmp_path / "absent" / "series.txt"))
        assert code == 2 and out == "" and err.startswith("error:")


class TestCount:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--profile", "1,1", "--order", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "max,size,count"
        assert "1,1,2" in lines and "1,2,1" in lines

    def test_order_zero(self, capsys):
        code, out, _ = run(capsys, "count", "--profile", "2,1", "--order", "0")
        assert code == 0 and out == "max,size,count\n0,0,1\n"

    def test_marginals_match_expand(self, capsys):
        _, csv_out, _ = run(capsys, "count", "--profile", "1,1,1",
                            "--order", "8")
        totals = [0] * 9
        for line in csv_out.splitlines()[1:]:
            _m, n, cnt = (int(x) for x in line.split(","))
            totals[n] += cnt
        _, series_out, _ = run(capsys, "expand", "--profile", "1,1,1",
                               "--order", "8", "--method", "borodin")
        assert series_out.strip() == "[" + ", ".join(map(str, totals)) + "]"


class TestFlow:
    def test_table_restriction(self, capsys):
        code, out, _ = run(capsys, "flow", "--profile", "2,1",
                           "--max-weight", "4")
        assert code == 0
        assert out.count("->") == 9
        assert out.endswith("}\n")

    def test_small(self, capsys):
        code, out, _ = run(capsys, "flow", "--profile", "1,1",
                           "--max-weight", "2")
        assert code == 0
        assert out.count("[label=") == 3 and out.count("->") == 2

    def test_weight_one_edgeless(self, capsys):
        code, out, _ = run(capsys, "flow", "--profile", "1,1",
                           "--max-weight", "1")
        assert code == 0 and "->" not in out


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "1.2", "--order", "60")
        assert code == 0 and out == "1.2,order=60,PASS\n"

    def test_gasper(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "gasper",
                           "--z-power", "1", "--order", "40")
        assert code == 0 and "PASS" in out
        # term n has degree n(n-1)/2 + z*n: with z at or past the order at
        # most term 1 is in range, and no term past it may be built
        for z in (40, 41, 2 ** 40, 10 ** 30):
            code, out, _ = run(capsys, "verify", "--id", "gasper",
                               "--z-power", str(z), "--order", "40")
            assert code == 0 and "PASS" in out, z

    def test_lemma_tag(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "L4.2(2)", "--order", "30")
        assert code == 0 and "PASS" in out

    def test_huge_lemma_block(self, capsys):
        # a block of M = 10^8 puts every term at degree about M^2 or more,
        # past the order: the answer is the zero series, and no list of M
        # exponents may be built for it
        for tag in ("L4.2(99999999)", "L4.1(0,99999999)", "L5.5(99999999)",
                    "L5.1(99999999999,99999999)", "L4.4(1,99999999,1)"):
            code, out, _ = run(capsys, "verify", "--id", tag, "--order", "5")
            assert (code, out) == (0, f"{tag},order=5,PASS\n"), tag

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "7.7", "--order", "10")
        assert code == 2 and "error" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "1.3", "--order", "5",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree,lhs,rhs,equal"
        assert len(lines) == 7
        assert all(line.endswith(",true") for line in lines[1:])

    def test_needs_id_or_all(self, capsys):
        code, _, err = run(capsys, "verify", "--order", "10")
        assert code == 2


class TestDecompose:
    PART = '{"profile":[2,1],"rows":[[2,2,1],[3]]}'

    def test_inline(self, capsys):
        code, out, _ = run(capsys, "decompose", "--json", self.PART)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("term=dq^4")
        assert lines[1].endswith("term=cq^3")
        assert lines[2].endswith("term=aq^1")

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(self.PART)
        code, out, _ = run(capsys, "decompose", "--file", str(path))
        assert code == 0 and len(out.splitlines()) == 3

    def test_boards(self, capsys):
        code, out, _ = run(capsys, "decompose", "--json", self.PART, "--boards")
        assert code == 0
        assert "...###\n..#" in out

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "decompose", "--json",
                           '{"profile":[1,1],"rows":[[],[]]}')
        assert code == 0 and out == "\n"

    def test_invalid_partition(self, capsys):
        code, _, err = run(capsys, "decompose", "--json",
                           '{"profile":[1,1],"rows":[[1,1],[]]}')
        assert code == 2 and "error" in err

    def test_bad_json(self, capsys):
        code, _, _ = run(capsys, "decompose", "--json", "{nope")
        assert code == 2

    @pytest.mark.parametrize("text", [
        '[1,2]',
        '{"profile":"ab","rows":[]}',
        '{"profile":[1,1],"rows":[[1.5],[]]}',
        '{"profile":[1,1],"rows":[[true],[]]}',
        '{"profile":[true,1],"rows":[[],[]]}',
        '{"profile":[1,1]}',
        '{"profile":[1,1],"rows":[1,2]}',
    ])
    def test_malformed_partition(self, capsys, text):
        code, out, err = run(capsys, "decompose", "--json", text)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "decompose", "--file",
                           str(tmp_path / "absent.json"))
        assert code == 2 and err.startswith("error:")


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["expand", "--profile", "2,1", "--order", "-1", "--method", "chain"],
        ["expand", "--profile", "2,1", "--order", "-1",
         "--method", "chain-distinct"],
        ["expand", "--profile", "2,1", "--order", "-1", "--method", "borodin"],
        ["count", "--profile", "2,1", "--order", "-1"],
        ["verify", "--id", "1.2", "--order", "-1"],
        ["verify", "--all", "--order", "-1"],
        ["flow", "--profile", "2,1", "--max-weight", "0"],
        ["flow", "--profile", "2,1", "--max-weight", "-3"],
        ["expand", "--profile", "2,1", "--order", "x", "--method", "chain"],
    ])
    def test_out_of_range_number(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "" and "error:" in out.err

    @pytest.mark.parametrize("argv", [
        # options a command does not take
        ["flow", "--profile", "2,1", "--max-weight", "2", "--verbose"],
        ["flow", "--profile", "2,1", "--max-weight", "2", "--format", "dot"],
        ["decompose", "--json", TestDecompose.PART, "--verbose"],
        # a fixed-k lemma tag takes k and at most one block length
        ["verify", "--id", "L4.1(3,2,5)", "--order", "10"],
        ["verify", "--id", "L5.1(3,2,99)", "--order", "10"],
        # z = q^Z belongs to the gasper identity alone
        ["verify", "--id", "1.2", "--z-power", "3", "--order", "5"],
        ["verify", "--id", "1.2", "--z-power", "3", "--order", "5",
         "--format", "csv"],
        ["verify", "--id", "L4.2(2)", "--z-power", "1", "--order", "5"],
        ["verify", "--all", "--z-power", "2", "--order", "5"],
        ["verify", "--all", "--id", "gasper", "--z-power", "2", "--order", "5"],
        # the csv table belongs to a catalog identity alone
        ["verify", "--id", "L4.2(2)", "--order", "10", "--format", "csv"],
        ["verify", "--all", "--order", "4", "--format", "csv"],
    ])
    def test_rejected_input(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option
            code = exc.code
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "error:" in out.err and "Traceback" not in out.err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe",  # not UTF-8
        b"[" * 5000 + b"]" * 5000,  # nested past the recursion limit
        b'{"profile": [1' + b"0" * 5000 + b'], "rows": []}',  # int digit limit
    ], ids=["not-utf8", "too-deep", "too-many-digits"])
    @pytest.mark.parametrize("source", ["--json", "--file"])
    def test_undecodable_partition(self, capsys, tmp_path, source, content):
        if source == "--file":
            path = tmp_path / "part.json"
            path.write_bytes(content)
            argv = ["decompose", "--file", str(path)]
        else:
            argv = ["decompose", "--json",
                    content.decode("utf-8", "surrogateescape")]
        code = main(argv)
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error:") and "Traceback" not in out.err

    def test_internal_key_error_is_not_bad_input(self, capsys, monkeypatch):
        def broken(profile, order):
            raise KeyError("bug")

        monkeypatch.setattr(genfun, "borodin", broken)
        code, out, err = run(capsys, "expand", "--profile", "1,1",
                             "--order", "3", "--method", "borodin")
        assert code == 3 and out == ""
        assert err.startswith("internal error: KeyError:")

    def test_contract_violation_exits_3(self, capsys, monkeypatch):
        def broken(profile, order):
            raise NotAUnitError("constant coefficient is zero")

        monkeypatch.setattr(genfun, "borodin", broken)
        code, out, err = run(capsys, "expand", "--profile", "1,1",
                             "--order", "3", "--method", "borodin")
        assert code == 3 and out == "" and err.startswith("internal error:")


# text in which no token can parse as an int: int() needs a decimal digit
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")),
                    max_size=6)
BAD_PROFILE = st.one_of(
    NO_DIGITS,
    st.lists(NO_DIGITS, min_size=1, max_size=3).map(",".join),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4)
    .filter(lambda parts: min(parts) < 0 or not any(parts))
    .map(lambda parts: ",".join(map(str, parts))),
)
BAD_NUMBER = st.one_of(NO_DIGITS, st.integers(-10 ** 6, -1).map(str),
                       st.sampled_from(["1.5", "1e3", "0x10", "--1"]))


class TestMalformedInput:
    """Malformed input exits 2 with a one-line message, never a traceback."""

    def exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the option
                code = exc.code
        assert out.getvalue() == "" and "Traceback" not in err.getvalue()
        assert "error:" in err.getvalue()
        self.err = err.getvalue()
        return code

    @settings(max_examples=80, deadline=None)
    @given(profile=BAD_PROFILE, order=st.integers(0, 4),
           command=st.sampled_from(["expand-chain", "expand-borodin", "count",
                                    "flow"]))
    @example(profile="--", order=0, command="expand-chain")
    def test_bad_profile(self, profile, order, command):
        if command == "flow":
            argv = ["flow", f"--profile={profile}", "--max-weight", "2"]
        else:
            argv = [command.split("-")[0], f"--profile={profile}",
                    "--order", str(order)]
            if command != "count":
                argv += ["--method", command.split("-")[1]]
        assert self.exit_code(argv) == 2

    @settings(max_examples=80, deadline=None)
    @given(value=BAD_NUMBER,
           command=st.sampled_from(["expand", "count", "flow"]))
    def test_bad_number(self, value, command):
        if command == "flow":
            argv = ["flow", "--profile", "2,1", f"--max-weight={value}"]
        else:
            argv = [command, "--profile", "2,1", f"--order={value}"]
            if command == "expand":
                argv += ["--method", "chain"]
        assert self.exit_code(argv) == 2

    def test_zero_max_weight(self):
        argv = ["flow", "--profile", "2,1", "--max-weight=0"]
        assert self.exit_code(argv) == 2

    # argparse hands `--opt=--` over as [] without the option's type or
    # choices; every value-taking option of every command
    @pytest.mark.parametrize("command, option", [
        (command, option) for command, options in {
            "expand": ["--profile", "--order", "--method", "--format", "--out"],
            "count": ["--profile", "--order", "--format", "--out"],
            "flow": ["--profile", "--max-weight", "--out"],
            "verify": ["--id", "--order", "--z-power", "--format", "--out"],
            "decompose": ["--json", "--file", "--out"],
        }.items() for option in options])
    def test_double_dash_value(self, command, option):
        valid = {"expand": ["--profile", "2,1", "--order", "3",
                            "--method", "borodin"],
                 "count": ["--profile", "2,1", "--order", "3"],
                 "flow": ["--profile", "2,1", "--max-weight", "2"],
                 "verify": ["--id", "gasper", "--z-power", "1", "--order", "3"],
                 "decompose": ["--json", '{"profile":[1,1],"rows":[[1],[]]}']}
        argv = valid[command]
        if option in argv:
            at = argv.index(option)
            argv = argv[:at] + argv[at + 2:]
        assert self.exit_code([command, *argv, f"{option}=--"]) == 2
        assert f"argument {option}:" in self.err


class TestVerbose:
    @pytest.mark.parametrize("method", ["borodin", "chain", "chain-distinct"])
    def test_counters_on_stderr_stdout_unchanged(self, capsys, method):
        argv = ["expand", "--profile", "2,1", "--order", "12",
                "--method", method]
        code, plain, quiet = run(capsys, *argv)
        code_v, out, err = run(capsys, *argv, "--verbose")
        assert code == code_v == 0 and out == plain and quiet == ""
        counters = json.loads(err)
        assert counters.pop("seconds") >= 0
        if method == "borodin":
            assert counters == {"factors": len(genfun.borodin_specs(
                Profile((2, 1))))}
        else:
            assert set(counters) == {"nodes", "shapes", "shape_pairs",
                                     "slot_bits"}
            assert counters["nodes"] == len(list(
                iter_slices(Profile((2, 1)), 12)))
            assert counters["shapes"] == shape_count(Profile((2, 1)))
            assert (0 < counters["shape_pairs"]
                    <= counters["nodes"] * counters["shapes"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_count(self, capsys, fmt):
        argv = ["count", "--profile", "2,1", "--order", "9", "--format", fmt]
        code, plain, quiet = run(capsys, *argv)
        code_v, out, err = run(capsys, *argv, "--verbose")
        assert code == code_v == 0 and out == plain and quiet == ""
        counters = json.loads(err)
        assert counters.pop("seconds") >= 0
        table = enumerate_table(Profile((2, 1)), 9)
        assert counters == {"partitions": sum(map(sum, table.counts))}

    @pytest.mark.parametrize("argv, identities, lemma_specs", [
        (["--all", "--order", "12"], None, None),
        (["--id", "1.4", "--order", "20"], 1, 0),
        (["--id", "1.4", "--order", "20", "--format", "csv"], 1, 0),
        (["--id", "gasper", "--z-power", "2", "--order", "20"], 1, 0),
        (["--id", "L4.4(1,2,1)", "--order", "30"], 0, 1),
        (["--id", "L4.1(2)", "--order", "30"], 0, 3),
    ])
    def test_verify(self, capsys, argv, identities, lemma_specs):
        code, plain, quiet = run(capsys, "verify", *argv)
        code_v, out, err = run(capsys, "verify", *argv, "--verbose")
        assert code == code_v == 0 and out == plain and quiet == ""
        counters = json.loads(err)
        assert counters.pop("seconds") >= 0
        if identities is None:
            # one stdout line per identity and per lemma spec of the grid
            grid = json.loads(files("cylgf.data").joinpath(
                "verify_all.json").read_text())
            lem = grid["lemmas"]
            identities = len(grid["identities"])
            lemma_specs = len(lemmas.grid(lem["n_max"], lem["m_max"],
                                          lem["k_max"]))
            assert len(out.splitlines()) == identities + lemma_specs
        assert counters == {"identities": identities,
                            "lemma_specs": lemma_specs}
