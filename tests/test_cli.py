"""End-to-end tests of the command-line surface."""
import contextlib
import importlib
import io
import json
import os
import pkgutil
import resource
import subprocess
import sys
from collections import Counter
from importlib.resources import files
from itertools import cycle, islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cylgf
from cylgf import cli, genfun, lemmas, slices
from cylgf.cli import _plain_args, build_parser, main
from cylgf.cylindric import Profile, enumerate_table
from cylgf.record import InputError, Record
from cylgf.series import (NotAUnitError, OrderMismatchError, PochSpecError,
                          Series)
from cylgf.slices import SliceError, iter_slices
from reference import chain_visits


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def package_exceptions():
    """Every exception class defined in a module of src/cylgf."""
    found = set()
    for info in pkgutil.iter_modules(cylgf.__path__):
        module = importlib.import_module(f"cylgf.{info.name}")
        found.update(
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


#: The errors that no input can raise: one that escapes a command is a bug.
CONTRACT_ERRORS = (SliceError, PochSpecError, OrderMismatchError,
                   NotAUnitError)


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

    def test_fail_line_shows_halves(self, capsys, monkeypatch):
        # both sides of L4.1(0,1) are computed as twice their series; a
        # FAIL line divides the two values back: q/2 against 3q/2 at q^1
        real = lemmas.closed_form
        monkeypatch.setattr(lemmas, "closed_form", lambda spec, order:
                            real(spec, order)
                            + Series.monomial(1, order).times(scale=2))
        code, out, _ = run(capsys, "verify", "--id", "L4.1(0,1)",
                           "--order", "8")
        assert (code, out) == (1, "L4.1(0,1),order=8,FAIL@q^1 lhs=1/2 "
                                  "rhs=3/2\n")

    def test_passing_run_loads_no_fractions(self):
        # the series layer is int-only: passing runs, the lemma with the
        # factor 1/2 among them, import neither fractions nor decimal
        src = str(Path(cylgf.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "from cylgf.cli import main; "
             "codes = [main(['verify', '--id', 'L4.1(0)', '--order', '12']), "
             "main(['verify', '--all', '--order', '12'])]; "
             "print(codes, sorted({'fractions', 'decimal'} & set(sys.modules)))",
             src],
            capture_output=True, text=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "[0, 0] []", proc.stderr

    def test_start_up_loads_no_dataclasses_inspect_or_string(self):
        # the records are slotted classes and the package uses no typing:
        # neither the import and the full parser nor a run of each command
        # loads dataclasses (which brings inspect), string or typing.  Only
        # modules new since the start are counted, and -S keeps site and
        # the packages it imports from loading typing first
        src = str(Path(cylgf.__file__).resolve().parent.parent)
        argvs = [
            ["expand", "--profile", "2,1", "--order", "6", "--method", "chain"],
            ["count", "--profile", "1,1", "--order", "3"],
            ["flow", "--profile", "2,1", "--max-weight", "2"],
            ["verify", "--id", "L4.1(0)", "--order", "12"],
            ["decompose", "--json", TestDecompose.PART, "--boards"],
        ]
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import json, sys; before = set(sys.modules); "
             "sys.path.insert(0, sys.argv[1]); "
             "import cylgf.cli; cylgf.cli.build_parser(); "
             "codes = [cylgf.cli.main(a) for a in json.loads(sys.argv[2])]; "
             "new = set(sys.modules) - before; "
             "print(codes, sorted({'dataclasses', 'inspect', 'string', "
             "'typing'} & new))",
             src, json.dumps(argvs)],
            capture_output=True, text=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []", proc.stderr

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

    def test_failing_catalog_identity(self, capsys, monkeypatch):
        # the sum side of 1.4 is one too big at q^3 alone: each form of
        # output reports that degree of that identity and exits 1
        real = genfun.catalog_sides

        def sides(tag, order, z_power=None):
            lhs, rhs = real(tag, order, z_power)
            if tag == "1.4":
                lhs = lhs + Series.monomial(3, order)
            return lhs, rhs

        monkeypatch.setattr(genfun, "catalog_sides", sides)
        c = real("1.4", 10)[1].coeffs[3]
        fail = f"1.4,order=10,FAIL@q^3 lhs={c + 1} rhs={c}"
        code, out, _ = run(capsys, "verify", "--id", "1.4", "--order", "10")
        assert (code, out) == (1, fail + "\n")
        code, out, _ = run(capsys, "verify", "--id", "1.4", "--order", "10",
                           "--format", "csv")
        lines = out.splitlines()
        assert code == 1 and lines[0] == "degree,lhs,rhs,equal"
        assert lines[4] == f"3,{c + 1},{c},false"
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == (
            ["true"] * 3 + ["false"] + ["true"] * 7)
        code, out, _ = run(capsys, "verify", "--all", "--order", "10")
        assert code == 1
        assert [line for line in out.splitlines() if "FAIL" in line] == [fail]

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


class TestNoRecordKeys:
    """No command compares or hashes a record, so `Record`'s generic
    `__eq__` and `__hash__` are off every command's path."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("a command compared or hashed a record")

    @pytest.mark.parametrize("argv", [
        ["expand", "--profile", "2,1,1", "--order", "10",
         "--method", "borodin"],
        ["expand", "--profile", "2,1,1", "--order", "10", "--method", "chain"],
        ["expand", "--profile", "2,1,1", "--order", "10",
         "--method", "chain-distinct"],
        ["count", "--profile", "2,1", "--order", "6"],
        ["flow", "--profile", "1,1,1,1", "--max-weight", "5"],
        ["verify", "--all", "--order", "12"],
        ["verify", "--id", "1.4"],
        ["verify", "--id", "1.4", "--order", "20", "--format", "csv"],
        ["verify", "--id", "L4.3(1,2)"],
        ["decompose", "--json", TestDecompose.PART, "--boards"],
    ], ids=" ".join)
    def test_same_output_without_eq_and_hash(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setattr(Record, "__eq__", self.refuse)
        monkeypatch.setattr(Record, "__hash__", self.refuse)
        assert run(capsys, *argv) == expected


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
        code = main(argv)
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and "error:" in out.err

    @pytest.mark.parametrize("argv", [
        # options a command does not take
        ["flow", "--profile", "2,1", "--max-weight", "2", "--order", "3"],
        ["flow", "--profile", "2,1", "--max-weight", "2", "--format", "dot"],
        ["decompose", "--json", TestDecompose.PART, "--profile", "2,1"],
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
        # --all runs the whole grid and would drop the --id
        ["verify", "--all", "--id", "1.2", "--order", "2"],
    ])
    def test_rejected_input(self, capsys, argv):
        code = main(argv)
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

    def test_slice_error_is_not_bad_input(self, capsys, monkeypatch):
        # no argv builds an invalid slice, so one that escapes is a bug
        def broken(cp):
            raise SliceError("invalid slice (0, 2) for profile (2,1)")

        monkeypatch.setattr(slices, "decompose", broken)
        code, out, err = run(capsys, "decompose", "--json", TestDecompose.PART)
        assert code == 3 and out == ""
        assert err.startswith("internal error: SliceError:")

    @pytest.mark.parametrize("error", package_exceptions(),
                             ids=lambda cls: cls.__qualname__)
    def test_every_package_error_is_classified(self, capsys, monkeypatch,
                                               error):
        # bad input or a contract violation, never an error in neither group
        bad_input = issubclass(error, InputError)
        assert bad_input != issubclass(error, CONTRACT_ERRORS)

        def broken(cp):
            raise error("message")

        monkeypatch.setattr(slices, "decompose", broken)
        code, out, err = run(capsys, "decompose", "--json", TestDecompose.PART)
        assert out == ""
        if bad_input:
            assert (code, err) == (2, "error: message\n")
        else:
            assert (code, err) == (
                3, f"internal error: {error.__name__}: message\n")


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
            code = main(argv)
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
            # C(level + rank - 1, rank - 1) shapes, level 3 and rank 2
            assert counters["shapes"] == comb(3 + 2 - 1, 2 - 1)
            # each visited (shape, L) reads 2^c lattice sums, c <= 1 the
            # shape's removable corners: 1 read for (0), 2 for (1)-(3)
            visits = chain_visits(Profile((2, 1)), 12)
            assert counters["shape_pairs"] == visits // 4 * (1 + 2 + 2 + 2)
            # the folded layout packs at W(2, 12) = isqrt(137 * 24 // 10) + 1
            assert counters["slot_bits"] == 19

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_count(self, capsys, fmt):
        argv = ["count", "--profile", "2,1", "--order", "9", "--format", fmt]
        code, plain, quiet = run(capsys, *argv)
        code_v, out, err = run(capsys, *argv, "--verbose")
        assert code == code_v == 0 and out == plain and quiet == ""
        counters = json.loads(err)
        assert counters.pop("seconds") >= 0
        table = enumerate_table(Profile((2, 1)), 9)
        assert counters == {"partitions": sum(map(sum, table.counts)),
                            "prefixes": table.prefixes, "walked": "1,2"}
        assert 0 < table.prefixes

    @pytest.mark.parametrize("parts, max_weight", [((2, 1), 4), ((1, 1), 1),
                                                   ((0, 1, 0, 1, 0, 0), 8)])
    def test_flow(self, capsys, parts, max_weight):
        argv = ["flow", "--profile", ",".join(map(str, parts)),
                "--max-weight", str(max_weight)]
        code, plain, quiet = run(capsys, *argv)
        code_v, out, err = run(capsys, *argv, "--verbose")
        assert code == code_v == 0 and out == plain and quiet == ""
        counters = json.loads(err)
        assert counters.pop("seconds") >= 0
        assert counters == {"nodes": out.count("[label="),
                            "edges": out.count("->")}
        assert counters["nodes"] == len(list(
            iter_slices(Profile(parts), max_weight)))

    @pytest.mark.parametrize("rows, boards", [
        ([[2, 2, 1], [3]], False), ([[2, 2, 1], [3]], True), ([[], []], False)])
    def test_decompose(self, capsys, rows, boards):
        argv = ["decompose", "--json",
                json.dumps({"profile": [2, 1], "rows": rows})]
        argv += ["--boards"] * boards
        code, plain, quiet = run(capsys, *argv)
        code_v, out, err = run(capsys, *argv, "--verbose")
        assert code == code_v == 0 and out == plain and quiet == ""
        counters = json.loads(err)
        assert counters.pop("seconds") >= 0
        assert counters == {"levels": max(map(len, rows)),
                            "size": sum(map(sum, rows))}

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


# a lemma tag of 20,000 blocks: its least term has degree past 10^4
MANY_BLOCKS = "L4.4({})".format(",".join(["1"] * 20000))


class TestHugeLevel:
    """A level far past any shape list still names its few shapes; a rank
    far past the recursion limit still lists its slices and counts its
    partitions; a lemma tag of many blocks whose every term lies past the
    order costs little."""

    @staticmethod
    def limit_memory():
        # a regression to listing every shape then ends in MemoryError
        # (exit 3) instead of taking the machine's memory
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    @pytest.mark.parametrize("argv, expected", [
        (["flow", "--profile", "99999999,0", "--max-weight", "1"],
         'digraph sliceflow {\n  n0 [label="bq^1"];\n}\n'),
        (["decompose", "--json",
          '{"profile":[99999999999999,1],"rows":[[1],[1]]}'],
         "level 1: t=(1, 1) weight=2 shape=(1,) term=bq^2\n"),
        pytest.param(["flow", "--profile", ",".join(["1"] + ["0"] * 1499),
                      "--max-weight", "1"],
                     'digraph sliceflow {\n  n0 [label="bq^1"];\n}\n',
                     id="flow-rank-1500"),
        # 99,999 bytes of argv, under the 128 KiB limit for one argument;
        # the graph is built in time linear in the rank
        pytest.param(["flow", "--profile", ",".join(["1"] + ["0"] * 49999),
                      "--max-weight", "1"],
                     'digraph sliceflow {\n  n0 [label="bq^1"];\n}\n',
                     id="flow-rank-50000"),
        # shapes (10^8, 1) and (10^8 + 1, 2): a jump of 10^8 between two
        # entries is named by one binomial, not 10^8 steps
        pytest.param(["flow", "--profile", "0,100000000,1",
                      "--max-weight", "2"],
                     "digraph sliceflow {\n"
                     '  n0 [label="s5000000050000000q^1"];\n'
                     '  n1 [label="s5000000150000003q^1"];\n'
                     '  n2 [label="s5000000050000001q^2"];\n'
                     '  n3 [label="s5000000150000001q^2"];\n'
                     '  n4 [label="s5000000150000004q^2"];\n'
                     "  n0 -> n2;\n  n0 -> n3;\n  n1 -> n2;\n  n1 -> n4;\n}\n",
                     id="flow-level-100000001"),
        # a profile 1,500 rows long, past the recursion limit, at order 1:
        # the output of a fresh process under the memory limit; the walk
        # jumps over the empty rows (its prefixes are pinned in
        # test_cylindric.py, test_walk_jumps_to_the_last_row_at_rank_1500)
        pytest.param(["count", "--profile", ",".join(["1"] + ["0"] * 1499),
                      "--order", "1"],
                     "max,size,count\n0,0,1\n1,1,1\n", id="count-rank-1500"),
        pytest.param(["verify", "--id", MANY_BLOCKS, "--order", "10"],
                     f"{MANY_BLOCKS},order=10,PASS\n",
                     id="verify-20000-lemma-blocks"),
    ])
    def test_exits_0(self, argv, expected):
        proc = self.run_limited(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_chain_at_order_1000(self):
        # expand runs the DP at z = 1 on (N+1)-slot ints; the (N+1)^2-slot
        # z-table at N = 1000 ends in MemoryError (exit 3) under the limit
        expand = ["expand", "--profile", "1,1", "--order", "1000", "--method"]
        runs = {m: self.run_limited(expand + [m])
                for m in ("chain", "chain-distinct", "borodin")}
        for proc in runs.values():
            assert (proc.returncode, proc.stderr) == (0, "")
        assert runs["chain"].stdout == runs["borodin"].stdout
        assert runs["chain-distinct"].stdout.count(",") == 1000

    def run_limited(self, argv):
        src = str(Path(cylgf.__file__).resolve().parent.parent)
        return subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "from cylgf.cli import main; sys.exit(main(sys.argv[2:]))",
             src, *argv],
            capture_output=True, text=True, timeout=30,
            preexec_fn=self.limit_memory)


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def golden_ids(cases):
    """Each argv cut to 40 characters, or in full where the cut is shared:
    distinct argvs get distinct ids."""
    texts = [" ".join(case["argv"]) for case in cases]
    cuts = Counter(text[:40] for text in texts)
    return [text[:40] if cuts[text[:40]] == 1 else text for text in texts]


GOLDEN_IDS = golden_ids(GOLDEN)


class TestGolden:
    """Help, usage and error texts, byte for byte, at 80 columns.

    The texts are argparse's as CPython 3.11 formats them.  They cover the
    top-level help, each subcommand's help, argv that does not name a
    subcommand exactly, trailing and unknown arguments, a bad choice,
    missing required options and an option given `--`, plus one run of
    each subcommand and the lemma-tag errors and lines of `verify`, runs
    that only argparse parses (`--order=3`, `--prof`, `--z-power=2`), the
    `verify` csv table, boards with empty trailing rows, `verify --all`
    with `--id`, two `flow` graphs of rank-6 profiles and two at max
    weight 8 on census profiles of ranks 4 and 5, `verify --all` at
    its default orders and at order 64, a three-block lemma tag whose
    least degree, 48, lies below its order, and both chain methods in both
    formats on (4,3,2,1) at order 40 and (1,1,1,1,1,1) at order 30, whose
    shapes have up to 3 and 5 removable corners, and on (1,1,0,0) at order
    100, (2,1) at order 150 and (1,0,0,0,0,0,0,0) at order 100, where the
    chain DP's folded slot width W(r, N) exceeds the bit length of
    [q^N] (q;q)_oo^(-r) by 13-23 bits; an empty `--out`, spelled
    `--out ""` and `--out=`; `flow` at rank 1, where every shape is (),
    and on (0,2,0), where equal shape entries block a row; last, an empty
    `verify --id`, plain and with `--format csv`.
    """

    def test_cases_distinct(self):
        assert len({tuple(case["argv"]) for case in GOLDEN}) == len(GOLDEN)
        assert len(set(GOLDEN_IDS)) == len(GOLDEN)

    @pytest.mark.parametrize("case", GOLDEN, ids=GOLDEN_IDS)
    def test_output(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(list(case["argv"]))
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (case["code"], case["out"],
                                            case["err"])


COMMANDS = ["expand", "count", "flow", "verify", "decompose"]
OPTIONS = ["--profile", "--order", "--method", "--format", "--out",
           "--verbose", "--max-weight", "--id", "--all", "--z-power",
           "--json", "--file", "--boards", "-h", "--help", "--", "--prof",
           "--m", "--ord"]
VALUES = ["2,1", "1,1,1", "3", "0", "-1", "x", "borodin", "chain",
          "chain-distinct", "text", "json", "csv", "1.2", "gasper", "L4.2(2)",
          '{"profile":[1,1],"rows":[[1],[]]}', "", "exp", *COMMANDS]
TOKEN = st.one_of(
    st.sampled_from(OPTIONS), st.sampled_from(VALUES),
    st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES))
    .map("=".join),
    st.text(max_size=4))


def capture(fn, argv):
    """fn(argv), or the code of the SystemExit it raised, and all that it
    printed: for the parser-level calls, as argparse exits on help and on a
    rejected argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def parse(parser, argv):
    """What parse_args makes of argv: the namespace or the exit code, and
    all that it printed."""
    return capture(lambda args: vars(parser.parse_args(args)), argv)


class TestParserDifferential:
    """build_parser builds the one full parser, all subcommands at once."""

    def test_default_is_full(self):
        # every subcommand is there (bench/run.py times this parser as part
        # of the set-up cost)
        parser = build_parser()
        for command in COMMANDS:
            code, out, _ = parse(parser, [command, "-h"])
            assert code == 0 and out.startswith(f"usage: cylgf {command} ")


# Orders, weights and sizes stay small where the work grows with them; the
# numbers that only reach a cut (lemma blocks and their count, gasper's
# z-power, decompose's profile parts) and the flow profile parts at a max
# weight of at most 3 may be huge.
SMALL = st.integers(0, 3)
HUGE = st.sampled_from([10 ** 8, 10 ** 15])


def profile(max_rank, parts):
    return st.lists(parts, min_size=1, max_size=max_rank).map(
        lambda ps: ",".join(map(str, ps)))


def sparse_profile(max_rank):
    """A profile of rank up to max_rank, zero but for one to three small or
    huge parts: the enumeration walk is as deep as the rank, and about as
    wide as the partitions that the nonzero parts let in."""
    def spread(rank, placed):
        parts = [0] * rank
        for at, part in placed:
            parts[at % rank] = part
        return ",".join(map(str, parts))

    # hypothesis draws small integers more often: the top quarter on its own
    # keeps ranks far past the recursion limit common
    ranks = st.one_of(st.integers(1, max_rank),
                      st.integers(max_rank * 3 // 4, max_rank))
    return st.builds(spread, ranks, st.lists(
        st.tuples(st.integers(0, max_rank - 1),
                  st.one_of(st.integers(1, 3), HUGE)),
        min_size=1, max_size=3))


def decompose_argv(parts, boards):
    return st.builds(lambda c, rows: ["decompose", "--json", json.dumps(
        {"profile": c, "rows": rows}), *boards],
        st.lists(parts, min_size=1, max_size=3),
        st.lists(st.lists(SMALL, max_size=3), max_size=3))


BLOCKS = st.lists(st.one_of(SMALL, HUGE), min_size=1, max_size=3)
LEMMA_TAG = st.builds(
    "L{}.{}({})".format, st.sampled_from([4, 5]), st.integers(1, 5),
    st.one_of(BLOCKS, st.builds(lambda ks, n: list(islice(cycle(ks), n)),
                                BLOCKS, st.integers(4, 3000)))
    .map(lambda ks: ",".join(map(str, ks))))
FUZZ_ARGV = st.one_of(
    st.builds(lambda p, n, m, f: ["expand", "--profile", p, "--order", str(n),
                                  "--method", m, *f],
              profile(3, SMALL), st.integers(0, 30),
              st.sampled_from(["borodin", "chain", "chain-distinct"]),
              st.sampled_from([[], ["--format", "json"], ["--verbose"]])),
    st.builds(lambda p, n: ["count", "--profile", p, "--order", str(n)],
              profile(3, st.integers(0, 2)), st.integers(0, 10)),
    # Hypothesis raises the recursion limit by about 2,000 while a test
    # runs, so only ranks past that would find a recursive walk here
    st.builds(lambda p, n: ["count", "--profile", p, "--order", str(n)],
              sparse_profile(4000), st.integers(0, 10)),
    st.builds(lambda p, w: ["flow", "--profile", p, "--max-weight", str(w)],
              profile(3, st.one_of(SMALL, HUGE)), st.integers(1, 3)),
    st.builds(lambda p, w: ["flow", "--profile", p, "--max-weight", str(w)],
              profile(4, SMALL), st.integers(1, 8)),
    st.builds(lambda tag, n, z: ["verify", "--id", tag, "--order", str(n),
                                 *z],
              st.one_of(st.sampled_from(genfun.IDENTITY_TAGS), LEMMA_TAG),
              st.integers(0, 30),
              st.one_of(st.just([]),
                        st.integers(-3, 3).map(lambda z: ["--z-power",
                                                          str(z)]),
                        HUGE.map(lambda z: ["--z-power", str(z)]))),
    st.builds(lambda n: ["verify", "--all", "--order", str(n)],
              st.integers(0, 30)),
    # a board draws every gray square, so it takes small parts only
    decompose_argv(st.one_of(SMALL, HUGE), []),
    decompose_argv(SMALL, ["--boards"]),
)


# no --out or an abbreviation of it: a run must not write files
JUNK = st.one_of(TOKEN, st.integers(-5, 10).map(str)).filter(
    lambda token: not token.startswith("--o"))


def mutations(argv):
    """argv with one token dropped, replaced or inserted, or as it is."""
    return st.builds(
        lambda i, junk, how: [
            argv, argv[:i] + argv[i + 1:], argv[:i] + [junk] + argv[i + 1:],
            argv[:i] + [junk] + argv[i:]][how],
        st.integers(0, len(argv)), JUNK, st.integers(0, 3))


def mutate(argv, data):
    return data.draw(mutations(argv))


class TestFuzz:
    """`main` returns 0, 1 or 2 for any argv, and raises nothing: never a
    traceback or an internal error."""

    @settings(max_examples=150, deadline=None)
    @given(argv=FUZZ_ARGV, data=st.data())
    def test_exit_code_contract(self, argv, data):
        argv = mutate(argv, data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert type(code) is int and code in (0, 1, 2), (argv, err)
        assert "internal error" not in err, (argv, err)


GOLDEN_BY_ARGV = {tuple(case["argv"]): case for case in GOLDEN}
#: one ordinary argv of each command
PLAIN = [
    ["expand", "--profile", "2,1", "--order", "6", "--method", "chain"],
    ["count", "--profile", "1,1", "--order", "3"],
    ["flow", "--profile", "2,1", "--max-weight", "2"],
    ["verify", "--id", "L4.1(0)", "--order", "12"],
    ["decompose", "--json", TestDecompose.PART, "--boards"],
]


class TestPlainArgs:
    """A plain argv is parsed from the command table without argparse, into
    the namespace argparse would build; any other argv goes to argparse."""

    @settings(max_examples=300, deadline=None)
    @given(argv=st.one_of(
        FUZZ_ARGV.flatmap(mutations),
        st.builds(lambda first, rest: [first, *rest],
                  st.one_of(st.sampled_from(COMMANDS), TOKEN),
                  st.lists(TOKEN, max_size=8))))
    @example(argv=["expand", "--profile", "2,1", "--order", "3", "--order",
                   "4", "--method", "chain", "--verbose", "--verbose"])
    @example(argv=["count", "--profile", "2,1", "--order=3"])
    @example(argv=["count", "--prof", "2,1", "--order", "3"])
    @example(argv=["verify", "--id", "gasper", "--z-power", "-1"])
    @example(argv=["count", "--profile", "2,1", "--order", "\uff13"])
    @example(argv=["count", "--profile", "2,1", "--order", " -1"])
    @example(argv=["flow", "--profile", "2,1", "--max-weight", "0"])
    @example(argv=["count", "--profile", "", "--order", "3"])
    @example(argv=["count", "--profile", "2,1", "--order", "3",
                   "--format", "JSON"])
    @example(argv=["expand", "--profile", "2,1", "--order", "3"])
    def test_same_namespace_as_argparse(self, argv):
        plain = capture(_plain_args, argv)
        assert plain[1:] == ("", "")
        if plain[0] is not None:
            fields = vars(plain[0])
            expected = parse(build_parser(), argv)
            assert expected == (fields, "", "")
            # == takes 1 for True: the types must match too
            assert ({k: type(v) for k, v in expected[0].items()}
                    == {k: type(v) for k, v in fields.items()})

    @pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
    def test_ordinary_argv_is_plain(self, argv):
        assert _plain_args(argv) is not None

    def test_plain_run_loads_no_argparse(self):
        # a plain run of each command in a fresh process imports neither
        # argparse nor gettext (nor the locale module gettext brings); help
        # and a bad choice in the same process still print argparse's texts
        src = str(Path(cylgf.__file__).resolve().parent.parent)
        fallback = [["-h"], ["expand", "--profile", "2,1", "--order", "3",
                             "--method", "fast"]]
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", COLD_START,
             src, json.dumps(PLAIN), json.dumps(fallback)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "COLUMNS": "80"})
        plain, loaded, runs = json.loads(proc.stdout)
        assert (plain, loaded) == ([0] * len(PLAIN), []), proc.stderr
        assert runs == [[GOLDEN_BY_ARGV[tuple(argv)][key]
                         for key in ("code", "out", "err")]
                        for argv in fallback]


# in a fresh process: the exit codes of the plain argvs of argv[2] (JSON),
# the parsing modules they loaded, then exit code, stdout and stderr of each
# argv of argv[3]
COLD_START = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cylgf.cli import main

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]

plain = [run(argv)[0] for argv in json.loads(sys.argv[2])]
loaded = sorted({"argparse", "gettext", "locale"} & set(sys.modules))
print(json.dumps([plain, loaded, [run(a) for a in json.loads(sys.argv[3])]]))
"""


#: each command's --verbose counters, besides "seconds"
COUNTERS = {"expand": {"nodes", "shapes", "shape_pairs", "slot_bits"},
            "count": {"partitions", "prefixes", "walked"},
            "flow": {"nodes", "edges"},
            "verify": {"identities", "lemma_specs"},
            "decompose": {"levels", "size"}}


def command_name(argv):
    return argv[0]


class TestOut:
    """--out takes the text a plain run prints, on every command."""

    @pytest.mark.parametrize("argv", PLAIN, ids=command_name)
    def test_file_holds_stdout(self, capsys, tmp_path, argv):
        code, plain, _ = run(capsys, *argv)
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_bytes() == plain.encode()

    @pytest.mark.parametrize("argv", PLAIN, ids=command_name)
    def test_verbose_counters_on_stderr(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"),
                             "--verbose")
        assert code == 0 and out == "" and err.count("\n") == 1
        assert set(json.loads(err)) == COUNTERS[argv[0]] | {"seconds"}

    @pytest.mark.parametrize("argv", PLAIN, ids=command_name)
    def test_unwritable(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out",
                             str(tmp_path / "absent" / "out.txt"))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ")

    @pytest.mark.parametrize("out", [["--out", ""], ["--out="]],
                             ids=["--out ''", "--out="])
    @pytest.mark.parametrize("argv", PLAIN, ids=command_name)
    def test_empty_path(self, capsys, argv, out):
        # an empty path names no file: bad input, not a request for stdout
        code, stdout, err = run(capsys, *argv, *out)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: cannot write ")


class TestClosedStdout:
    """A stdout that takes no output is bad input, as an unwritable --out
    is: exit 2 and one error line, with no traceback and no complaint from
    the interpreter's flush at exit.  Help goes out through the same writer.
    Each case runs with stdout buffered and unbuffered, whatever the
    environment of the test run."""

    #: 0.2 KB and 140 KB of output, under and past a pipe's buffer, and help
    ARGVS = {order: ["expand", "--profile", "2,1", "--order", order,
                     "--method", "borodin"] for order in ("30", "3000")}
    ARGVS.update((" ".join(argv), argv)
                 for argv in [["--help"], *([c, "--help"] for c in COMMANDS)])
    CASES = pytest.mark.parametrize("case", list(ARGVS))

    def run(self, case, **kwargs):
        """The (exit code, stderr) of the case, buffered and unbuffered."""
        src = str(Path(cylgf.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        runs = []
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.path.insert(0, sys.argv[1]); "
                 "from cylgf.cli import main; sys.exit(main(sys.argv[2:]))",
                 src, *self.ARGVS[case]],
                stderr=subprocess.PIPE, text=True, timeout=60,
                env={**env, **unbuffered}, **kwargs)
            runs.append((proc.returncode, proc.stderr))
        return runs

    @CASES
    def test_reader_gone(self, case):
        read, write = os.pipe()
        os.close(read)
        try:
            runs = self.run(case, stdout=write)
        finally:
            os.close(write)
        assert runs == [(2, "error: cannot write stdout: Broken pipe\n")] * 2

    @CASES
    def test_descriptor_closed(self, case):
        runs = self.run(case, stdout=subprocess.DEVNULL,
                        preexec_fn=lambda: os.close(1))
        assert runs == [
            (2, "error: cannot write stdout: Bad file descriptor\n")] * 2

    def test_in_process_caller_finds_devnull(self, capsys, monkeypatch):
        # the text that failed is not written again: stdout is left open on
        # os.devnull for whatever the caller prints next
        class Gone(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Gone())
        assert main(PLAIN[1]) == 2
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert capsys.readouterr().err == (
            "error: cannot write stdout: Broken pipe\n")


# in a fresh `python -S` process: import cylgf.cli, run the argv of
# argv[2:] if one is given, and print its exit code (None without one) and,
# sorted, the modules among json, re and the package's that are new since
# the first statement, on the last line of stdout
LOADS = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cylgf.cli
code = cylgf.cli.main(sys.argv[2:]) if sys.argv[2:] else None
new = set(sys.modules) - before
print(code, *sorted(name for name in new if name in ("json", "re")
                    or name.split(".")[0] == "cylgf"))
"""
#: what importing cylgf.cli loads: the package and the modules it imports
CLI = {"cylgf", "cylgf.cli", "cylgf.cylindric", "cylgf.record",
       "cylgf.series"}
JSON = {"json", "re"}  # json imports re
#: argv (none: the import alone) and the modules that LOADS reports for it
START_UP = [
    ([], CLI),
    (PLAIN[0], CLI | {"cylgf.genfun", "cylgf.slices"}),
    (["expand", "--profile", "2,1", "--order", "8", "--method", "borodin",
      "--format", "json"], CLI | {"cylgf.genfun", "cylgf.slices"} | JSON),
    (PLAIN[1], CLI),
    (["count", "--profile", "1,1", "--order", "4", "--format", "json"],
     CLI | JSON),
    (PLAIN[2], CLI | {"cylgf.slices"}),
    (["verify", "--id", "1.2", "--order", "5"],
     CLI | {"cylgf.genfun", "cylgf.slices"}),
    (["verify", "--id", "L4.2(2)", "--order", "10"],
     CLI | {"cylgf.lemmas", "re"}),
    (["verify", "--all", "--order", "12"],
     CLI | {"cylgf.genfun", "cylgf.lemmas", "cylgf.slices"} | JSON),
    (PLAIN[4], CLI | {"cylgf.slices"} | JSON),
    ([*PLAIN[1], "--verbose"], CLI | JSON),
]


class TestStartUp:
    """A plain run loads only the modules its command runs: json (and
    with it re) only to read or write JSON, re only to parse a lemma tag."""

    @pytest.mark.parametrize("argv, loaded", START_UP,
                             ids=[" ".join(argv) or "import"
                                  for argv, _ in START_UP])
    def test_loads(self, argv, loaded):
        src = str(Path(cylgf.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-c", LOADS, src, *argv],
                              capture_output=True, text=True, timeout=60)
        line = proc.stdout.splitlines()[-1].split()
        assert line == ["0" if argv else "None", *sorted(loaded)], proc.stderr

    def test_imported_modules_are_kept(self, capsys):
        # a later command in the same process finds each module among the
        # namespace's own attributes instead of going through the import
        # system again
        for argv in PLAIN:
            run(capsys, *argv)
        assert vars(cli._lazy) == {"json": json, "genfun": genfun,
                                   "lemmas": lemmas, "slices": slices}

    def test_other_names_raise_and_import_nothing(self):
        # in a fresh process, so that no other test has loaded them: any
        # name but the four, dunders included, raises AttributeError, which
        # hasattr, copy and inspect expect of a plain object
        src = str(Path(cylgf.__file__).resolve().parent.parent)
        names = ["data", "record", "re", "argparse", "__wrapped__",
                 "__deepcopy__", "__setstate__"]
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import cylgf.cli; "
             "lazy = cylgf.cli._Lazy(); before = set(sys.modules); "
             "found = [hasattr(lazy, name) for name in sys.argv[2:]]; "
             "print(found, sorted(set(sys.modules) - before), vars(lazy))",
             src, *names],
            capture_output=True, text=True, timeout=60)
        assert (proc.stdout.splitlines()[-1]
                == f"{[False] * len(names)} [] {{}}"), proc.stderr


class TestHandlers:
    """A command returns (exit code, text, counters or None) and writes
    nothing; `main` alone writes the text, with its newline, and the
    counters."""

    @pytest.mark.parametrize("verbose", [False, True])
    @pytest.mark.parametrize("argv", PLAIN, ids=command_name)
    def test_returns_output_and_writes_nothing(self, capsys, tmp_path, argv,
                                              verbose):
        path = tmp_path / "out.txt"
        args = _plain_args([*argv, "--out", str(path)]
                           + ["--verbose"] * verbose)
        code, text, counters = args.fn(args)
        assert capsys.readouterr() == ("", "") and not path.exists()
        assert run(capsys, *argv) == (code, text + "\n", "")
        if verbose:
            assert set(counters) == COUNTERS[argv[0]]
        else:
            assert counters is None
