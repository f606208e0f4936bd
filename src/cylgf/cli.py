"""Command-line front end.

Exit codes: 0 success, 1 for a verification mismatch, 2 for bad input
(parse errors and unknown options, unknown identity tags or extra lemma
parameters, `--z-power` without `--id gasper`, `--format csv` without a
catalog identity, an option given the value `--`, malformed or invalid
partitions, partition JSON that is not UTF-8, nested past the recursion
limit or holds an integer past the digit limit, unreadable or unwritable
files), 3 for internal contract violations and any other unexpected
exception.  All file output ends with a trailing newline and is
byte-identical across runs of the same command.
`--verbose`, taken by `expand`, `count` and `verify` only, also writes the
command's work counters and time to stderr as one JSON object.  `verify`
checks lemma tags in `lemmas`, other tags in `genfun`, and formats its lines.

The option grammar is one table, `_COMMANDS`.  A plain argv (a command name,
then exact option strings of that command, each value option followed by a
value that does not start with "-", converts with its type and is one of its
choices, every required option given) is read straight from the table, and
`argparse` is not imported.  Any other argv (help, `--opt=value`,
abbreviations, values such as `-1`, bad values, missing options) goes to
`argparse`, the only source of help, usage and error text.
"""
from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

from . import genfun, lemmas
from .cylindric import (PartitionError, Profile, ProfileError,
                        enumerate_table, validate)
from .series import first_mismatch
from .slices import SliceError, board, decompose, flow_graph, shape, shape_name


class UsageError(ValueError):
    pass


def _parse_profile(text: str) -> Profile:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse profile {text!r}")
    return Profile(parts)


def _int_at_least(low: int):
    """The type of an integer option that must be >= low; out of range it
    raises argparse's ArgumentTypeError, whose text argparse prints."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            from argparse import ArgumentTypeError

            raise ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _emit(text: str, out: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _report(counters: dict, start: float):
    """For --verbose: the work counters and seconds as one JSON line on
    stderr; stdout is not touched."""
    counters["seconds"] = round(time.perf_counter() - start, 6)
    print(json.dumps(counters), file=sys.stderr)


def cmd_expand(args) -> int:
    profile = _parse_profile(args.profile)
    start = time.perf_counter()
    if args.method == "borodin":
        series = genfun.borodin(profile, args.order)
        if args.verbose:
            _report({"factors": len(genfun.borodin_specs(profile))}, start)
    else:
        distinct = args.method == "chain-distinct"
        gf = genfun.chain_series(profile, args.order, distinct,
                                  refined=False)
        series = gf.marginal()
        if args.verbose:
            _report({"nodes": gf.nodes, "shapes": gf.shapes,
                     "shape_pairs": gf.shape_pairs,
                     "slot_bits": gf.slot_bits}, start)
    if args.format == "json":
        _emit(json.dumps(series.to_json_dict()), args.out)
    else:
        _emit(str(series), args.out)
    return 0


def cmd_count(args) -> int:
    profile = _parse_profile(args.profile)
    start = time.perf_counter()
    table = enumerate_table(profile, args.order)
    if args.verbose:
        _report({"partitions": sum(map(sum, table.counts))}, start)
    if args.format == "json":
        payload = {
            "profile": list(profile.parts),
            "order": table.order,
            "counts": [list(row) for row in table.counts],
        }
        _emit(json.dumps(payload), args.out)
    else:
        _emit(table.to_csv(), args.out)
    return 0


def cmd_flow(args) -> int:
    profile = _parse_profile(args.profile)
    graph = flow_graph(profile, args.max_weight)
    _emit(graph.to_dot(), args.out)
    return 0


def _verify_one(tag: str, order: int, z_power, lines: list[str],
                work: dict) -> bool:
    """Check one --id tag, up to a lemma tag's first failing spec, and
    append its line."""
    if tag.startswith("L"):
        specs = lemmas.parse_tag(tag)
        work["lemma_specs"] += len(specs)
        checks = (lemmas.verify_lemma(spec, order) for spec in specs)
        bad = next((b for b in checks if b is not None), None)
    else:
        work["identities"] += 1
        bad = first_mismatch(*genfun.catalog_sides(tag, order, z_power))
    name = tag if z_power is None else f"{tag}(z=q^{z_power})"
    status = "PASS" if bad is None else "FAIL@q^{} lhs={} rhs={}".format(*bad)
    lines.append(f"{name},order={order},{status}")
    return bad is None


def _lemma_line(spec, order: int, lines: list[str]) -> bool:
    """Check one spec of the --all grid and append its line."""
    bad = lemmas.verify_lemma(spec, order)
    status = "PASS" if bad is None else f"FAIL@q^{bad[0]}"
    k = "-" if spec.fixed_k is None else spec.fixed_k
    m_vec = "+".join(map(str, spec.blocks))
    lines.append(f"{spec.family},{len(spec.blocks)},{m_vec},{k},{order},"
                 f"{status}")
    return bad is None


def cmd_verify(args) -> int:
    if args.z_power is not None and (args.all or args.id != "gasper"):
        raise UsageError("--z-power applies only to --id gasper")
    if args.format == "csv" and (args.all or (args.id or "").startswith("L")):
        raise UsageError("--format csv applies only to a catalog identity")
    lines: list[str] = []
    ok = True
    work = {"identities": 0, "lemma_specs": 0}
    start = time.perf_counter()
    if args.all:
        from importlib.resources import files

        grid = json.loads(files("cylgf.data").joinpath("verify_all.json").read_text())
        for entry in grid["identities"]:
            order = args.order if args.order is not None else entry["order"]
            ok &= _verify_one(entry["id"], order, entry.get("z_power"), lines,
                              work)
        lem = grid["lemmas"]
        order = args.order if args.order is not None else lem["order"]
        for spec in lemmas.grid(lem["n_max"], lem["m_max"], lem["k_max"]):
            work["lemma_specs"] += 1
            ok &= _lemma_line(spec, order, lines)
    elif args.id:
        order = args.order if args.order is not None else 40
        if args.format == "csv":
            lhs, rhs = genfun.catalog_sides(args.id, order, args.z_power)
            work["identities"] += 1
            lines.append("degree,lhs,rhs,equal")
            for n in range(order + 1):
                a, b = lhs.coeffs[n], rhs.coeffs[n]
                lines.append(f"{n},{a},{b},{str(a == b).lower()}")
                ok &= a == b
        else:
            ok = _verify_one(args.id, order, args.z_power, lines, work)
    else:
        raise UsageError("verify needs --id or --all")
    if args.verbose:
        _report(work, start)
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _parse_partition(data) -> tuple[Profile, list]:
    """Profile and rows of a decoded {"profile": [...], "rows": [[...], ...]}."""
    def ints(value) -> bool:
        # bool is a subclass of int but not a part
        return isinstance(value, list) and all(type(v) is int for v in value)

    if not (isinstance(data, dict) and ints(data.get("profile"))
            and isinstance(data.get("rows"), list)
            and all(ints(row) for row in data["rows"])):
        raise UsageError('a partition is a JSON object {"profile": [int, ...], '
                         '"rows": [[int, ...], ...]}')
    return Profile(tuple(data["profile"])), data["rows"]


def cmd_decompose(args) -> int:
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.file}: {exc.strerror}")
        except UnicodeDecodeError:
            raise UsageError(f"cannot read {args.file}: not UTF-8 text")
    elif args.json:
        text = args.json
    else:
        raise UsageError("decompose needs --json or --file")
    try:
        data = json.loads(text)
    except RecursionError:
        raise UsageError("partition JSON is nested too deeply")
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise UsageError(f"bad partition JSON: {exc}")
    profile, rows = _parse_partition(data)
    cp = validate(profile, rows)
    lines = []
    for k, s in enumerate(decompose(cp), start=1):
        sh = shape(s)
        term = f"{shape_name(sh)}q^{s.weight}"
        lines.append(
            f"level {k}: t={s.white} weight={s.weight} shape={sh} term={term}")
        if args.boards:
            lines.append(board(s).rstrip("\n"))
    _emit("\n".join(lines) if lines else "", args.out)
    return 0


def _option(flag, kind=None, choices=None, required=False, default=None,
            help=None):
    """One option row: flag, dest, type, choices, required, default, help.

    `kind` is the value's type (None keeps the string) or "store_true" for a
    flag that takes no value; dest is the flag's name as argparse derives it.
    """
    if kind == "store_true":
        default = False
    return (flag, flag[2:].replace("-", "_"), kind, choices, required, default,
            help)


_PROFILE = _option("--profile", required=True,
                   help="comma-separated profile, e.g. 2,1")
_OUT = _option("--out", help="write output to this file")
_ORDER = _option("--order", _int_at_least(0), required=True,
                 help="truncation degree N")
_VERBOSE = _option("--verbose", "store_true")

#: One row per subcommand: name, help line, option rows, handler.  The rows
#: are the whole grammar: build_parser and _plain_args both read them.
_COMMANDS = (
    ("expand", "coefficients of F_c(1,q)",
     (_PROFILE, _OUT, _ORDER, _VERBOSE,
      _option("--method", required=True,
              choices=("borodin", "chain", "chain-distinct")),
      _option("--format", choices=("text", "json"), default="text")),
     cmd_expand),
    ("count", "refined (max, size) table by enumeration",
     (_PROFILE, _OUT, _ORDER, _VERBOSE,
      _option("--format", choices=("csv", "json"), default="csv")),
     cmd_count),
    ("flow", "slice-flow graph as DOT",
     (_PROFILE, _OUT,
      _option("--max-weight", _int_at_least(1), required=True)),
     cmd_flow),
    ("verify", "audit series identities and lemmas",
     (_option("--id", help="identity tag, e.g. 1.2, A1, gasper, L4.2(2)"),
      _option("--all", "store_true", help="run the pinned verification grid"),
      _option("--order", _int_at_least(0)),
      _option("--z-power", int, help="z = q^Z, only with --id gasper"),
      _option("--format", choices=("text", "csv"), default="text"),
      _OUT, _VERBOSE),
     cmd_verify),
    ("decompose", "level slices of one partition",
     (_option("--json",
              help='inline JSON {"profile":[2,1],"rows":[[2,2,1],[3]]}'),
      _option("--file", help="path to a JSON partition file"),
      _option("--boards", "store_true", help="ASCII boards too"),
      _OUT),
     cmd_decompose),
)

#: Per command: its option rows by flag, the namespace fields with their
#: defaults, and the flags it requires.
_GRAMMAR = {
    name: ({row[0]: row for row in options},
           {"command": name, "fn": handler,
            **{row[1]: row[5] for row in options}},
           frozenset(row[0] for row in options if row[4]))
    for name, _help, options, handler in _COMMANDS
}


def _plain_args(argv: list[str]):
    """The namespace argparse makes of a plain argv (module docstring), or
    None for any other argv.

    In a plain argv every option token is an exact option string and every
    value token starts with no "-", so argparse, too, reads it token by
    token: an option, then its one value; the last of a repeated option
    wins; defaults fill the rest.
    """
    grammar = _GRAMMAR.get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, defaults, required = grammar
    fields = dict(defaults)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        row = options.get(token)
        if row is None:
            return None
        flag, dest, kind, choices = row[:4]
        given.add(flag)
        if kind == "store_true":
            fields[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except Exception:  # argparse reports the failure, or raises it
                return None
        if choices is not None and value not in choices:
            return None
        fields[dest] = value
    if not required <= given:
        return None
    return SimpleNamespace(**fields)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The cylgf parser; with argv naming a subcommand exactly in argv[0],
    only that subcommand's parser is built.

    argparse reads the first positional as the subcommand, and the top-level
    parser has no option that takes a value, so argv[0] is the subcommand
    whenever it is a command name.  Any other argv (none, -h, --, an unknown
    or abbreviated name) gets all subparsers, so the help and the errors that
    list the commands are those of the full parser.  The usage line, which
    argparse also prints for trailing unknown arguments, names every command
    either way.
    """
    import argparse

    p = argparse.ArgumentParser(
        prog="cylgf",
        description="Generating functions of cylindric partitions, computed "
                    "and cross-checked three independent ways.")
    rows = [row for row in _COMMANDS if argv and argv[0] == row[0]]
    metavar = None
    if rows:
        metavar = "{" + ",".join(row[0] for row in _COMMANDS) + "}"
    else:
        rows = _COMMANDS
    # prog: the subparsers' "cylgf <name>" prefix, which argparse would
    # otherwise work out by formatting a usage line
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar,
                           prog=p.prog)
    for name, help_line, options, handler in rows:
        sp = sub.add_parser(name, help=help_line)
        for flag, _, kind, choices, required, default, help_text in options:
            if kind == "store_true":
                sp.add_argument(flag, action=kind, help=help_text)
            else:
                sp.add_argument(flag, type=kind, choices=choices,
                                required=required, default=default,
                                help=help_text)
        sp.set_defaults(fn=handler)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = build_parser(argv).parse_args(argv)
        # argparse turns an explicit `--opt=--` into [] and skips the
        # option's type and choices; no option here takes a list
        for name, value in vars(args).items():
            if isinstance(value, list):
                print(f"error: argument --{name.replace('_', '-')}: "
                      "expected a value, got '--'", file=sys.stderr)
                return 2
    try:
        return args.fn(args)
    except (UsageError, ProfileError, PartitionError, SliceError,
            genfun.UnknownIdentityError, lemmas.LemmaSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a contract violation (NotAUnitError, OrderMismatchError,
        # FormulaError) or any other bug, not bad input; exit 1 is reserved
        # for a failed verification
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
