"""Command-line front end.

Exit codes: 0 success, 1 for a verification mismatch, 2 for bad input: an
argv that argparse rejects (parse errors and unknown options), an option
given the value `--`, and every `record.InputError` (bad profiles,
partitions, tags and option combinations, unreadable or unwritable files,
an empty `--out`, a closed stdout or one whose reader has gone; the README
lists them all); 3 for internal contract violations and any other unexpected
exception.  `main` returns the code for every argv and lets no SystemExit
out, and after a failed write to stdout leaves `sys.stdout` open on
os.devnull.  Each command below assembles its own output: the modules it
calls return records and tuples, never text.  A command returns (exit code,
output text, counters or None), its counters built only under `--verbose`;
`main` alone times it and writes the counters to stderr as one JSON object
and the text, newline-ended and help included, to stdout or `--out`.
`verify` is one loop over (tag, z-power, order) checks, one for `--id` and
one per identity of `data/verify_all.json` for `--all`, which then checks
the lemma grid in one batch.

At module level this imports only what `import cylgf` loads anyway:
`record`, `cylindric` and `series`.  `json` and the modules that only some
commands run come from `_lazy`, which imports each on first read and keeps
it.  A command reads the module it runs once and calls through it (`slices
= _lazy.slices`, then `slices.decompose(cp)`): `expand` `genfun` (which
imports `slices`), `flow` and `decompose` `slices`, `verify` `genfun` for a
catalog tag and `lemmas` for a lemma tag or `--all`.  `json`, which imports
`re`, is read only where JSON is read or written: `--format json` of
`expand` and `count`, `verify --all`, `decompose` and the `--verbose` line;
`lemmas` imports `re` only to parse a tag.  So a text `count`, `flow` or
`expand` loads neither, and `import cylgf.cli` takes 2.5 ms of CPU in a
fresh `python -I` and 4.2 ms under `python -S`, against 7.1 and 21.7 ms
with every import at module level (medians of 40 fresh interpreters,
CPython 3.11.7, 2-vCPU Xeon VM).  A process that runs many commands imports
each module once: with the caches cold, as between the benchmark's jobs of
0.2-0.5 ms, an import statement that finds its module loaded costs about
30 us, against 1 us to read an attribute of `_lazy`.

The option grammar is one table, `_COMMANDS`.  A plain argv (a command name,
then exact option strings of that command, each value option followed by a
value that does not start with "-", converts with its type and is one of its
choices, every required option given) is read straight from the table, and
`argparse` is not imported.  Any other argv (help, `--opt=value`,
abbreviations, values such as `-1`, bad values, missing options) goes to
the full `argparse` parser, the only source of help, usage and error text.
"""
from __future__ import annotations

import sys
import time
from types import SimpleNamespace

from .cylindric import Profile, enumerate_table, validate
from .record import InputError
from .series import first_mismatch


class _Lazy:
    """`json`, `genfun`, `lemmas` and `slices`, each imported on first read
    and kept as an attribute; any other name raises AttributeError."""

    def __getattr__(self, name: str):
        if name not in ("json", "genfun", "lemmas", "slices"):
            raise AttributeError(name)
        path = name if name == "json" else f"{__package__}.{name}"
        __import__(path)
        setattr(self, name, sys.modules[path])
        return sys.modules[path]


_lazy = _Lazy()


def _parse_profile(text: str) -> Profile:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse profile {text!r}")
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


def cmd_expand(args):
    genfun = _lazy.genfun
    profile = _parse_profile(args.profile)
    work = None
    if args.method == "borodin":
        series = genfun.borodin(profile, args.order)
        if args.verbose:
            work = {"factors": len(genfun.borodin_specs(profile))}
    else:
        distinct = args.method == "chain-distinct"
        gf = genfun.chain_series(profile, args.order, distinct,
                                  refined=False)
        series = gf.marginal()
        if args.verbose:
            work = {"nodes": gf.nodes, "shapes": gf.shapes,
                    "shape_pairs": gf.shape_pairs, "slot_bits": gf.slot_bits}
    if args.format == "json":
        # decimal strings keep big coefficients exact in any JSON reader
        text = _lazy.json.dumps({"order": series.order,
                                 "coeffs": [str(c) for c in series.coeffs]})
    else:
        text = "[" + ", ".join(map(str, series.coeffs)) + "]"
    return 0, text, work


def cmd_count(args):
    profile = _parse_profile(args.profile)
    table = enumerate_table(profile, args.order)
    work = None
    if args.verbose:
        work = {"partitions": sum(map(sum, table.counts)),
                "prefixes": table.prefixes,
                "walked": ",".join(map(str, table.walked.parts))}
    if args.format == "json":
        text = _lazy.json.dumps({
            "profile": list(profile.parts), "order": table.order,
            "counts": [list(row) for row in table.counts]})
    else:
        lines = ["max,size,count"]
        for m, row in enumerate(table.counts):
            lines += [f"{m},{n},{k}" for n, k in enumerate(row) if k]
        text = "\n".join(lines)
    return 0, text, work


def cmd_flow(args):
    slices = _lazy.slices
    profile = _parse_profile(args.profile)
    # nodes come in print order, (weight, shape), and edges sorted
    nodes, edges = slices.flow_graph(profile, args.max_weight)
    names = {sh: slices.shape_name(sh) for sh in {sh for _, sh in nodes}}
    lines = ["digraph sliceflow {"]
    lines += [f'  n{k} [label="{names[sh]}q^{weight}"];'
              for k, (weight, sh) in enumerate(nodes)]
    lines += [f"  n{i} -> n{j};" for i, j in edges]
    lines.append("}")
    work = {"nodes": len(nodes), "edges": len(edges)} if args.verbose else None
    return 0, "\n".join(lines), work


def cmd_verify(args):
    if args.z_power is not None and (args.all or args.id != "gasper"):
        raise InputError("--z-power applies only to --id gasper")
    if args.format == "csv" and (args.all or (args.id or "").startswith("L")):
        raise InputError("--format csv applies only to a catalog identity")
    if args.all and args.id is not None:
        raise InputError("verify takes --id or --all, not both")
    if args.all:
        import os  # not loaded at start-up under `python -S`

        with open(os.path.join(os.path.dirname(__file__), "data",
                               "verify_all.json"), encoding="utf-8") as fh:
            grid = _lazy.json.load(fh)
        checks = [(entry["id"], entry.get("z_power"), entry["order"])
                  for entry in grid["identities"]]
    elif args.id is not None:
        checks = [(args.id, args.z_power, 40)]
    else:
        raise InputError("verify needs --id or --all")
    lines: list[str] = []
    ok = True
    work = {"identities": 0, "lemma_specs": 0}
    for tag, z_power, default in checks:
        order = default if args.order is None else args.order
        if tag.startswith("L"):  # a lemma tag, up to its first failing spec
            lemmas = _lazy.lemmas
            specs = lemmas.parse_tag(tag)
            work["lemma_specs"] += len(specs)
            bad = next(filter(None, lemmas.verify_lemmas(specs, order)), None)
        else:
            work["identities"] += 1
            lhs, rhs = _lazy.genfun.catalog_sides(tag, order, z_power)
            bad = first_mismatch(lhs, rhs)
        ok &= bad is None
        if args.format == "csv":
            lines.append("degree,lhs,rhs,equal")
            lines += [f"{n},{a},{b},{str(a == b).lower()}"
                      for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs))]
        else:
            name = tag if z_power is None else f"{tag}(z=q^{z_power})"
            status = "FAIL@q^{} lhs={} rhs={}".format(*bad) if bad else "PASS"
            lines.append(f"{name},order={order},{status}")
    if args.all:
        # the whole lemma grid in one batch, whose specs share prefix tries
        lemmas = _lazy.lemmas
        lem = grid["lemmas"]
        order = lem["order"] if args.order is None else args.order
        specs = lemmas.grid(lem["n_max"], lem["m_max"], lem["k_max"])
        work["lemma_specs"] += len(specs)
        for spec, bad in zip(specs, lemmas.verify_lemmas(specs, order)):
            ok &= bad is None
            k = "-" if spec.fixed_k is None else spec.fixed_k
            status = "PASS" if bad is None else f"FAIL@q^{bad[0]}"
            m_vec = "+".join(map(str, spec.blocks))
            lines.append(f"{spec.family},{len(spec.blocks)},{m_vec},{k},"
                         f"{order},{status}")
    return 0 if ok else 1, "\n".join(lines), work if args.verbose else None


def _parse_partition(data) -> tuple[Profile, list]:
    """Profile and rows of a decoded {"profile": [...], "rows": [[...], ...]}."""
    def ints(value) -> bool:
        # bool is a subclass of int but not a part
        return isinstance(value, list) and all(type(v) is int for v in value)

    if not (isinstance(data, dict) and ints(data.get("profile"))
            and isinstance(data.get("rows"), list)
            and all(ints(row) for row in data["rows"])):
        raise InputError('a partition is a JSON object {"profile": [int, ...], '
                         '"rows": [[int, ...], ...]}')
    return Profile(tuple(data["profile"])), data["rows"]


def cmd_decompose(args):
    slices = _lazy.slices
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc.strerror}")
        except UnicodeDecodeError:
            raise InputError(f"cannot read {args.file}: not UTF-8 text")
    elif args.json:
        text = args.json
    else:
        raise InputError("decompose needs --json or --file")
    try:
        data = _lazy.json.loads(text)
    except RecursionError:
        raise InputError("partition JSON is nested too deeply")
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InputError(f"bad partition JSON: {exc}")
    profile, rows = _parse_partition(data)
    cp = validate(profile, rows)
    gray = slices.baseline(profile)
    levels = slices.decompose(cp)
    lines = []
    for k, s in enumerate(levels, start=1):
        sh = slices.shape(gray, s.white)
        term = f"{slices.shape_name(sh)}q^{s.weight}"
        lines.append(
            f"level {k}: t={s.white} weight={s.weight} shape={sh} term={term}")
        if args.boards:
            # the board: '.' for gray squares, '#' for white, one line per
            # row; empty trailing rows print no line
            lines.append("\n".join(
                "." * b + "#" * t for b, t in zip(gray, s.white)).rstrip("\n"))
    work = {"levels": len(levels), "size": cp.size} if args.verbose else None
    return 0, "\n".join(lines), work


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
              choices=("borodin", "chain", "chain-distinct"),
              help="borodin and chain count every cylindric partition; "
                   "chain-distinct only those whose part values are "
                   "exactly 1, ..., m, m the largest part"),
      _option("--format", choices=("text", "json"), default="text")),
     cmd_expand),
    ("count", "refined (max, size) table by enumeration",
     (_PROFILE, _OUT, _ORDER, _VERBOSE,
      _option("--format", choices=("csv", "json"), default="csv")),
     cmd_count),
    ("flow", "slice-flow graph as DOT",
     (_PROFILE, _OUT,
      _option("--max-weight", _int_at_least(1), required=True), _VERBOSE),
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
      _OUT, _VERBOSE),
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


def build_parser() -> argparse.ArgumentParser:
    """The cylgf parser, one subparser per row of `_COMMANDS`."""
    import argparse

    p = argparse.ArgumentParser(
        prog="cylgf",
        description="Generating functions of cylindric partitions, computed "
                    "and cross-checked three independent ways.")
    # prog: the subparsers' "cylgf <name>" prefix, which argparse would
    # otherwise work out by formatting a usage line
    sub = p.add_subparsers(dest="command", required=True, prog=p.prog)
    for name, help_line, options, handler in _COMMANDS:
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


def _parse_args(argv: list[str]):
    """The full parser's namespace of an argv that is not plain; for help,
    a command that returns the help text.  A rejected argv raises
    argparse's SystemExit(2), its usage and error already on stderr."""
    import contextlib
    import io

    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            raise
        return SimpleNamespace(fn=lambda _: (0, text.getvalue(), None),
                               out=None)
    # argparse turns an explicit `--opt=--` into [] and skips the option's
    # type and choices; no option here takes a list
    for name, value in vars(args).items():
        if isinstance(value, list):
            raise InputError(f"argument --{name.replace('_', '-')}: "
                             "expected a value, got '--'")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv) or _parse_args(argv)
        # `seconds` spans the command: reading and checking its input, the
        # work and the formatting, not the write
        start = time.perf_counter()
        code, text, work = args.fn(args)
        if work is not None:
            work["seconds"] = round(time.perf_counter() - start, 6)
            print(_lazy.json.dumps(work), file=sys.stderr)
        if not text.endswith("\n"):
            text += "\n"
        try:
            if args.out is not None:
                with open(args.out, "w") as fh:
                    fh.write(text)
            elif sys.stdout is None:  # descriptor 1 was closed at start-up
                raise InputError("cannot write stdout: Bad file descriptor")
            else:
                sys.stdout.write(text)
                sys.stdout.flush()
        except OSError as exc:
            if args.out is None:  # else the flush at exit retries the text
                import os  # not loaded at start-up under `python -S`

                sys.stdout = open(os.devnull, "w")
            where = "stdout" if args.out is None else args.out
            raise InputError(f"cannot write {where}: {exc.strerror}")
        return code
    except SystemExit:  # argparse rejected the argv and said why on stderr
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not bad input: a contract violation (NotAUnitError,
        # OrderMismatchError, PochSpecError, SliceError, none of them an
        # InputError) or any other bug; exit 1 is reserved for a failed
        # verification
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
