"""Command-line front end.

Exit codes: 0 success, 1 for a verification mismatch, 2 for bad input: an
argv that argparse rejects (parse errors and unknown options), an option
given the value `--`, and every `record.InputError` (unknown identity tags
or extra lemma parameters, `--z-power` without `--id gasper`, `--format csv`
without a catalog identity, malformed or invalid profiles and partitions,
partition JSON that is not UTF-8, nested past the recursion limit or holds
an integer past the digit limit, unreadable or unwritable files, an empty
`--out`, a closed stdout or one whose reader has gone, `verify --all` with
`--id`); 3 for internal contract violations and any other unexpected
exception.  All file output ends with a trailing newline and is
byte-identical across runs of the same command.
`--verbose`, taken by every command, also writes the command's work
counters and time to stderr as one JSON object.  Each command below
assembles its own output: the modules it calls return records and tuples,
never text.  A command returns (exit code, output text, counters or None),
its counters built only under `--verbose`; `main` alone times it, writes
the counters and writes the text to stdout or `--out`.  `verify` checks
lemma tags in `lemmas`, other tags in `genfun`.

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
    nodes, edges = slices.flow_graph(profile, args.max_weight)
    gray = slices.baseline(profile)
    # nodes in (weight, shape, white) order, edges by their ends' ranks; a
    # white tuple is unique, so the keys alone sort
    order = sorted((sum(t), slices.shape(gray, t), t) for t in nodes)
    names = {sh: slices.shape_name(sh) for sh in {sh for _, sh, _ in order}}
    rank = {t: k for k, (_, _, t) in enumerate(order)}
    lines = ["digraph sliceflow {"]
    for k, (weight, sh, _) in enumerate(order):
        lines.append(f'  n{k} [label="{names[sh]}q^{weight}"];')
    for i, j in sorted((rank[u], rank[v]) for u, v in edges):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    work = {"nodes": len(nodes), "edges": len(edges)} if args.verbose else None
    return 0, "\n".join(lines), work


def _verify_one(tag: str, order: int, z_power, lines: list[str],
                work: dict) -> bool:
    """Check one --id tag, up to a lemma tag's first failing spec, and
    append its line."""
    if tag.startswith("L"):
        lemmas = _lazy.lemmas
        specs = lemmas.parse_tag(tag)
        work["lemma_specs"] += len(specs)
        checks = lemmas.verify_lemmas(specs, order)
        bad = next((b for b in checks if b is not None), None)
    else:
        work["identities"] += 1
        bad = first_mismatch(*_lazy.genfun.catalog_sides(tag, order, z_power))
    name = tag if z_power is None else f"{tag}(z=q^{z_power})"
    status = "PASS" if bad is None else "FAIL@q^{} lhs={} rhs={}".format(*bad)
    lines.append(f"{name},order={order},{status}")
    return bad is None


def _lemma_line(spec, order: int, bad, lines: list[str]) -> bool:
    """Append the line of one spec of the --all grid, given its
    `verify_lemmas` result."""
    status = "PASS" if bad is None else f"FAIL@q^{bad[0]}"
    k = "-" if spec.fixed_k is None else spec.fixed_k
    m_vec = "+".join(map(str, spec.blocks))
    lines.append(f"{spec.family},{len(spec.blocks)},{m_vec},{k},{order},"
                 f"{status}")
    return bad is None


def cmd_verify(args):
    if args.z_power is not None and (args.all or args.id != "gasper"):
        raise InputError("--z-power applies only to --id gasper")
    if args.format == "csv" and (args.all or (args.id or "").startswith("L")):
        raise InputError("--format csv applies only to a catalog identity")
    if args.all and args.id is not None:
        raise InputError("verify takes --id or --all, not both")
    lines: list[str] = []
    ok = True
    work = {"identities": 0, "lemma_specs": 0}
    if args.all:
        import os  # not loaded at start-up under `python -S`

        lemmas = _lazy.lemmas
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "verify_all.json"), encoding="utf-8") as fh:
            grid = _lazy.json.load(fh)
        for entry in grid["identities"]:
            order = args.order if args.order is not None else entry["order"]
            ok &= _verify_one(entry["id"], order, entry.get("z_power"), lines,
                              work)
        lem = grid["lemmas"]
        order = args.order if args.order is not None else lem["order"]
        specs = lemmas.grid(lem["n_max"], lem["m_max"], lem["k_max"])
        work["lemma_specs"] += len(specs)
        for spec, bad in zip(specs, lemmas.verify_lemmas(specs, order)):
            ok &= _lemma_line(spec, order, bad, lines)
    elif args.id:
        order = args.order if args.order is not None else 40
        if args.format == "csv":
            lhs, rhs = _lazy.genfun.catalog_sides(args.id, order, args.z_power)
            work["identities"] += 1
            lines.append("degree,lhs,rhs,equal")
            for n in range(order + 1):
                a, b = lhs.coeffs[n], rhs.coeffs[n]
                lines.append(f"{n},{a},{b},{str(a == b).lower()}")
                ok &= a == b
        else:
            ok = _verify_one(args.id, order, args.z_power, lines, work)
    else:
        raise InputError("verify needs --id or --all")
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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        # argparse turns an explicit `--opt=--` into [] and skips the
        # option's type and choices; no option here takes a list
        for name, value in vars(args).items():
            if isinstance(value, list):
                print(f"error: argument --{name.replace('_', '-')}: "
                      "expected a value, got '--'", file=sys.stderr)
                return 2
    try:
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
            # a failed flush drops the buffered text, so the interpreter's
            # flush at exit finds nothing to write and reports nothing
            where = "stdout" if args.out is None else args.out
            raise InputError(f"cannot write {where}: {exc.strerror}")
        return code
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
