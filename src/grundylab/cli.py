"""Command-line interface.

Subcommands:
  grundy <poset-spec> <family>   per-element Grundy table for one game
  tables <name>                  reference tables (phi, gq, hn, asm-ideal, asm-ruler)
  verify <suite>                 run verification suites, nonzero exit on failure

Poset specs: chain:N | divisors:N | subspaces:N:Q | setpartitions:N | asm:N
| file:PATH (JSON {"n":..., "covers":[[i,j],...], "labels":[...]}).

Each table has its own sub-parser, built from `_TABLES`, whose options
follow the name: its one size flag (`--max` for phi, gq and hn, `--n` for
the asm tables), `--format`, `--max-elements` and `--max-seconds`.  Every
default and every range lives where its flag is declared: the argparse
type of a numeric flag refuses a value out of range as a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap.

Importing this module loads only `errors` from the package; each subcommand
imports the modules it runs when it runs.  Every command is a fresh
interpreter, often with no bytecode cache, so every module it loads is
compiled from source on each run: `tables hn` never compiles the poset code,
and only `verify` compiles the checks and their oracles.

`--max-seconds` budgets the whole subcommand by one process timer whose
SIGALRM handler writes the cap line and ends the process with exit 3
wherever the work is, so `main` never returns from a budget that runs out;
the table is written after the timer is disarmed.  `signal.setitimer` is
POSIX-only (the tool is run and tested on Linux), and `main` must run in
the main thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from math import isqrt

from . import __version__
from .errors import TooLargeError

# The down masks of an n-element poset take about n^2/16 bytes (ids are a
# linear extension, so the mask of element i is i + 1 bits wide), 0.6 GB
# at this cap.
MAX_POSET_ELEMENTS = 100_000
# the parser's choices, spelled out so that building it imports neither
# `games` nor `checks`; tests keep them equal to `games.family_builders()`
# and `checks.SUITES`
FAMILY_NAMES = ("ideal", "ruler", "tt")
SUITE_NAMES = ("all", "closed-forms", "ft", "nimber", "partitions")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _render(fmt: str, columns: tuple[str, ...], rows: list[tuple], metadata: dict) -> str:
    """Text and csv: one `# key: value` line per metadata key, then the
    header and the rows; json: one object of the three."""
    if fmt == "json":
        import json

        return json.dumps({"columns": columns, "rows": rows, "metadata": metadata}, sort_keys=True) + "\n"
    lines = [f"# {k}: {metadata[k]}\n" for k in sorted(metadata)]
    if fmt == "csv":
        import csv
        import io

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([columns, *rows])
        return "".join(lines) + out.getvalue()
    widths = [max(len(str(v)) for v in column) for column in zip(columns, *rows)]
    lines += ["  ".join(str(v).ljust(w) for v, w in zip(row, widths)) + "\n" for row in [columns, *rows]]
    return "".join(lines)


class SpecError(Exception):
    """Unparseable poset spec."""


def parse_poset_spec(spec: str, max_elements: int) -> "FinitePoset":
    """The one place the element cap is checked: before construction where
    the spec gives the size, on the `n` a `file:` declares before any mask
    is built, and on the built poset for divisors."""
    head, _, rest = spec.partition(":")

    def guard(size: int) -> None:
        if size > max_elements:
            raise TooLargeError(f"{spec} has {size} elements (cap {max_elements})")

    try:
        if head == "file":
            # also bounds the covers list; setpartitions:9 serialises to ~145 bytes per element
            limit = 1024 * max_elements
            with open(rest, "rb") as fh:
                # a regular file is refused by its size unread; /dev/zero and
                # pipes report size 0 and stop at the read bound
                size = os.fstat(fh.fileno()).st_size
                if size <= limit:
                    data = fh.read(limit + 1)
                    size = len(data)
            if size > limit:
                raise TooLargeError(f"{spec} is over {limit} bytes, 1024 per element (cap {max_elements})")
            from .poset import FinitePoset

            try:
                return FinitePoset.from_json(data.decode("utf-8"), guard)
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ValueError(f"malformed poset file: {exc}") from exc
        from . import families

        if head == "chain":
            guard(int(rest))
            return families.chain(int(rest))
        if head == "divisors":
            n = int(rest)
            trials = isqrt(max(n, 0))  # a negative n reaches divisor_poset's own check
            if trials > max_elements:
                raise TooLargeError(f"{spec} needs {trials} trial divisions (cap {max_elements})")
            poset = families.divisor_poset(n)
            guard(poset.n)
            return poset
        if head == "subspaces":
            n, q = (int(v) for v in rest.split(":"))
            from . import gf

            gf.FiniteField(q)  # an unsupported q is a usage error at any n
            if n > max_elements.bit_length():  # F_q^n has at least 2^n subspaces
                raise TooLargeError(f"{spec} has at least 2^{n} elements (cap {max_elements})")
            guard(sum(families.q_binomial(n, r, q) for r in range(n + 1)))
            return families.subspace_lattice(n, q)
        if head == "setpartitions":
            n = int(rest)
            if n - 1 > max_elements.bit_length():  # Bell(n) >= 2^(n-1)
                raise TooLargeError(f"{spec} has at least 2^{n - 1} elements (cap {max_elements})")
            guard(families.bell_number(n))
            return families.set_partition_poset(n)
        if head == "asm":
            n = int(rest)
            guard(n * (n + 1) * (n - 1) // 6)
            return families.asm_poset(n)
    except (ValueError, OSError) as exc:
        raise SpecError(f"bad poset spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown poset spec {spec!r}")


def _meta(**kw) -> dict:
    kw["tool_version"] = __version__
    return kw


# -- subcommands --------------------------------------------------------------
# a command returns an exit code, or a table as (columns, rows, metadata)


def cmd_grundy(args) -> tuple:
    from . import games

    poset = parse_poset_spec(args.poset, args.max_elements)
    fam = games.family_builders()[args.family](poset)
    table = games.solve_elementwise(fam)
    rows = [(str(poset.labels[x]), table.values[x]) for x in poset.ids]
    return ("element_label", "grundy"), rows, _meta(poset=args.poset, family=args.family, elements=poset.n)


def _table_phi(args) -> tuple:
    from . import nimber

    rows = [(x, nimber.nu2(x), nimber.ruler_phi(x)) for x in range(1, args.max + 1)]
    return ("x", "nu", "phi"), rows, _meta(table="phi", max=args.max)


def _table_gq(args) -> tuple:
    from . import closedforms

    rows = [
        (d, closedforms.subspace_ruler_grundy(2, d), closedforms.subspace_ruler_grundy(3, d))
        for d in range(args.max + 1)
    ]
    return ("d", "q_even", "q_odd"), rows, _meta(table="gq", max=args.max)


def _table_hn(args) -> tuple:
    from . import partitions

    visits = partitions.count_partitions_up_to(args.max, args.max_elements)
    if visits > args.max_elements:
        raise TooLargeError(f"tables hn visits at least {visits} partitions (cap {args.max_elements})")
    h = partitions.h_sequence(args.max)
    rows = [(n, h[n]) for n in range(1, args.max + 1)]
    meta = _meta(table="hn", max=args.max)
    # the paper lists h(1..17), `partitions.H_ROW`
    paper_max = len(partitions.H_ROW)
    if args.max > paper_max:
        meta["provenance"] = _hn_provenance(args.max, paper_max)
    return ("n", "h"), rows, meta


# the last h(n) checked against the M_n recurrence (`partitions.s_of_mu`),
# by test_h_sequence_matches_the_literal_mex_loop_to_the_confirmed_bound
_HN_RECURRENCE_MAX = 20


def _hn_provenance(n_max: int, paper_max: int) -> str:
    def span(a, b):
        return f"h({a})" if a == b else f"h({a}..{b})"

    notes = [
        "computed by the block-multiset parity DP",
        f"{span(1, paper_max)} match the paper's table",
        f"{span(paper_max + 1, min(n_max, _HN_RECURRENCE_MAX))} confirmed by the M_n recurrence",
    ]
    if n_max > _HN_RECURRENCE_MAX:
        notes.append(f"{span(_HN_RECURRENCE_MAX + 1, n_max)} not independently confirmed")
    return "; ".join(notes)


def _table_asm_ideal(args) -> tuple:
    from . import closedforms

    n = args.n
    rows = [(r, s, closedforms.asm_ideal_grundy(r, s)) for r in range(n - 1) for s in range(r + 1)]
    return ("r", "s", "grundy"), rows, _meta(table="asm-ideal", n=n)


def _table_asm_ruler(args) -> tuple | int:
    from . import families, games

    n = args.n
    poset = parse_poset_spec(f"asm:{n}", args.max_elements)
    table = games.solve_elementwise(games.ruler_family(poset))
    fibers = {}
    for x in range(poset.n):
        fibers.setdefault(families.asm_pi(n, poset.labels[x]), []).append(table.values[x])
    # a row prints one value per (rank, z) fiber, so every element must share it
    bad = {key: vals for key, vals in fibers.items() if len(set(vals)) > 1}
    for key, vals in sorted(bad.items()):
        print(f"error: asm-ruler fiber {key} is not constant: {vals}", file=sys.stderr)
    if bad:
        return EXIT_VERIFY_FAILED
    rows = [
        (r, s, fibers[(r, s)][0])
        for r in range(n - 1)
        for s in range(r + 1)
    ]
    # eta is an order automorphism that keeps the rank and sends z to r - z
    asym = [(r, s, v) for r, s, v in rows if s < r - s and v != fibers[(r, r - s)][0]]
    for r, s, v in asym:
        print(
            f"error: asm-ruler g({r}, {s}) = {v} but g({r}, {r - s}) = "
            f"{fibers[(r, r - s)][0]}: the table is not eta-symmetric",
            file=sys.stderr,
        )
    if asym:
        return EXIT_VERIFY_FAILED
    meta = _meta(
        table="asm-ruler",
        n=n,
        provenance="computed by the generic per-element solver; not checked against external values",
    )
    return ("s", "t", "grundy"), rows, meta


# name -> (builder, size flag, its default, row count from the flag's value);
# hn and asm-ruler count their own work instead: the partitions of hn's DP,
# asm-ruler's asm:N poset through the spec guard.  Each name is a `tables`
# sub-parser that takes its own size flag alone.
_TABLES = {
    "phi": (_table_phi, "max", 15, lambda m: m),
    "gq": (_table_gq, "max", 14, lambda m: m + 1),
    "hn": (_table_hn, "max", 17, None),
    "asm-ideal": (_table_asm_ideal, "n", 10, lambda n: n * (n - 1) // 2),
    "asm-ruler": (_table_asm_ruler, "n", 8, None),
}


def cmd_tables(args) -> tuple | int:
    builder, flag, _, count = _TABLES[args.name]
    if count is not None:  # checked before any row is built
        rows = count(getattr(args, flag))
        if rows > args.max_elements:
            raise TooLargeError(f"tables {args.name} has {rows} rows (cap {args.max_elements})")
    return builder(args)


def cmd_verify(args) -> int:
    from . import checks

    failures = 0
    for runner in checks.SUITES[args.suite]:
        for name, ok, detail in runner():
            tag = "PASS" if ok else "FAIL"
            line = f"{tag}  {name}"
            if detail and not ok:
                line += f"  [{detail}]"
            print(line)
            failures += 0 if ok else 1
    print(f"{'OK' if not failures else 'FAILED'}: {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# -- entry point ---------------------------------------------------------------


def _checked(kind, ok, why: str):
    """An argparse type: the text as `kind`, refused with `why` unless `ok`."""

    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(why)
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return convert


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"must be at least {low}")


# a table's size flag -> (its floor, help)
_SIZE_FLAGS = {"max": (1, "row bound"), "n": (2, "board size")}


class _Parser(argparse.ArgumentParser):
    """Refuses an unrecognized argument with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grundylab",
        description="Grundy values of coin-turning games on finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # every sub-parser, at every level, is a _Parser too

    def add_output_and_caps(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--max-elements", type=_at_least(1), default=MAX_POSET_ELEMENTS)
        # setitimer(0) disarms the timer; 1e9 s is about 31 years, and
        # setitimer rejects 1e15 s as out of range
        seconds = _checked(float, lambda s: 0 < s <= 1e9, "must be positive and at most 1e9")
        p.add_argument("--max-seconds", type=seconds, default=None)

    # allow_abbrev=False: one spelling per option, so --max-e is not --max-elements
    g = sub.add_parser("grundy", help="per-element Grundy table for a poset game", allow_abbrev=False)
    g.add_argument("poset", help="chain:N | divisors:N | subspaces:N:Q | setpartitions:N | asm:N | file:PATH")
    g.add_argument("family", choices=FAMILY_NAMES)
    add_output_and_caps(g)
    g.set_defaults(func=cmd_grundy)

    tables = sub.add_parser("tables", help="reference tables").add_subparsers(dest="name", required=True)
    for name, (_, flag, default, _) in sorted(_TABLES.items()):
        floor, what = _SIZE_FLAGS[flag]
        t = tables.add_parser(name, allow_abbrev=False)
        t.add_argument(f"--{flag}", type=_at_least(floor), default=default, help=f"{what} (default {default})")
        add_output_and_caps(t)
        t.set_defaults(func=cmd_tables)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.set_defaults(func=cmd_verify)
    return parser


@contextmanager
def _time_budget(seconds: float):
    """End the process with EXIT_RESOURCE once `seconds` have passed in the
    block.  `os._exit` leaves from wherever the alarm lands, even where an
    exception would be dropped (a gc callback, a `__del__`)."""
    import signal

    def out_of_time(signum, frame):
        print(f"resource cap: command not finished within {seconds}s", file=sys.stderr, flush=True)
        os._exit(EXIT_RESOURCE)

    previous = signal.signal(signal.SIGALRM, out_of_time)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    budget = getattr(args, "max_seconds", None)
    try:
        with _time_budget(budget) if budget is not None else nullcontext():
            result = args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLargeError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    if isinstance(result, int):
        return result
    sys.stdout.write(_render(args.format, *result))
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
