"""Command-line front end.

Subcommands: ``eval`` (point values), ``table`` (CSV grids for plotting),
``transform`` (exact partial fractions and closed forms, with optional
numeric cross-check), ``solve`` (the s-domain equation solved and inverted)
and ``verify`` (the self-check suites).  CSV goes to stdout, diagnostics to
stderr; exit codes are 0 for success, 1 for verification failure, 2 for
usage errors, 3 for an unexpected internal error, reported in one line, and
141 (128 + SIGPIPE) when the reader closes stdout early, with nothing on
stderr.

A ``ValueError`` is the signal for a rejected input, wherever it is raised:
by argparse (through ``_Parser.error``), by a size cap below, or by the
library inside a handler.  ``main`` turns each one into a single
``error: <message>`` line on stderr and exit 2; no handler catches it.

Each command imports the library modules it runs inside its handler, so
``table`` loads only the float layer, ``recurrence``, and ``tables``; a
named ``transform`` loads the float layer and ``integrate``, which holds the
pairs and their quadrature check; ``eval`` adds ``alpha_calc`` and
``laguerre`` for its exact form, ``transform laguerre`` and ``solve`` add
``laplace``, and only ``verify`` loads the suites.

A well-formed command line is parsed without argparse: ``_parse_exact``
reads the one table of subcommands, ``_COMMANDS``, and gives the namespace
argparse would give.  argparse is imported, and its parser built from the
same table, only for a help request and for a line ``_parse_exact``
declines, so every help text and error message is argparse's.  That saves
each well-formed call 3.8-4.8 ms compiled from source in the benchmark's
environment, 4.0-4.7 ms with bytecode and 6.7-7.6 ms under ``python3 -S``,
where argparse also loaded ``shutil``, ``bz2`` and ``lzma`` (medians of 21
interleaved runs of each of five commands, one pinned CPU of a 2-vCPU Linux
host, Python 3.11.7).
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

_DEFAULT_ALPHAS = "0.25,0.5,0.75,1.0"
# Size caps on single inputs, each a usage error when exceeded.  MAX_N
# caps the degree of ``eval``, ``table``, ``solve`` and ``transform laguerre
# <n>``; it stays below 1559, where the coefficient 1/n! of the printed exact
# forms passes Python's default 4300-digit limit on int-to-str conversion.
# MAX_ALPHAS is twice the default list.
MAX_N = 1500
MAX_M = 100
MAX_SAMPLES = 100_000
MAX_ALPHAS = 8
# The cap on one table's work, (n+1) * samples * alphas recurrence steps,
# checked before any evaluation: a table at the cap takes 3-5 s as one
# process, CSV included (2-vCPU Linux host, Python 3.11.7).
MAX_TABLE_STEPS = 20_000_000
_SIZE_LIMITS = (("n", MAX_N), ("m", MAX_M), ("samples", MAX_SAMPLES))
# The shell's status for a process ended by SIGPIPE; Python ignores the
# signal and raises BrokenPipeError instead.
_EXIT_BROKEN_PIPE = 141
# POSIX's least PIPE_BUF: no pipe splits a write of this many bytes or fewer.
_PIPE_CHUNK = 512
# A token that starts like a negative float: -1, -.5, -1e5, -inf, -nan.
_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _parse_alphas(text: str) -> tuple[float, ...]:
    from .recurrence import as_alpha

    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("at least one alpha is required")
    if len(tokens) > MAX_ALPHAS:
        raise ValueError(f"at most {MAX_ALPHAS} alphas, got {len(tokens)}")
    return tuple(as_alpha(float(tok)) for tok in tokens)


def _check_size(name: str, value: int, cap: int) -> None:
    if not 0 <= value <= cap:
        raise ValueError(f"{name} must lie in [0, {cap}], got {value}")


def _cmd_eval(args) -> int:
    from .alpha_calc import x_view_str
    from .laguerre import assoc_closed
    from .recurrence import _reduced_u, laguerre_pair

    alphas = _parse_alphas(args.alpha)
    us = [_reduced_u(args.x, a) for a in alphas]  # a bad u is named before an overflow
    try:
        values = [laguerre_pair(args.n, args.m, u)[0] for u in us]
    except OverflowError:
        raise ValueError(f"L_{args.n}^{args.m} at x={args.x!r} is not a finite float") from None
    for a, value in zip(alphas, values):
        print(f"L_{args.n}^{args.m}(alpha={a!r}, x={args.x!r}) = {value:.12g}")
    print(f"exact form: {x_view_str(assoc_closed(args.n, args.m))}")
    return 0


def _check_table_work(n: int, samples: int, count: int) -> None:
    steps = (n + 1) * samples * count
    if steps > MAX_TABLE_STEPS:
        raise ValueError(
            f"table work (n+1)*samples*alphas = {n + 1}*{samples}*{count} = {steps}"
            f" steps exceeds the cap of {MAX_TABLE_STEPS}"
        )


def _cmd_table(args) -> int:
    from .tables import build_table

    alphas = _parse_alphas(args.alpha)
    _check_table_work(args.n, args.samples, len(alphas))
    table = build_table(args.n, args.m, alphas, args.xmin, args.xmax, args.samples)
    # With PYTHONUNBUFFERED set, each text write goes to the file at once and
    # a short write, as when a pipe's reader leaves mid-write, is dropped
    # without error.  Pieces of _PIPE_CHUNK ASCII bytes cannot be cut short.
    csv = table.to_csv()
    for start in range(0, len(csv), _PIPE_CHUNK):
        sys.stdout.write(csv[start : start + _PIPE_CHUNK])
    return 0


def _grammar() -> dict:
    """kind -> (the parameter it reads, how a token spells it, its type) for
    each transform expression: the pairs ``integrate`` names, then ``laguerre
    <n>``.  p is required; a missing w takes the NamedSignal default."""
    from .integrate import _PAIRS

    spelling = {None: "", "p": "<p>", "omega": "[w]"}
    grammar = {k: (pair.field, spelling[pair.field], float) for k, pair in _PAIRS.items()}
    grammar["laguerre"] = ("n", "<n>", int)
    return grammar


class _GrammarHelp(str):
    """A help template whose ``%(grammar)s`` lists the transform expressions;
    argparse applies ``%`` only when it prints help, so only then is
    ``integrate`` loaded for it."""

    def __mod__(self, params):
        text = ", ".join(f"{k} {spelt}".rstrip() for k, (_, spelt, _) in _grammar().items())
        return str.__mod__(self, dict(params, grammar=text))


def _cmd_transform(args) -> int:
    """Build every output line first, so that a usage error prints none."""
    from . import integrate
    from .recurrence import _check_real

    alphas = _parse_alphas(args.alpha)
    if len(alphas) != 1:
        raise ValueError("transform takes a single alpha")
    alpha = alphas[0]
    if args.s is not None:
        _check_real(args.s, "s")

    grammar = _grammar()
    kind, *values = args.expr
    if kind not in grammar:
        raise ValueError(f"unknown expression {kind!r}")
    field, spelt, convert = grammar[kind]
    if len(values) > (field is not None) or (spelt.startswith("<") and not values):
        raise ValueError(f"usage: transform {kind} {spelt}".rstrip())
    try:
        params = {field: convert(token) for token in values}
    except ValueError:
        raise ValueError(f"transform {kind}: invalid {convert.__name__} "
                         f"value for {spelt}: {values[0]!r}") from None

    if kind == "laguerre":
        from .laplace import laguerre_transform
        from .recurrence import laguerre_pair

        n = params["n"]
        _check_size("n", n, MAX_N)
        F = laguerre_transform(n)
        lines = [f"Y(s) = (s-1)^{n}/s^{n + 1}", f"partial fractions: {F}"]
        # The inverse is the classical L_n(u); the recurrence evaluates it
        # in n float steps, independently of the partial fractions printed.
        g = lambda u: laguerre_pair(n, 0, u)[0]
        degree = n  # the check rule must integrate g exactly
    else:
        sig = integrate.NamedSignal(kind, **params)
        F = integrate.transform_named(sig, alpha)
        lines = [f"transform: {sig.describe(alpha)}"]
        g, degree = sig.reduced(alpha), None

    if args.s is not None:
        closed, numeric = integrate.transform_check(F, g, args.s, degree)
        lines += [
            f"value at s={args.s!r}: {closed:.12g}",
            f"quadrature check: {numeric:.12g} (|diff| = {abs(numeric - closed):.3e})",
        ]
    print("\n".join(lines))
    return 0


def _cmd_solve(args) -> int:
    from . import laplace
    from .alpha_calc import x_view_str
    from .laguerre import laguerre_closed

    n = args.n
    Y = laplace.laguerre_transform(n)
    residual, solution = laplace.s_domain_residual(Y, n), laplace.inverse(Y).as_poly()
    print(f"n = {n}")
    print(f"s-domain equation: {laplace.s_domain_equation(n)}")
    print(f"partial fractions: Y(s) = {Y}")
    print(f"s-domain residual: {residual}{' (exact)' if residual.is_zero else ''}")
    print(f"inverse transform: y(u) = {solution}, u = x^a/a")
    print(f"x-view: {x_view_str(solution)}")
    exact = residual.is_zero and solution == laguerre_closed(n)
    print(f"match: {'exact' if exact else 'MISMATCH against the direct coefficients'}")
    return 0 if exact else 1


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suites(args.scope)
    for entry in results:
        status = "PASS" if entry.passed else "FAIL"
        print(f"{status} {entry.name}: {entry.detail}")
    failed = sum(1 for e in results if not e.passed)
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 1 if failed else 0


# Every subcommand once, for both parsers: the keywords of its
# ``add_parser`` call, its positional as (name, help) or None, and its
# options as (name, type, default, required, help).  A positional takes one
# or more tokens.  The handler of ``<name>`` is ``_cmd_<name>``, looked up
# when a line is parsed.
_COMMANDS = {
    "eval": ({"help": "evaluate a polynomial at one point"}, None, (
        ("n", int, None, True, "degree"),
        ("m", int, 0, False, "association order"),
        ("alpha", str, _DEFAULT_ALPHAS, False, "comma list in (0, 1]"),
        ("x", float, None, True, "evaluation point"),
    )),
    "table": ({"help": "emit a CSV sample grid",
               "description": "Emit a CSV sample grid.  The work (n+1)*samples*alphas "
                              f"may be at most {MAX_TABLE_STEPS} steps."}, None, (
        ("n", int, None, True, None),
        ("m", int, 0, False, None),
        ("alpha", str, _DEFAULT_ALPHAS, False, None),
        ("xmin", float, 0.0, False, None),
        ("xmax", float, 8.0, False, None),
        ("samples", int, 200, False, None),
    )),
    "transform": ({"help": _GrammarHelp("print a transform (%(grammar)s)")},
                  ("expr", _GrammarHelp("one of: %(grammar)s")), (
        ("alpha", str, "1.0", False, None),
        ("s", float, None, False, "also evaluate and cross-check at this s"),
    )),
    "solve": ({"help": "solve the s-domain equation and invert Y"}, None, (
        ("n", int, None, True, None),
    )),
    "verify": ({"help": "run the self-check suites"}, None, (
        ("scope", str, "all", False, "all, or one module's suites"),
    )),
}


def _is_value(token: str) -> bool:
    """Whether argparse reads ``token`` as a value wherever it stands."""
    return not token.startswith("-") or _NEGATIVE_NUMBER.match(token) is not None


def _parse_exact(argv):
    """The namespace argparse gives a well-formed command line, or None.

    Well-formed is the command name, its positionals if it takes any, then
    ``--name value`` pairs, each option named in full and at most once,
    every value converting, every required option present, and no value
    starting with '-' unless it reads as a negative number.  Everything
    else, help requests and rejected lines among them, is left to argparse,
    so every help text and error message is argparse's own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *rest = argv
    _, positional, options = _COMMANDS[command]
    found = {"command": command, "handler": globals()[f"_cmd_{command}"]}
    count = 0
    if positional is not None:
        while count < len(rest) and _is_value(rest[count]):
            count += 1
        if not count:
            return None
        found[positional[0]] = rest[:count]
    pairs = rest[count:]
    given = dict(zip(pairs[::2], pairs[1::2]))
    if len(pairs) != 2 * len(given):
        return None  # an option without a value, or one given twice
    for name, convert, default, required, _ in options:
        value = given.pop(f"--{name}", None)
        if value is None:
            if required:
                return None
            found[name] = default
        elif not _is_value(value):
            return None
        else:
            try:
                found[name] = convert(value)
            except ValueError:
                return None
    return None if given else SimpleNamespace(**found)


def _build_parser():
    """The argparse parser of ``_COMMANDS``, for the lines that
    :func:`_parse_exact` leaves to it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser that reads every negative-looking number as a
        value and raises ValueError for a rejected command line.

        argparse takes a token that starts with '-' for an option unless it
        matches the parser's negative-number pattern, which covers -1 and
        -0.5 but not -1e5, -inf or -nan; no option here looks like a number.
        Subparsers are built by the same class.
        """

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

        def error(self, message):
            raise ValueError(message)

    parser = _Parser(
        prog="claguerre",
        description="Conformable Laguerre polynomials and their transform calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (keywords, positional, options) in _COMMANDS.items():
        p = sub.add_parser(command, **keywords)
        if positional is not None:
            name, help_text = positional
            p.add_argument(name, nargs="+", help=help_text)
        for name, convert, default, required, help_text in options:
            p.add_argument(f"--{name}", type=convert, default=default, required=required,
                           help=help_text)
        p.set_defaults(handler=globals()[f"_cmd_{command}"])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_exact(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        for name, cap in _SIZE_LIMITS:
            if hasattr(args, name):
                _check_size(name, getattr(args, name), cap)
        return args.handler(args)
    except ValueError as exc:  # a rejected input, from argparse or the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # the reader went away; ``run`` ends the process quietly
    except Exception as exc:  # a bug: one line and its own exit code
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def run() -> None:
    try:
        code = main()
        # Flush here, so that a closed pipe raises inside this guard rather
        # than at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # the shutdown is quiet (Python docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = _EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
