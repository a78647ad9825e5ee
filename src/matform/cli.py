"""Command-line surface for the form catalog, identity verifiers, and
integer-solution sequence generators.

Exit codes: 0 success, 1 verification failure or a reader that closed
stdout, 2 usage error.  With --format json, stdout is a single JSON
document; diagnostics go to stderr.

`main` is the in-process API: it returns the exit code and leaves the
interpreter running.  `run` is the process entry point, of `python -m
matform.cli` and of the `matform` console script: it flushes stdout and
stderr once `main` returns and ends the process with `os._exit`, so the
interpreter's teardown (the last garbage collection, the clearing of
every module, the freeing of every object) is skipped, and with it every
`atexit` hook, coverage of subprocesses among them (README, "Start-up
and exit").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Iterator, List, NoReturn, Optional, Sequence, Tuple

from . import catalog, compose
from .compose import ZeroResidual
from .linstruct import NotClosed, multilinear_forms
from .polyring import PolyError, no_int_str_limit, write_chunks


def _int_vector(text: str) -> Tuple[int, ...]:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers: {exc}")


def _params(text: str) -> Optional[Tuple[int, ...]]:
    """argparse type: comma-separated integers, or None for 'symbolic'."""
    return None if text == "symbolic" else _int_vector(text)


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, written in digits alone."""
    try:
        if text.isdigit():
            return int(text)
    except ValueError:  # digits int() does not read, such as "2²"
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


class UsageError(Exception):
    pass


def _family(name: str, params: Optional[Tuple[int, ...]],
            numeric_for: Optional[str] = None):
    """The family `name` at `params`; the command named by `numeric_for`
    takes numeric ones only."""
    try:
        fam = catalog.family(name, params)
    except catalog.UnknownFamily as exc:
        raise UsageError(f"unknown family: {exc}")
    except catalog.ParamArity as exc:
        raise UsageError(str(exc))
    if numeric_for is not None and fam.is_symbolic():
        raise UsageError(f"{numeric_for} needs numeric --params")
    return fam


def _check_length(fam, flag: str, vec: Optional[Tuple[int, ...]]) -> None:
    if vec is not None and len(vec) != fam.h:
        raise UsageError(f"{flag} needs {fam.h} integers for {fam.name}, "
                         f"got {len(vec)}")


def _emit(obj, text, fmt: str) -> None:
    """Write obj() as JSON or text(), then a newline, through
    `write_chunks`, the one writer: only the format asked for is built.
    Each gives its document as one str or as an iterable of its pieces,
    written as they come; a dict or list from obj() is one json.dumps
    piece, so text mode never calls json.dumps."""
    out = obj() if fmt == "json" else text()
    if isinstance(out, (dict, list)):
        out = json.dumps(out)
    write_chunks(sys.stdout, chain((out,) if isinstance(out, str) else out,
                                   ("\n",)))


def _json_list(items) -> Iterator[str]:
    """The pieces of the JSON list of `items`, each the pieces of one
    item's JSON text, taken one item at a time."""
    yield "["
    sep = ""
    for pieces in items:
        yield sep
        yield from pieces
        sep = ", "
    yield "]"


def _vec_strings(v: Sequence[int]) -> List[str]:
    return [str(c) for c in v]


# -- subcommand handlers --------------------------------------------------

def _cmd_list_families(args) -> int:
    entries = catalog.list_families()
    _emit(lambda: entries, lambda: "\n".join(
        f"{e['name']}: degree {e['degree']}, {e['coords']} coordinates, "
        f"kind {e['kind']}, params {','.join(e['params'])} — {e['description']}"
        for e in entries), args.format)
    return 0


def _cmd_emit_form(args) -> int:
    form = _family(args.family, args.params).form
    _emit(form.json_pieces, form.text_pieces, args.format)
    return 0


def _cmd_verify(args) -> int:
    fam = _family(args.family, args.params)
    cmap = (fam.triple_map() if args.threefold or fam.kind == "triple"
            else fam.pair_map)
    result = fam.verify(cmap)
    if isinstance(result, ZeroResidual):
        _emit(lambda: {"status": "zero-residual", "method": result.method},
              lambda: "ZERO-RESIDUAL", args.format)
        return 0
    _emit(lambda: chain(('{"status": "nonzero-residual", "residual": ',),
                        result.json_pieces(), ("}",)),
          lambda: chain((f"NONZERO-RESIDUAL ({result.term_count()} terms): ",),
                        result.text_pieces()),
          args.format)
    return 1


def _cmd_closure(args) -> int:
    fam = _family(args.family, args.params)
    law = fam.structure.closure({"pair": 2, "triple": 3}[args.order])
    if isinstance(law, NotClosed):
        witness = law.witness
        residual = witness.residual
        _emit(lambda: chain((
                  '{"closed": false, "order": "%s", "reason": "%s", '
                  '"entry": %s, "residual": ' % (
                      args.order, witness.reason, list(witness.entry)),),
                  ("null",) if residual is None else residual.json_pieces(),
                  ("}",)),
              lambda: f"NOT-CLOSED ({args.order}): entry {witness.entry}, "
                      f"reason {witness.reason}",
              args.format)
        return 1
    # one output form at a time, each written as it is formed
    outputs = multilinear_forms(law.coeff, law.params, law.coord_sets)

    def text():
        yield f"CLOSED ({args.order}): "
        for i, p in enumerate(outputs):
            yield f"; z{i + 1} = " if i else "z1 = "
            yield from p.text_pieces()
    _emit(lambda: chain(('{"closed": true, "order": "%s", "outputs": '
                         % args.order,),
                        _json_list(p.json_pieces() for p in outputs), ("}",)),
          text, args.format)
    return 0


def _cmd_solve(args) -> int:
    from . import dioph  # only solve and search load it
    fam = _family(args.family, args.params, "solve")
    for flag, vec in (("--seed", args.seed), ("--step", args.step),
                      ("--fixed", args.fixed)):
        _check_length(fam, flag, vec)
    if fam.kind == "triple" or args.fixed is not None:
        if args.fixed is None:
            raise UsageError(f"{fam.name} composes three arguments; "
                             f"supply --fixed")
        order = "xyz" if args.order is None else args.order
        if sorted(order) != ["x", "y", "z"]:
            raise UsageError("--order must be a permutation of xyz")
        partners = (args.fixed, args.step)
        order = tuple("xyz".index(ch) for ch in order)
    elif args.order is not None:
        raise UsageError("--order applies to three-argument maps only")
    else:
        partners, order = (args.step,), None
    spec = dioph.SequenceSpec(family=fam, seed=args.seed, count=args.count,
                              partners=partners, order=order)
    try:
        result = dioph.generate_sequence(spec)
    except (dioph.SeedNotSolution, dioph.StepNotSolution) as exc:
        _emit(lambda: {"error": type(exc).__name__, "detail": str(exc)},
              lambda: f"{type(exc).__name__}: {exc}", args.format)
        return 1
    if args.format == "json":
        result.write_json(sys.stdout)
    else:
        result.write_text(sys.stdout)
    return 0


def _cmd_search(args) -> int:
    from . import dioph
    fam = _family(args.family, args.params, "search")
    try:
        found = dioph.brute_force_search(fam, args.bound)
    except dioph.SearchSpaceTooLarge as exc:
        raise UsageError(f"search space too large: {exc}")
    _emit(lambda: {"family": fam.name,
                   "params": _vec_strings(fam.param_values),
                   "bound": args.bound,
                   "solutions": [_vec_strings(v) for v in found]},
          lambda: "\n".join(",".join(_vec_strings(v)) for v in found),
          args.format)
    return 0


def _cmd_invert(args) -> int:
    fam = _family(args.family, args.params, "invert")
    if fam.kind == "triple":
        raise UsageError("invert applies to two-argument composition only")
    point = args.point
    _check_length(fam, "--point", point)
    try:
        inverse = compose.invert(fam.pair_map, point)
    except (compose.NotAUnit, compose.SingularMap) as exc:
        _emit(lambda: {"error": type(exc).__name__, "detail": str(exc)},
              lambda: f"{type(exc).__name__}: {exc}", args.format)
        return 1
    check = fam.pair_map.apply((point, inverse)) == compose.identity_element(fam.h)
    _emit(lambda: {"point": _vec_strings(point),
                   "inverse": _vec_strings(inverse), "verified": check},
          lambda: ",".join(_vec_strings(inverse)), args.format)
    return 0 if check else 1


def _cmd_block(args) -> int:
    outer = _family(args.outer, None)
    inner = _family(args.inner, None)
    inner_st = inner.structure
    collisions = set(outer.structure.params) & set(inner_st.params)
    if collisions:
        inner_st = inner_st.rename_params(
            {p: f"i_{p}" for p in inner_st.params})
    lifted = outer.structure.block_compose(inner_st)
    positions = lifted.positions
    _emit(lambda: chain(
              ('{"n": %d, "h": %d, "params": %s, "coeff": '
               % (lifted.n, lifted.h, json.dumps(lifted.params)),),
              _json_list(_json_list(_json_list(c.json_pieces() for c in cell)
                                    for cell in row) for row in lifted.coeff),
              (', "positions": %s}' % json.dumps(positions),)),
          lambda: f"n={lifted.n} h={lifted.h} "
                  f"params={','.join(lifted.params)} positions={positions}",
          args.format)
    return 0


# -- argument parsing ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="matform",
                     description="Exact verification of matrix-composed "
                                 "forms and their f=1 solution sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, default_format, params=None):
        """A subcommand; with `params` it takes --family and --params,
        which is optional (default symbolic) or required ("numeric")."""
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "text"),
                       default=default_format)
        if params is not None:
            p.add_argument("--family", required=True)
            p.add_argument("--params", type=_params, default="symbolic",
                           required=params == "numeric")
        return p

    add("list-families", _cmd_list_families, "json")
    add("emit-form", _cmd_emit_form, "json", "symbolic")

    p = add("verify", _cmd_verify, "text", "symbolic")
    p.add_argument("--threefold", action="store_true")

    p = add("closure", _cmd_closure, "text", "symbolic")
    p.add_argument("--order", choices=("pair", "triple"), required=True)

    p = add("solve", _cmd_solve, "json", "numeric")
    p.add_argument("--seed", type=_int_vector, required=True)
    p.add_argument("--step", type=_int_vector, required=True)
    p.add_argument("--fixed", type=_int_vector)
    p.add_argument("--order",
                   help="slot order for three-argument maps (default xyz): "
                        "x=current, y=fixed, z=step")
    p.add_argument("--count", type=_nonnegative_int, required=True)

    p = add("search", _cmd_search, "json", "numeric")
    p.add_argument("--bound", type=_nonnegative_int, required=True)

    p = add("invert", _cmd_invert, "json", "numeric")
    p.add_argument("--point", type=_int_vector, required=True)

    p = add("block", _cmd_block, "json")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        with no_int_str_limit():  # argv bounds the digits of every input
            args = parser.parse_args(argv)
            code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull
        # at exit instead of raising again (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def run() -> NoReturn:
    """Run `main` on sys.argv and end the process with its exit code,
    skipping the interpreter's teardown: what the process still owes is
    done first.  Both streams are flushed, and a reader that closed stdout
    gives exit 1 with nothing on stderr, as from `main`; a forked `solve`
    range is already reaped and its file closed (`SequenceResult._write`).
    An exception that escapes `main` takes the normal exit instead:
    argparse's SystemExit (--help, a malformed command line) with its
    code, any other with its traceback and exit 1."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
