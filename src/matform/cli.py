"""Command-line surface for the form catalog, identity verifiers, and
integer-solution sequence generators.

Exit codes: 0 success, 1 verification failure, 2 usage error.  With
--format json, stdout is a single JSON document; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional, Sequence, Tuple

from . import catalog, compose, dioph
from .compose import ZeroResidual
from .linstruct import NotClosed
from .polyring import PolyError


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
    """argparse type: an integer >= 0."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


class UsageError(Exception):
    pass


def _family(name: str, params: Optional[Tuple[int, ...]]):
    try:
        return catalog.family(name, params)
    except catalog.UnknownFamily as exc:
        raise UsageError(f"unknown family: {exc}")
    except catalog.ParamArity as exc:
        raise UsageError(str(exc))


def _check_length(fam, flag: str, vec: Optional[Tuple[int, ...]]) -> None:
    if vec is not None and len(vec) != fam.h:
        raise UsageError(f"{flag} needs {fam.h} integers for {fam.name}, "
                         f"got {len(vec)}")


def _composition_map(fam, threefold: bool):
    """The family's trilinear or bilinear map; a usage error where the
    family has no such law."""
    try:
        return fam.triple_map() if threefold else fam.pair_map
    except (PolyError, ValueError) as exc:
        raise UsageError(str(exc))  # FormFamily names itself in it


def _emit(obj, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj))
    else:
        print(text)


def _vec_strings(v: Sequence[int]) -> List[str]:
    return [str(c) for c in v]


@contextlib.contextmanager
def _no_int_str_limit():
    """Lift CPython's int/str digit limit (3.10.7 and later) while a
    command writes its output; long sequences pass 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# -- subcommand handlers --------------------------------------------------

def _cmd_list_families(args) -> int:
    entries = catalog.list_families()
    text = "\n".join(
        f"{e['name']}: degree {e['degree']}, {e['coords']} coordinates, "
        f"kind {e['kind']}, params {','.join(e['params'])} — {e['description']}"
        for e in entries)
    _emit(entries, text, args.format)
    return 0


def _cmd_emit_form(args) -> int:
    fam = _family(args.family, args.params)
    form = fam.form
    _emit(form.to_json_obj(), str(form), args.format)
    return 0


def _cmd_verify(args) -> int:
    fam = _family(args.family, args.params)
    cmap = _composition_map(fam, args.threefold or fam.kind == "triple")
    result = fam.verify(cmap)
    if isinstance(result, ZeroResidual):
        _emit({"status": "zero-residual", "method": result.method},
              "ZERO-RESIDUAL", args.format)
        return 0
    _emit({"status": "nonzero-residual", "residual": result.to_json_obj()},
          f"NONZERO-RESIDUAL ({result.term_count()} terms): {result}",
          args.format)
    return 1


def _cmd_closure(args) -> int:
    fam = _family(args.family, args.params)
    if fam.structure is None:
        # no realization at these values (see FormFamily.structure):
        # decide closure for all parameter values instead
        fam = catalog.family(fam.name)
    if fam.structure is None:
        raise UsageError(f"{fam.name} has no matrix structure")
    law = fam.structure.closure({"pair": 2, "triple": 3}[args.order])
    if isinstance(law, NotClosed):
        witness = law.witness
        _emit({"closed": False, "order": args.order,
               "reason": witness.reason,
               "entry": list(witness.entry),
               "residual": (witness.residual.to_json_obj()
                            if witness.residual is not None else None)},
              f"NOT-CLOSED ({args.order}): entry {witness.entry}, "
              f"reason {witness.reason}",
              args.format)
        return 1
    outputs = law.forms(law.coord_sets)
    _emit({"closed": True, "order": args.order,
           "outputs": [p.to_json_obj() for p in outputs]},
          f"CLOSED ({args.order}): "
          + "; ".join(f"z{i + 1} = {p}" for i, p in enumerate(outputs)),
          args.format)
    return 0


def _cmd_solve(args) -> int:
    fam = _family(args.family, args.params)
    if fam.is_symbolic():
        raise UsageError("solve needs numeric --params")
    for flag, vec in (("--seed", args.seed), ("--step", args.step),
                      ("--fixed", args.fixed)):
        _check_length(fam, flag, vec)
    if fam.kind == "triple" or args.fixed is not None:
        if args.fixed is None:
            raise UsageError(f"{fam.name} composes three arguments; "
                             f"supply --fixed")
        _composition_map(fam, threefold=True)
        order = "xyz" if args.order is None else args.order
        if sorted(order) != ["x", "y", "z"]:
            raise UsageError("--order must be a permutation of xyz")
        spec = dioph.SequenceSpec(
            family=fam, seed=args.seed, count=args.count,
            partners=(args.fixed, args.step),
            order=tuple("xyz".index(ch) for ch in order))
    elif args.order is not None:
        raise UsageError("--order applies to three-argument maps only")
    else:
        spec = dioph.SequenceSpec(family=fam, seed=args.seed, count=args.count,
                                  partners=(args.step,))
    try:
        result = dioph.generate_sequence(spec)
    except (dioph.SeedNotSolution, dioph.StepNotSolution) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)},
              f"{type(exc).__name__}: {exc}", args.format)
        return 1
    if args.format == "json":
        result.write_json(sys.stdout)
    else:
        for i, row in enumerate(result.rows()):
            sys.stdout.write(("\n" if i else "") + ",".join(row))
        sys.stdout.write("\n")
    return 0


def _cmd_search(args) -> int:
    fam = _family(args.family, args.params)
    if fam.is_symbolic():
        raise UsageError("search needs numeric --params")
    try:
        found = dioph.brute_force_search(fam, args.bound)
    except dioph.SearchSpaceTooLarge as exc:
        raise UsageError(f"search space too large: {exc}")
    text = "\n".join(",".join(_vec_strings(v)) for v in found)
    _emit({"family": fam.name, "params": _vec_strings(fam.param_values),
           "bound": args.bound,
           "solutions": [_vec_strings(v) for v in found]},
          text, args.format)
    return 0


def _cmd_invert(args) -> int:
    fam = _family(args.family, args.params)
    if fam.is_symbolic():
        raise UsageError("invert needs numeric --params")
    if fam.kind == "triple":
        raise UsageError("invert applies to two-argument composition only")
    point = args.point
    _check_length(fam, "--point", point)
    try:
        inverse = compose.invert(fam.pair_map, point)
    except (compose.NotAUnit, compose.SingularMap) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)},
              f"{type(exc).__name__}: {exc}", args.format)
        return 1
    check = fam.pair_map.apply((point, inverse)) == compose.identity_element(fam.h)
    _emit({"point": _vec_strings(point), "inverse": _vec_strings(inverse),
           "verified": check},
          ",".join(_vec_strings(inverse)), args.format)
    return 0 if check else 1


def _cmd_block(args) -> int:
    outer = _family(args.outer, None)
    inner = _family(args.inner, None)
    if outer.structure is None or inner.structure is None:
        raise UsageError("both families must carry matrix structures")
    inner_st = inner.structure
    collisions = set(outer.structure.params) & set(inner_st.params)
    if collisions:
        inner_st = inner_st.rename_params(
            {p: f"i_{p}" for p in inner_st.params})
    lifted = outer.structure.block_compose(inner_st)
    positions = lifted.recipe.positions
    obj = lifted.to_json_obj()
    obj["positions"] = [list(pos) for pos in positions]
    text = (f"n={lifted.n} h={lifted.h} params={','.join(lifted.params)} "
            f"positions={positions}")
    _emit(obj, text, args.format)
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
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for interface stability; single-threaded")
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
        args = parser.parse_args(argv)
        with _no_int_str_limit():  # every input number is parsed by now
            return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
