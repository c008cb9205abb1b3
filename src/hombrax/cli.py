"""Command-line front end: construct gallery objects, verify identities,
run the classification oracles, and move operators around as JSON.

Each (command, target) pair declares, in one table, the options its handler
reads.  Reports are line-oriented with machine-parsable PASS/FAIL prefixes.
Exit codes: 0 all PASS, 1 a verification or classification failed, 2 bad
arguments (an option the target does not declare too), malformed or
oversized input, or a scan the engine refuses (``classify --field`` not an
odd prime, or more than 2^26 candidates).
HOMBRAX_THREADS caps the thread count of the exhaustive finite-field scans.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from hombrax import braid, homlie, hybe, quantum, tensor, yd
from hombrax.scalars import parse_scalar
from hombrax.tensor import BasedSpace, LinearMap, TensorOp

# The most columns, dim^(2n), of a tensor-power braiding: n = 6 over a 2-dim
# pair takes about 3 s, n = 7 (2^14 columns) about 30 s on 2 vCPUs.
_MAX_POWER_COLUMNS = 1 << 12


def _read_input(args) -> dict:
    if args.infile:
        with open(args.infile) as fh:
            data = tensor._json_loads(fh.read())
    else:
        data = tensor._json_loads(sys.stdin.read())
    if not isinstance(data, dict):
        raise ValueError(f"input JSON must be an object, not {type(data).__name__}")
    return data


def _write_output(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_alpha_text(text: str, space: BasedSpace) -> TensorOp:
    rows = [[parse_scalar(e) for e in row.split(",")] for row in text.split(";")]
    return LinearMap(space, rows)


def _load_operator_and_alpha(args, need_alpha: bool) -> tuple[TensorOp, TensorOp | None]:
    data = _read_input(args)
    opdata = data.get("operator", data)
    op = tensor.op_from_json_dict(opdata)
    alpha = None
    if need_alpha and args.alpha:  # verify ybe declares no --alpha
        alpha = _parse_alpha_text(args.alpha, op.space)
    elif "alpha" in data:
        n = op.space.dim
        alpha = LinearMap(op.space, tensor._json_dense(data["alpha"], (n, n), "alpha"))
    if need_alpha and alpha is None:
        raise ValueError("this check needs a twisting map: pass --alpha or "
                         "an \"alpha\" field in the input JSON")
    return op, alpha


def _report(lines: list[str], args) -> int:
    _write_output(args, "\n".join(lines))
    return 0 if all(line.startswith("PASS") for line in lines) else 1


def _fail_line(name: str, res: TensorOp) -> str:
    where = res.first_nonzero_column()
    col, entries = where
    shown = ", ".join(f"{r}: {s}" for r, s in entries)
    return f"FAIL {name} column {col} -> {shown}"


def _pass_or_fail(name: str, res: TensorOp) -> str:
    return f"PASS {name}" if res.is_zero() else _fail_line(name, res)


def _yd_line(module: yd.YDModule) -> str:
    try:
        residuals = yd.yd_condition_residual(module)
    except yd.AxiomViolation as exc:
        return f"FAIL yd ({exc})"
    bad = [pair for pair, mat in residuals
           if any(not s.is_zero() for row in mat for s in row)]
    return f"FAIL yd at (x, v) = {bad[0]}" if bad else "PASS yd"


def _yd_module_from_args(args) -> yd.YDModule:
    if args.gallery is None:
        return yd.module_from_json_dict(_read_input(args))
    module = yd.z2_sign_module()
    if args.gallery == "z2":
        return module
    return yd.comodule_from_qt(module.labels, module.action, yd.trivial_qt(module.host))


def _tensor_power_doc(B: TensorOp, alpha: TensorOp, n: int) -> dict:
    tensor._check_size(B.space.dim, 2 * n, _MAX_POWER_COLUMNS)
    bn, an = braid.tensor_power_solution(B, alpha, n)
    return {"operator": tensor.op_to_json_dict(bn),
            "alpha": [[str(e) for e in row] for row in an.dense()]}


# -- construct ---------------------------------------------------------------

_GALLERY_POINT = {"q": 2, "l": 1}


def _gallery_phi_alpha() -> tuple[TensorOp, TensorOp]:
    """Invertible rational instance used by tensor-power constructions."""
    alpha = LinearMap.diagonal(quantum.PHI_SPACE, [1, 3])
    B = hybe.twist(quantum.phi(), alpha).instantiate(_GALLERY_POINT)
    return B, alpha


_HOMLIE = {"heisenberg": (homlie.heisenberg, homlie.HEISENBERG_FAMILIES),
           "sl2star": (homlie.sl2_star, homlie.SL2_STAR_FAMILIES),
           "sl2": (homlie.sl2, homlie.SL2_FAMILIES)}


def _construct_homlie(args) -> dict:
    algebra, families = _HOMLIE[args.algebra]
    if None in families and args.kind is not None:
        raise ValueError(f"{args.algebra} has one morphism family: --kind does not apply")
    kind = None if None in families else 1 if args.kind is None else args.kind
    names = families[kind].params if kind in families else ()
    params = [parse_scalar(p) for p in args.params.split(",")] if args.params else []
    if names and len(params) != len(names):
        raise ValueError(f"{args.algebra}{'' if kind is None else f' kind {kind}'} "
                         f"needs --params {','.join(names)}")
    # Values given to a kind without parameters, or to a kind the algebra
    # lacks, take the names of its other kinds: homlie.morphism refuses them.
    names = names or max((f.params for f in families.values()), key=len)
    alpha = homlie.morphism(families, kind, **dict(zip(names, params)))
    return homlie.algebra_to_json_dict(homlie.yau_twist(algebra(), alpha))


def cmd_construct(args) -> int:
    if args.target == "phi":
        doc = tensor.op_to_json_dict(quantum.phi())
    elif args.target == "bql":
        tensor._check_size(args.dim, 2)
        doc = tensor.op_to_json_dict(quantum.bql(args.dim))
    elif args.target == "homlie":
        doc = _construct_homlie(args)
    elif args.target == "yd-braiding":
        doc = tensor.op_to_json_dict(yd.yd_braiding(_yd_module_from_args(args)))
    else:  # tensor-power
        doc = _tensor_power_doc(*_gallery_phi_alpha(), args.n)
    _write_output(args, json.dumps(doc, sort_keys=True))
    return 0


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    lines = []
    if args.target == "ybe":
        op, _ = _load_operator_and_alpha(args, need_alpha=False)
        tensor._check_size(op.space.dim, 3)
        lines.append(_pass_or_fail("ybe", hybe.ybe_residual(op)))
    elif args.target == "compat":
        op, alpha = _load_operator_and_alpha(args, need_alpha=True)
        lines.append(_pass_or_fail("compat", hybe.compatibility_residual(op, alpha)))
    elif args.target == "hybe":
        op, alpha = _load_operator_and_alpha(args, need_alpha=True)
        tensor._check_size(op.space.dim, 3)
        compat = hybe.compatibility_residual(op, alpha)
        lines.append(_pass_or_fail("compat", compat))
        if compat.is_zero():
            # Each residual of the pair is built once (hybe_residual and twist
            # would check again); the twist commutes with alpha (x) alpha too.
            direct = hybe._twisted_braid(op, alpha)
            if direct.is_zero():
                lines.append("PASS hybe")
            elif hybe.ybe_residual(op).is_zero():
                # A plain Yang-Baxter solution: verify the induced twist.
                induced = hybe._twisted_braid(tensor.compose(tensor.lift(alpha, 2), op), alpha)
                if induced.is_zero():
                    lines.append("PASS hybe (induced twist)")
                else:
                    lines.append(_fail_line("hybe", induced))
            else:
                lines.append(_fail_line("hybe", direct))
        else:
            lines.append("FAIL hybe (pair is incompatible)")
    elif args.target == "braid":
        if args.n < 3:
            raise ValueError(f"--n {args.n}: braid relations need at least 3 strands")
        op, alpha = _load_operator_and_alpha(args, need_alpha=True)
        tensor._check_size(op.space.dim, args.n)
        residuals = hybe.braid_relation_residuals(op, alpha, args.n)
        bad = [(k, r) for k, r in enumerate(residuals) if not r.is_zero()]
        if bad:
            k, r = bad[0]
            lines.append(_fail_line(f"braid[{k}]", r))
        else:
            lines.append(f"PASS braid (n={args.n}, {len(residuals)} relations)")
    elif args.target == "hom-jacobi":
        res = homlie.hom_jacobi_residual(homlie.algebra_from_json_dict(_read_input(args)))
        hit = res.first_nonzero_column()
        if hit:
            j = hit[0]
            lines.append(f"FAIL hom-jacobi triple {tensor.decode_word(res.dom, j)} -> "
                         + ", ".join(str(row[j]) for row in res.dense()))
        else:
            lines.append("PASS hom-jacobi")
    else:  # yd
        lines.append(_yd_line(yd.module_from_json_dict(_read_input(args))))
    return _report(lines, args)


# -- classify ----------------------------------------------------------------

def cmd_classify(args) -> int:
    if args.target == "compatible":
        quantum.pattern_count(args.dim)
        field_lines = []
        if args.field is not None:
            # Scan before listing the patterns: a --field the scan engine
            # refuses fails at once.
            brute = quantum.brute_force_compatible_field(args.dim, args.field)
            from_patterns = quantum.pattern_accept_set_field(args.dim, args.field)
            field_lines = [f"brute-force accept set over F_{args.field}: {len(brute)}",
                           f"pattern accept set over F_{args.field}: {len(from_patterns)}",
                           "PASS field-agreement" if brute == from_patterns
                           else "FAIL field-agreement"]
        patterns = quantum.enumerate_patterns(args.dim)
        shapes = quantum.group_patterns_by_shape(args.dim)
        lines = [f"{len(patterns)} patterns, {len(shapes)} maximal shapes "
                 f"for dimension {args.dim}"]
        lines += [f"  shape {json.dumps(shape.to_json_dict(), sort_keys=True)}"
                  f": {len(members)} patterns" for shape, members in shapes.items()]
        _write_output(args, "\n".join(lines + field_lines))
        return 1 if "FAIL field-agreement" in field_lines else 0
    runner = {"sl2": homlie.classify_sl2_finite_field,
              "heisenberg": homlie.classify_heisenberg_finite_field,
              "sl2star": homlie.classify_sl2_star_finite_field}[args.target]
    report = runner(args.field)
    lines = report.lines()
    lines.append("PASS coverage" if report.complete else "FAIL coverage")
    _write_output(args, "\n".join(lines))
    return 0 if report.complete else 1


# -- braid -------------------------------------------------------------------

def cmd_braid(args) -> int:
    op, alpha = _load_operator_and_alpha(args, need_alpha=True)
    if args.target == "power":
        doc = _tensor_power_doc(op, alpha, args.n)
    else:
        images = tuple(int(x) for x in args.perm.split(","))
        tensor._check_size(op.space.dim, len(images))
        gamma = braid.Permutation(images)
        doc = tensor.op_to_json_dict(braid.theta_operator(gamma, op, alpha))
    _write_output(args, json.dumps(doc, sort_keys=True))
    return 0


# -- yd ----------------------------------------------------------------------

def cmd_yd(args) -> int:
    module = _yd_module_from_args(args)
    if args.target == "verify":
        return _report([_yd_line(module)], args)
    doc = tensor.op_to_json_dict(yd.yd_braiding(module))
    _write_output(args, json.dumps(doc, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------

# argparse keywords of each option, defaults aside.
_OPTIONS = {
    "--dim": {"type": int},
    "--algebra": {"choices": list(_HOMLIE), "required": True},
    "--kind": {"type": int, "help": "family kind of an algebra that has kinds (default 1)"},
    "--params": {},
    "--gallery": {"choices": ["z2", "trivial"]},
    "--n": {"type": int},
    "--perm": {"help": "permutation images like '3,4,1,2'", "required": True},
    "--in": {"dest": "infile"},
    "--alpha": {"help": "matrix rows like 'a,0;0,d'"},
    "--field": {"type": int},
}

_OPERATOR = {"--in": None, "--alpha": None}
_MODULE = {"--gallery": None, "--in": None}

# Each command: its help and, per target, the options its handler reads with
# their defaults.  Every target also takes --out; argparse refuses the rest.
_COMMANDS = {
    "construct": ("emit a gallery object as JSON", {
        "phi": {}, "bql": {"--dim": 2},
        "homlie": {"--algebra": None, "--kind": None, "--params": ""},
        "yd-braiding": {"--gallery": "z2"}, "tensor-power": {"--n": 2}}),
    "verify": ("check an identity on JSON input", {
        "compat": _OPERATOR, "ybe": {"--in": None}, "hybe": _OPERATOR,
        "braid": {**_OPERATOR, "--n": 3}, "hom-jacobi": {"--in": None},
        "yd": {"--in": None}}),
    "classify": ("run a classification oracle", {
        "compatible": {"--dim": 2, "--field": None}, "sl2": {"--field": 5},
        "heisenberg": {"--field": 5}, "sl2star": {"--field": 5}}),
    "braid": ("braid operators from permutations", {
        "power": {"--n": 2, **_OPERATOR}, "eval": {"--perm": None, **_OPERATOR}}),
    "yd": ("Yetter-Drinfel'd verification and braiding",
           {"verify": _MODULE, "braiding": _MODULE}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call: a
    build makes a help formatter per argument, a few ms in all."""
    parser = argparse.ArgumentParser(
        prog="hombrax",
        description="Exact constructions and verification of twisted "
                    "Yang-Baxter braidings.",
        epilog="HOMBRAX_THREADS caps the threads used by the exhaustive scans.")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, targets) in _COMMANDS.items():
        targets_parser = commands.add_parser(command, help=help_text).add_subparsers(
            dest="target", required=True)
        for target, options in targets.items():
            p = targets_parser.add_parser(target)
            # A YD module from the gallery or from --in, not both.
            source = p.add_mutually_exclusive_group() if options.keys() >= _MODULE.keys() else p
            for flag, default in options.items():
                (source if flag in _MODULE else p).add_argument(flag, default=default,
                                                                **_OPTIONS[flag])
            p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # By name on each call, so that a wrapper bound in a handler's place
        # (the benchmark's spans) is called, though the parser is built once.
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
