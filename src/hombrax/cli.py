"""Command-line front end: construct gallery objects, verify identities,
run the classification oracles, and move operators around as JSON.

Reports are line-oriented with machine-parsable PASS/FAIL prefixes.
Exit codes: 0 all PASS, 1 a verification or classification failed, 2 bad
arguments, malformed or oversized input, or a scan the engine refuses
(``classify --field`` not an odd prime, or more than 2^26 candidates).
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
    if getattr(args, "infile", None):
        with open(args.infile) as fh:
            data = tensor._json_loads(fh.read())
    else:
        data = tensor._json_loads(sys.stdin.read())
    if not isinstance(data, dict):
        raise ValueError(f"input JSON must be an object, not {type(data).__name__}")
    return data


def _write_output(args, text: str) -> None:
    if getattr(args, "out", None):
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
    if getattr(args, "alpha", None):
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
    if not getattr(args, "gallery", None):
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


def _construct_homlie(args) -> dict:
    params = [parse_scalar(p) for p in args.params.split(",")] if args.params else []
    if args.algebra == "heisenberg":
        if len(params) != 6:
            raise ValueError("heisenberg needs --params a12,a13,a22,a23,a32,a33")
        alpha = homlie.heisenberg_morphism(*params)
        g = homlie.heisenberg()
    elif args.algebra == "sl2star":
        if args.kind == 1:
            names = ("a21", "a31", "a22", "a23", "a32", "a33")
        elif args.kind == 2:
            names = ("a11", "a21", "a31")
        else:
            raise ValueError("sl2star kinds are 1 and 2")
        if len(params) != len(names):
            raise ValueError(f"sl2star kind {args.kind} needs --params "
                             + ",".join(names))
        alpha = homlie.sl2_star_morphism(args.kind, **dict(zip(names, params)))
        g = homlie.sl2_star()
    elif args.algebra == "sl2":
        if args.kind == 0:
            alpha = homlie.sl2_morphism(0)
        else:
            if len(params) != 3:
                raise ValueError("sl2 needs --params a,b,c")
            alpha = homlie.sl2_morphism(args.kind, *params)
        g = homlie.sl2()
    else:
        raise ValueError(f"unknown algebra {args.algebra}")
    return homlie.algebra_to_json_dict(homlie.yau_twist(g, alpha))


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
    elif args.target == "tensor-power":
        doc = _tensor_power_doc(*_gallery_phi_alpha(), args.n)
    else:
        raise ValueError(f"unknown construct target {args.target}")
    _write_output(args, json.dumps(doc, sort_keys=True))
    return 0


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    lines = []
    if args.identity == "ybe":
        op, _ = _load_operator_and_alpha(args, need_alpha=False)
        tensor._check_size(op.space.dim, 3)
        lines.append(_pass_or_fail("ybe", hybe.ybe_residual(op)))
    elif args.identity == "compat":
        op, alpha = _load_operator_and_alpha(args, need_alpha=True)
        lines.append(_pass_or_fail("compat", hybe.compatibility_residual(op, alpha)))
    elif args.identity == "hybe":
        op, alpha = _load_operator_and_alpha(args, need_alpha=True)
        tensor._check_size(op.space.dim, 3)
        compat = hybe.compatibility_residual(op, alpha)
        lines.append(_pass_or_fail("compat", compat))
        if compat.is_zero():
            direct = hybe.hybe_residual(op, alpha)
            if direct.is_zero():
                lines.append("PASS hybe")
            elif hybe.ybe_residual(op).is_zero():
                # A plain Yang-Baxter solution: verify the induced twist.
                induced = hybe.hybe_residual(hybe.twist(op, alpha), alpha)
                if induced.is_zero():
                    lines.append("PASS hybe (induced twist)")
                else:
                    lines.append(_fail_line("hybe", induced))
            else:
                lines.append(_fail_line("hybe", direct))
        else:
            lines.append("FAIL hybe (pair is incompatible)")
    elif args.identity == "braid":
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
    elif args.identity == "hom-jacobi":
        res = homlie.hom_jacobi_residual(homlie.algebra_from_json_dict(_read_input(args)))
        hit = res.first_nonzero_column()
        if hit:
            j = hit[0]
            lines.append(f"FAIL hom-jacobi triple {tensor.decode_word(res.dom, j)} -> "
                         + ", ".join(str(row[j]) for row in res.dense()))
        else:
            lines.append("PASS hom-jacobi")
    elif args.identity == "yd":
        lines.append(_yd_line(_yd_module_from_args(args)))
    else:
        raise ValueError(f"unknown identity {args.identity}")
    return _report(lines, args)


# -- classify ----------------------------------------------------------------

def cmd_classify(args) -> int:
    if args.target == "compatible":
        quantum.pattern_count(args.dim)
        field_lines = []
        if args.field:
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
    if args.action == "power":
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
    if args.action == "verify":
        return _report([_yd_line(module)], args)
    doc = tensor.op_to_json_dict(yd.yd_braiding(module))
    _write_output(args, json.dumps(doc, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call: a
    build makes a help formatter per argument, about 1 ms in all."""
    parser = argparse.ArgumentParser(
        prog="hombrax",
        description="Exact constructions and verification of twisted "
                    "Yang-Baxter braidings.",
        epilog="HOMBRAX_THREADS caps the threads used by the exhaustive scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a gallery object as JSON")
    p.add_argument("target",
                   choices=["phi", "bql", "homlie", "yd-braiding", "tensor-power"])
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--algebra", choices=["heisenberg", "sl2star", "sl2"])
    p.add_argument("--kind", type=int, default=1)
    p.add_argument("--params", default="")
    p.add_argument("--gallery", choices=["z2", "trivial"], default="z2")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="check an identity on JSON input")
    p.add_argument("identity",
                   choices=["compat", "ybe", "hybe", "braid", "hom-jacobi", "yd"])
    p.add_argument("--in", dest="infile")
    p.add_argument("--alpha", help="matrix rows like 'a,0;0,d'")
    p.add_argument("--n", type=int, default=3, help="strand count for braid")
    p.add_argument("--out")

    p = sub.add_parser("classify", help="run a classification oracle")
    p.add_argument("target", choices=["compatible", "sl2", "heisenberg", "sl2star"])
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--field", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("braid", help="braid operators from permutations")
    p.add_argument("action", choices=["power", "eval"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--perm", default="", help="permutation images like '3,4,1,2'")
    p.add_argument("--in", dest="infile")
    p.add_argument("--alpha")
    p.add_argument("--out")

    p = sub.add_parser("yd", help="Yetter-Drinfel'd verification and braiding")
    p.add_argument("action", choices=["verify", "braiding"])
    p.add_argument("--gallery", choices=["z2", "trivial"], default=None)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "classify" and args.target != "compatible" and args.field is None:
        args.field = 5
    try:
        # By name on each call, so that a wrapper bound in a handler's place
        # (the benchmark's spans) is called, though the parser is built once.
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError, IndexError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
