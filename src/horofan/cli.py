"""Command line front end.

    horofan classify FILE [--format text|machine]
    horofan cox FILE [--format ...]
    horofan local FILE --cone INDEX [--format ...]
    horofan decolour FILE --keep COLOUR[,COLOUR...] [--format ...]
    horofan split FILE [--format ...]

FILE is a fan document (see horofan.document).  `classify` reports per-cone
flags and the global verdict; `cox` additionally reports the lifted basis,
the projection matrix mu, the class group, and the quotient-torus rank;
`local` describes the affine local model of one cone (indices as printed by
classify); `decolour` strips colours down to the kept set and reclassifies;
`split` splits off torus factors and re-emits the fan on the sublattice.

The machine format is canonical JSON (stable bytes for a fixed input).
Exit codes: 0 ok, 2 parse error, 3 validation error, 4 precondition error.
"""

from __future__ import annotations

import argparse
import sys

from . import cox as cox_mod
from . import document as docmod
from . import dynkin as dk
from . import local as localmod
from .classification import ConeClassification, Verdict, classify, is_vivid
from .errors import HorofanError, ParseError, PreconditionError, ValidationError
from .fans import ColouredFan
from .lattice import FGAbelianGroup

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4

# the report names the flags of a cone and the global verdicts by their
# fields, in field order; a verdict's first field holds the per-cone flags
_FLAGS = ConeClassification.__slots__
_VERDICTS = Verdict.__slots__[1:]


def _cone_entry(fan: ColouredFan, index: int, flags: ConeClassification) -> dict:
    return {"index": index, **docmod.cone_entry(fan.cones[index], fan.lattice),
            **{f: getattr(flags, f) for f in _FLAGS}}


def _classified(fan: ColouredFan, diagram: dk.DynkinData) -> dict:
    v = classify(fan, diagram)
    return {
        "verdict": {f: getattr(v, f) for f in _VERDICTS},
        "cones": [_cone_entry(fan, i, f) for i, f in enumerate(v.cones)],
    }


def run(doc: dict, command: str, *, cone_index: int | None = None,
        keep: list[str] | None = None) -> dict:
    """Execute a subcommand on a parsed document; returns the machine report."""
    diagram, lattice_, fan = docmod.build(doc)

    if command == "classify":
        return {"command": "classify", **_classified(fan, diagram)}

    if command == "cox":
        data = cox_mod.cox_construct(fan)
        hat_verdict = classify(data.cox_fan, diagram)
        basis = [{"kind": kind, "colour": val} if kind == "colour"
                 else {"kind": kind, "ray": list(val)}
                 for kind, val in data.basis_index]
        return {
            "command": "cox",
            **_classified(fan, diagram),
            "basis_index": basis,
            "n_hat_rank": data.n_hat_rank,
            "mu": [list(row) for row in data.mu],
            "class_group": {"free_rank": data.class_group.free_rank,
                            "torsion": list(data.class_group.torsion)},
            "k_hat_rank": data.k_hat_rank,
            "cox_fan": {
                "cones": [_cone_entry(data.cox_fan, i, f)
                          for i, f in enumerate(hat_verdict.cones)],
                "regular": hat_verdict.factorial,
                "smooth": hat_verdict.smooth,
            },
        }

    if command == "local":
        if cone_index is None or not 0 <= cone_index < len(fan.cones):
            raise PreconditionError(
                f"cone index must be in 0..{len(fan.cones) - 1}")
        sc = fan.cones[cone_index]
        model = localmod.affine_local(sc, lattice_, diagram)
        levi = model.levi_diagram
        return {
            "command": "local",
            "cone_index": cone_index,
            "cone": docmod.cone_entry(sc, lattice_),
            "levi": {
                "nodes": list(levi.nodes),
                "edges": [[e.a, e.b, e.multiplicity, e.long] for e in levi.edges],
                "parabolic": sorted(levi.parabolic),
                "torus_rank": levi.torus_rank,
            },
            "restricted_colours": list(model.restricted_lattice.colours),
            "vivid": is_vivid(sc, model.restricted_lattice, levi),
        }

    if command == "decolour":
        kept = keep or []
        stripped = localmod.decolour(fan, kept)
        return {
            "command": "decolour",
            "keep": sorted(kept, key=lattice_.colour_order),
            **_classified(stripped, diagram),
            "document": docmod.document_for_fan(doc, stripped),
        }

    if command == "split":
        split = cox_mod.torus_split(fan)
        return {
            "command": "split",
            "n_prime_basis": [list(b) for b in split.n_prime_basis],
            "quotient_rank": split.quotient_rank,
            "document": docmod.document_for_fan(doc, split.restricted_fan),
        }

    raise ValueError(f"unknown command {command!r}")


def _text_flags(entry: dict) -> str:
    marks = [f for f in _FLAGS if entry[f]]
    return ", ".join(marks) if marks else "none"


def _any_int(render):
    """render, with the int-string limit (CPython 3.10.7 on) lifted."""
    def written(report: dict) -> str:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return render(report)
        finally:
            sys.set_int_max_str_digits(limit)
    return written if hasattr(sys, "get_int_max_str_digits") else render


@_any_int
def render_text(report: dict) -> str:
    lines = []
    cmd = report["command"]
    if "verdict" in report:
        v = report["verdict"]
        lines.append("verdict:")
        for key in _VERDICTS:
            lines.append(f"  {key:<24}{'yes' if v[key] else 'no'}")
        lines.append("cones:")
        for e in report["cones"]:
            cols = "{" + ", ".join(e["colours"]) + "}"
            lines.append(f"  [{e['index']}] rays {e['rays']} colours {cols}: "
                         f"{_text_flags(e)}")
    if cmd == "cox":
        lines.append(f"lifted lattice rank: {report['n_hat_rank']}")
        lines.append("basis: " + ", ".join(
            b["colour"] if b["kind"] == "colour" else f"ray{b['ray']}"
            for b in report["basis_index"]))
        lines.append("mu:")
        for row in report["mu"]:
            lines.append(f"  {row}")
        g = report["class_group"]
        group = FGAbelianGroup(g["free_rank"], tuple(g["torsion"]))
        lines.append(f"class group: {group}")
        lines.append(f"quotient torus rank: {report['k_hat_rank']}")
        lines.append(f"lifted fan regular: "
                     f"{'yes' if report['cox_fan']['regular'] else 'no'}, "
                     f"smooth: {'yes' if report['cox_fan']['smooth'] else 'no'}")
    elif cmd == "local":
        lines.append(f"local model of cone {report['cone_index']}:")
        lines.append(f"  cone rays {report['cone']['rays']} "
                     f"colours {report['cone']['colours']}")
        lines.append(f"  levi nodes: {report['levi']['nodes']}")
        lines.append(f"  levi parabolic: {report['levi']['parabolic']}")
        lines.append(f"  restricted colours: {report['restricted_colours']}")
        lines.append(f"  vivid locally: {'yes' if report['vivid'] else 'no'}")
    elif cmd == "split":
        lines.append(f"sublattice basis: {report['n_prime_basis']}")
        lines.append(f"split-off torus rank: {report['quotient_rank']}")
        lines.append("restricted fan document:")
        lines.append(docmod.canonical_json(report["document"]))
    elif cmd == "decolour":
        lines.insert(0, f"kept colours: {report['keep']}")
    return "\n".join(lines) + "\n"


@_any_int
def render_machine(report: dict) -> str:
    return docmod.canonical_json(report) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horofan",
        description="classify coloured fans and run the Cox construction")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="fan document (JSON)")
    common.add_argument("--format", choices=("text", "machine"), default="text")
    sub.add_parser("classify", parents=[common],
                   help="per-cone flags and the global verdict")
    sub.add_parser("cox", parents=[common],
                   help="lifted lattice, mu, class group, lifted fan")
    p_local = sub.add_parser("local", parents=[common],
                             help="affine local model of one cone")
    p_local.add_argument("--cone", type=int, required=True, metavar="INDEX")
    p_dec = sub.add_parser("decolour", parents=[common],
                           help="intersect all colour sets with a kept subset")
    p_dec.add_argument("--keep", default="", metavar="LIST",
                       help="comma-separated colours to keep (empty for none)")
    sub.add_parser("split", parents=[common], help="split off torus factors")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    def fail(exc: HorofanError, exit_code: int) -> int:
        if args.format == "machine":
            payload = {"error": {"code": exc.code, "message": str(exc)}}
            if isinstance(exc, ParseError) and exc.line is not None:
                payload["error"]["line"] = exc.line
                payload["error"]["column"] = exc.column
            print(docmod.canonical_json(payload))
        else:
            where = f" (line {exc.line}, column {exc.column})" \
                if isinstance(exc, ParseError) and exc.line is not None else ""
            print(f"error[{exc.code}]: {exc}{where}", file=sys.stderr)
        return exit_code

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return fail(ParseError(f"cannot read the file: {exc}"), EXIT_PARSE)
    except UnicodeDecodeError as exc:
        return fail(ParseError(f"file is not UTF-8: {exc.reason} at byte "
                               f"{exc.start}"), EXIT_PARSE)

    try:
        doc = docmod.parse(text)
    except HorofanError as exc:
        return fail(exc, EXIT_PARSE)

    keep = [c for c in args.keep.split(",") if c] if args.command == "decolour" \
        else None
    try:
        report = run(doc, args.command,
                     cone_index=getattr(args, "cone", None), keep=keep)
        out = render_machine(report) if args.format == "machine" else render_text(report)
    except PreconditionError as exc:
        return fail(exc, EXIT_PRECONDITION)
    except ValidationError as exc:
        return fail(exc, EXIT_VALIDATION)
    sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
