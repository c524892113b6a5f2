"""Output checks that hold for every seed.

`check(command, report, ctx, parse)` returns a list of problems with one
op's machine report; an empty list means the output passed.  `ctx` carries
what the benchmark knows about the input: whether it has a torus factor,
the invariants of its base fan, and the `classify` report of the same
document.
"""

from __future__ import annotations

import json


def _verdict_problems(v: dict) -> list[str]:
    out = []
    if v["smooth"] and not v["factorial"]:
        out.append("smooth but not factorial")
    if v["factorial"] and not v["q_factorial"]:
        out.append("factorial but not Q-factorial")
    if v["smooth"] and not v["quotient_singularities"]:
        out.append("smooth but without quotient singularities")
    if v["quotient_singularities"] and not v["q_factorial"]:
        out.append("quotient singularities but not Q-factorial")
    return out


def _cone_problems(cones: list[dict], verdict: dict) -> list[str]:
    out = []
    if any(c["regular"] and not c["simplicial"] for c in cones):
        out.append("a regular cone that is not simplicial")
    if verdict["toroidal"] != all(c["toroidal"] for c in cones):
        out.append("global toroidal flag disagrees with the cones")
    if verdict["q_factorial"] != all(c["simplicial"] for c in cones):
        out.append("Q-factorial flag disagrees with the cones")
    return out


def _reparse_problems(report: dict, parse) -> list[str]:
    try:
        parse(json.dumps(report["document"]))
    except Exception as exc:  # any failure to re-read the emitted document
        return [f"emitted document does not re-parse: {exc!r}"]
    return []


def check(command: str, report: dict, ctx: dict, parse) -> list[str]:
    """Problems with one machine report; `parse` is `horofan.document.parse`."""
    if "error" in report:
        return [f"error report: {report['error']}"]
    if report.get("command") != command:
        return [f"report of command {report.get('command')!r}"]
    problems = []
    if "verdict" in report:
        problems += _verdict_problems(report["verdict"])
        problems += _cone_problems(report["cones"], report["verdict"])

    if command == "cox":
        if not report["cox_fan"]["regular"]:
            problems.append("lifted fan is not regular")
        if report["k_hat_rank"] != report["class_group"]["free_rank"]:
            problems.append("k_hat_rank differs from the class group's free rank")
        if report["n_hat_rank"] != len(report["basis_index"]):
            problems.append("lifted rank differs from the basis size")
        if report["k_hat_rank"] != report["n_hat_rank"] - len(report["mu"]):
            problems.append("k_hat_rank is not n_hat_rank - lattice rank")
        vivid = all(c["vivid"] for c in report["cones"])
        if report["cox_fan"]["smooth"] != vivid:
            problems.append("lifted fan smooth but fan not vivid, or back")
    elif command == "split":
        problems += _reparse_problems(report, parse)
        if ctx.get("torus_factor") and report["quotient_rank"] != 1:
            problems.append(f"split off rank {report['quotient_rank']}, not 1")
    elif command == "decolour":
        problems += _reparse_problems(report, parse)
        if any(c["colours"] for c in report["document"]["cones"]):
            problems.append("decolour --keep '' left a colour")
        if not report["verdict"]["toroidal"]:
            problems.append("decoloured fan is not toroidal")
        before = ctx.get("classify")
        if before is not None:
            if len(before["cones"]) != len(report["cones"]):
                problems.append("decolour changed the number of cones")
            for flag in ("q_factorial", "factorial", "smooth",
                         "quotient_singularities"):
                if before["verdict"][flag] and not report["verdict"][flag]:
                    problems.append(f"decolour lost {flag}")

    expected = ctx.get("expected")
    if expected is not None and invariants(report) != expected:
        problems.append(f"invariants {invariants(report)} differ from the "
                        f"base fan's {expected}")
    return problems


def invariants(report: dict) -> dict:
    """The parts of a report that a change of coordinates and a reordering
    of cones and rays keep."""
    if report["command"] == "split":
        return {"quotient_rank": report["quotient_rank"]}
    facts = {"verdict": report["verdict"], "cones": len(report["cones"])}
    if report["command"] == "cox":
        facts.update(n_hat_rank=report["n_hat_rank"],
                     k_hat_rank=report["k_hat_rank"],
                     class_group=report["class_group"],
                     cox_cones=len(report["cox_fan"]["cones"]))
    return facts
