"""The measured process: runs one workload's ops in a closed loop.

    python bench/worker.py --inputs FILE --out FILE
        --t0 MONOTONIC (--seconds S | --passes N) [--trace] [--setup-only]

One client, one op at a time, in passes over every op of the input file;
each execution of an op is one latency sample.  An op is one (document,
command) pair.  Ops call `cli.run` and `cli.render_machine`, each
document in a fresh fork of this process, so every pass meets the same
empty module caches; commands on one document share them.  Each output is
checked between ops, outside the timed interval and with tracing paused.

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
process; the set-up time is measured from it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 4  # bench/run.py takes the tail percentile from this


def _argv_for(command: str) -> tuple[str, list[str]]:
    """Split `local --cone 1` / `decolour --keep A,B` into name and options."""
    parts = command.split(" ")
    return parts[0], parts[1:]


class InProcess:
    """Ops as library calls through the CLI's own entry points."""

    def __init__(self):
        from horofan import cli, document
        self.cli, self.document = cli, document

    def run(self, text: str, command: str):
        name, opts = _argv_for(command)
        kwargs = {}
        if name == "local":
            kwargs["cone_index"] = int(opts[1])
        elif name == "decolour":
            kwargs["keep"] = [c for c in opts[1].split(",") if c]
        t = time.perf_counter()
        try:
            report = self.cli.run(self.document.parse(text), name, **kwargs)
            out = self.cli.render_machine(report)
        except Exception as exc:  # an op that raises counts as failed
            return time.perf_counter() - t, None, f"raised {exc!r}"
        return time.perf_counter() - t, out, None


def run_document(runner, doc: dict, keys: list[str], expected: dict,
                 parse, tracer=None, first_op: int = 0) -> list[dict]:
    """Run one document's commands in order and check each output."""
    import checks
    text = doc["text"]
    ctx = {"torus_factor": doc["props"]["torus_factor"]}
    recs = []
    for i, command in enumerate(doc["commands"]):
        if tracer is not None:
            tracer.op = first_op + i
            tracer.active = True
        elapsed, out, error = runner.run(text, command)
        if tracer is not None:
            tracer.active = False
        name = command.split(" ")[0]
        rec = {"key": keys[i], "command": name, "latency_s": elapsed,
               "props": doc["props"]}
        if "golden" in doc:
            rec["golden"] = f"{doc['golden'][:-len('.json')]}.{name}"
        if error is None:
            rec["sha256"] = hashlib.sha256(out.encode()).hexdigest()
            try:
                report = json.loads(out)
            except ValueError as exc:
                report, error = None, f"output is not JSON: {exc}"
        if error is None:
            ctx["expected"] = expected.get(doc.get("expect"), {}).get(name)
            if "expect" in doc and ctx["expected"] is None:
                error = f"no expected invariants for {doc['expect']}"
            else:
                error = "; ".join(checks.check(name, report, ctx, parse)) or None
            if name == "classify":
                ctx["classify"] = report
            if name == "split":
                text = json.dumps(report["document"], sort_keys=True)
        rec["error"] = error
        recs.append(rec)
    return recs


def run_forked(job) -> tuple[dict, int]:
    """Run `job()` in a fork of this process; returns its JSON-able result
    and the fork's peak RSS in KiB.  Every fork starts from this process's
    state, with empty module caches, whatever the caches are."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the fork: run, send, and leave without cleanup handlers
        code = 0
        try:
            os.close(r)
            payload = json.dumps(job()).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(payload)
        except BaseException:  # report any failure through the exit code
            code = 1
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        raise RuntimeError(f"document fork failed with status {status}")
    return json.loads(payload), usage.ru_maxrss


def pooled(passes: list[list[dict]]) -> list[dict]:
    """Each op's record with its latency in every pass (`samples_s`); an op
    fails if it failed once or its output bytes differ between passes."""
    out = [dict(rec) for rec in passes[0]]
    for i, rec in enumerate(out):
        del rec["latency_s"]
        rec["samples_s"] = [p[i]["latency_s"] for p in passes]
    for again in passes[1:]:
        for rec, other in zip(out, again):
            rec["error"] = rec["error"] or other["error"]
            if rec["error"] is None and rec["sha256"] != other["sha256"]:
                rec["error"] = "output bytes differ between passes"
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs")
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args()
    outdir = os.path.dirname(os.path.abspath(a.out))

    # set-up: what a user pays before the first op can run
    runner = InProcess()
    setup_s = time.monotonic() - a.t0
    if a.setup_only:
        with open(a.out, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return

    sys.path.insert(0, HERE)
    from horofan.document import parse

    tracer = None
    if a.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    with open(a.inputs, encoding="utf-8") as fh:
        blocks = json.load(fh)
    with open(os.path.join(HERE, "data", "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)

    def one_pass() -> list[dict]:
        """Every op once, each document in a fresh fork."""
        nonlocal peak_rss_kib
        recs = []
        for b, block in enumerate(blocks):
            for d, doc in enumerate(block):
                keys = [f"b{b}.d{d}.{c.split(' ')[0]}" for c in doc["commands"]]

                def job():
                    if tracer is not None:
                        tracer.reset()
                    out = run_document(runner, doc, keys, expected, parse,
                                       tracer, len(recs))
                    return {"ops": out, "trace": tracer and tracer.export()}
                res, rss = run_forked(job)
                peak_rss_kib = max(peak_rss_kib, rss)
                if tracer is not None:
                    tracer.absorb(res["trace"])
                recs += res["ops"]
        return recs

    # passes until the next would end after --seconds of wall time, at
    # least MIN_PASSES, so that each op has samples spread over the run
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes, start = [], time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(one_pass())
        now = time.monotonic()
        if a.passes is not None:
            if len(passes) == a.passes:
                break
        elif len(passes) >= MIN_PASSES and now + (now - t) - start > a.seconds:
            break
    ops = pooled(passes)

    result = {"setup_s": setup_s, "ops": ops, "passes": len(passes),
              "pass_ops_per_s": [len(p) / sum(r["latency_s"] for r in p)
                                 for p in passes],
              "peak_rss_kib": peak_rss_kib}
    if tracer is not None:
        result["trace"] = tracer.summary([op["command"] for op in ops])
        tracer.write_spans(os.path.join(outdir, "spans.bin"))
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
