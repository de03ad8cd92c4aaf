"""Run one qnarayana command in this interpreter with its layer boundaries traced.

    python3 perfbench/traced_cli.py TRACE_JSON ARG...

ARG... is a qnarayana command line; its output and exit code are the
command's own.  The public functions of polyarith, qobjects, sums, verify
and cli are replaced by wrappers in every qnarayana module that refers to
them, because the modules import each other's functions by name.  The
recursive ``_qbinom`` and ``q_shifted_factorial`` are wrapped only where
other modules call them, so their recursion depth stays that of the
untraced program.  Spans stay in memory and are reduced to per-name calls,
inclusive time and self time when the command ends; that summary is
written to TRACE_JSON.
"""

import io
import json
import sys
from array import array
from time import perf_counter

from workloads import digest, without_meta


class Tracer:
    """Spans in flat arrays: name id, parent index, start and end times."""

    def __init__(self):
        self.names = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, name, fn, after=None):
        nid = self.names.setdefault(name, len(self.names))
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def durations(self, name):
        nid = self.names[name]
        return [e - s for n, s, e in zip(self.name_id, self.start, self.end) if n == nid]

    def summary(self):
        """Per span name: [calls, inclusive seconds, self seconds], where self
        time is the duration minus the time covered by direct children
        (children of one span never overlap in a single thread)."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        rows = [[0, 0.0, 0.0] for _ in self.names]
        for i, nid in enumerate(self.name_id):
            row = rows[nid]
            duration = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[i]
        return {name: rows[nid] for name, nid in self.names.items()}


def install(tracer, counters, renders):
    from qnarayana import cli, polyarith, qobjects, sums, verify

    modules = [m for name, m in sys.modules.items()
               if name == "qnarayana" or name.startswith("qnarayana.")]

    def patch(name, owner, attr, skip=(), after=None):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, after)
        for module in modules:
            if module in skip:
                continue
            for var, value in list(vars(module).items()):
                if value is original:
                    setattr(module, var, wrapped)

    def count_mul(args, result):
        counters["mul_coeff_products"] += len(args[0].coeffs) * len(args[1].coeffs)
        if result.coeffs:
            bits = max(map(abs, result.coeffs)).bit_length()
            counters["mul_max_bits"] = max(counters["mul_max_bits"], bits)

    IntPoly = polyarith.IntPoly
    IntPoly.__mul__ = tracer.wrap("polyarith.mul", IntPoly.__mul__, count_mul)
    IntPoly.__add__ = tracer.wrap("polyarith.add", IntPoly.__add__)
    patch("polyarith.div", polyarith, "exact_div")
    patch("polyarith.bezout", polyarith, "gcd_bezout")
    patch("qobjects.qbinom", qobjects, "q_binomial")
    patch("qobjects.narayana", qobjects, "q_narayana")
    patch("qobjects.catalan", qobjects, "q_catalan")
    patch("qobjects.qsf", qobjects, "q_shifted_factorial", skip=(qobjects,))
    patch("sums.thm12", sums, "thm12_sum")
    patch("sums.cyclic", sums, "cyclic_sum")
    patch("sums.cyclic_modulus", sums, "cyclic_modulus")
    patch("sums.gjz", sums, "gjz_sum")
    patch("verify.case", verify, "verify_case")
    patch("verify.check_div", verify, "check_divisibility")
    patch("verify.proof", verify, "replay_proof")
    patch("cli.evaluate", cli, "evaluate_case")
    cli.SweepSpec.expand = tracer.wrap("cli.expand", cli.SweepSpec.expand)

    # Every emitter renders the same value into memory under its own span;
    # the requested rendering is then written, so the output is unchanged.
    def emit_all(emitter, formats):
        spans = {fmt: tracer.wrap(f"cli.emit_{fmt}", emitter) for fmt in formats}

        def emit(value, fmt, stream, **options):
            for each in formats:
                buffer = io.StringIO()
                returned = spans[each](value, each, buffer, **options)
                if each == fmt:
                    code = returned
                renders[each] = buffer.getvalue()
            stream.write(renders[fmt])
            counters["report_bytes"] += len(without_meta(renders[fmt].encode("utf-8")))
            return code

        return emit

    cli.emit_report = emit_all(cli.emit_report, ("text", "jsonl", "csv"))
    cli._emit_poly = emit_all(cli._emit_poly, ("text", "jsonl"))
    cli._emit_proof = emit_all(cli._emit_proof, ("text", "jsonl"))
    return tracer.wrap("cli.main", cli.main)


def main():
    from qnarayana import qobjects

    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    counters = {"mul_coeff_products": 0, "mul_max_bits": 0, "report_bytes": 0}
    renders = {}
    traced_main = install(tracer, counters, renders)
    code = traced_main(argv)
    info = qobjects._qbinom.cache_info()
    record = {
        "spans": tracer.summary(),
        "case_s": tracer.durations("verify.case"),
        "main_s": sum(tracer.durations("cli.main")),
        "counters": counters,
        "qbinom_cache": {"hits": info.hits, "misses": info.misses, "entries": info.currsize},
        "render_sha256": {fmt: digest(fmt, text.encode("utf-8")) for fmt, text in renders.items()},
    }
    with open(trace_path, "w", encoding="utf-8") as out:
        json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
