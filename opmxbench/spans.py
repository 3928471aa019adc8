"""Per-layer spans around opmx's public functions, installed from outside.

`Tracer.install` replaces each traced function in every opmx module that
binds it (`from .domains import forced_coordinates` binds the name again in
calculus, verify and the package itself), and each traced method or property
on its class.  The program's own files are not touched.

Every call of a traced name is a span.  Per name the tracer keeps calls,
total time (outermost calls only, so recursion is not counted twice) and self
time (duration minus the time of nested spans).  Spans of the coarse layers
(cli, calculus entry points, verify checks) are also kept one by one, with
their parent, and written out when the run ends.  The tracer's own cost lands
in the enclosing span.
"""

from __future__ import annotations

import sys
import time

from opmx import calculus, cli, domains, gallery, operators, seqspace, verify

# span name -> [(owner, attribute)]; the owner is a module for functions and
# a class for methods and properties.
SPANS = {
    "seqspace.SparseVector": [(seqspace.SparseVector, "__init__")],
    "domains.RationalWeight": [(domains.RationalWeight, "__init__")],
    "domains.RationalWeight.eval": [(domains.RationalWeight, "eval")],
    "domains.DomainDescriptor": [(domains.DomainDescriptor, "__init__")],
    "domains.member": [(domains, "member")],
    "domains.forced_coordinates": [(domains, "forced_coordinates")],
    "domains.excluded_coordinates": [(domains, "excluded_coordinates")],
    "operators.apply": [(operators, "apply")],
    "operators.domain_of": [(operators, "domain_of")],
    "operators.truncation_matrix": [(operators, "truncation_matrix")],
    "calculus.composite_apply": [(calculus.RowOp, "apply"), (calculus.ColOp, "apply"),
                                 (calculus.OpMatrix, "apply")],
    "calculus.block_domains": [(calculus.RowOp, "block_domains"),
                               (calculus.ColOp, "domain"),
                               (calculus.ColOp, "block_domains"),
                               (calculus.OpMatrix, "column_domains")],
    "calculus.formal_adjoint": [(calculus, "row_adjoint"),
                                (calculus, "col_formal_adjoint"),
                                (calculus, "matrix_formal_adjoint")],
    "calculus.composite_from_json": [(calculus, "composite_from_json")],
    "verify.check_pairing": [(verify, "check_pairing")],
    "verify.run_witness": [(verify, "run_witness")],
    "verify.check_compression_transpose": [(verify, "check_compression_transpose")],
    "verify.check_strict_gap": [(verify, "check_strict_gap")],
    "verify.denseness_obstruction": [(verify, "denseness_obstruction")],
    "gallery.GridDerivativePair": [(gallery.GridDerivativePair, a) for a in
                                   ("d0_matrix", "d1_matrix", "block_apply",
                                    "block_apply_t")],
    "cli.run_suite": [(cli, "run_suite")],
}

COARSE = ("cli.", "calculus.formal_adjoint", "calculus.composite_from_json", "verify.")


def _rational_weight_key(self, num, den=(1,)):
    return tuple(num), tuple(den)


def _args_key(*args, **kwargs):
    return args, tuple(sorted(kwargs.items()))


# Names whose distinct inputs are counted next to their calls.
DISTINCT = {
    "operators.domain_of": _args_key,
    "domains.forced_coordinates": _args_key,
    "domains.excluded_coordinates": _args_key,
    "domains.RationalWeight": _rational_weight_key,
    "verify.check_strict_gap": _args_key,
}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.distinct = {name: set() for name in DISTINCT}
        self.member_yes = 0
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self._stack = [[0.0]]  # child time of each open span
        self._depth = dict.fromkeys(SPANS, 0)
        self._open_coarse = -1
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        stat, stack, depth = self.stats[name], self._stack, self._depth
        seen, key = self.distinct.get(name), DISTINCT.get(name)
        coarse = name.startswith(COARSE)
        count_yes = name == "domains.member"
        yes = domains.Verdict.YES
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stat[0] += 1
            if seen is not None:
                seen.add(key(*args, **kwargs))
            level = depth[name]
            depth[name] = level + 1
            child = [0.0]
            stack.append(child)
            if coarse:
                parent = tracer._open_coarse
                tracer._open_coarse = index = len(tracer.spans)
                tracer.spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                depth[name] = level
                if level == 0:
                    stat[1] += dur
                stat[2] += dur - child[0]
                stack[-1][0] += dur
                if coarse:
                    tracer.spans[index] = (name, start - tracer._t0, end - tracer._t0,
                                           parent)
                    tracer._open_coarse = parent
            if count_yes and result is yes:
                tracer.member_yes += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "opmx" or n.startswith("opmx.")) and m is not None]
        for name, targets in SPANS.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                if isinstance(owner, type):
                    if isinstance(original, property):
                        wrapped = property(self._wrap(name, original.fget))
                    else:
                        wrapped = self._wrap(name, original)
                    # OpMatrix.block_domains is the same property object as
                    # column_domains, so every alias is replaced.
                    for alias, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, alias, wrapped)
                else:
                    wrapped = self._wrap(name, original)
                    for module in modules:
                        for alias, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, alias, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            if name in self.distinct:
                out[f"{name}.distinct"] = len(self.distinct[name])
        member_calls = self.stats["domains.member"][0]
        out["domains.member.yes_share"] = self.member_yes / member_calls if member_calls else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start_s": s, "end_s": e, "parent": p}
                for n, s, e, p in self.spans]
