"""The four workloads: a fixed list of operations built from one seed.

Sizes and the mix of operations are fixed per workload; the seed only
changes the values inside the inputs, so runs with different seeds measure
the same amount of work. Every operation carries its own result check.
CLI operations call ``cli.run`` in process and write their report to a
file that the check reads back; library operations call the public
functions of the ``ultrazero`` package, looked up at call time so a traced
run sees the wrapped functions.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks as C
import inputs as I

OK = "ok"
KNOWN_DEFECT = "known_defect"


@dataclass
class Op:
    name: str  # CLI command or library function
    tag: str  # input family and size
    call: Callable[[], Any]  # the timed part
    verify: Callable[[Any], str]  # OK or KNOWN_DEFECT; raises CheckError
    out: str | None = None  # report file of a CLI operation
    payload_check: Callable[[Any], None] | None = None
    tamper: Callable[[Any], Any] | None = None


class Corpus:
    """The operations of one workload, with the input files they read."""

    def __init__(self, uz, cli, rundir: str, rng):
        self.uz, self.cli, self.dir, self.rng = uz, cli, rundir, rng
        self.out = os.path.join(rundir, "out.json")
        self.ops: list[Op] = []
        self._files = 0

    def file(self, doc=None, text: str | None = None) -> str:
        self._files += 1
        path = os.path.join(self.dir, f"in{self._files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) if text is None else text)
        return path

    def cli_op(self, name, tag, args, code, check=None, *, defect=None, out=None, tamper=None):
        out = out or self.out
        argv = [name, *args, "--format", "json", "--output", out]
        cli = self.cli

        def call():
            try:
                return cli.run(argv)
            except Exception as exc:  # an escaping exception is an outcome to check
                return exc

        def verify(outcome):
            if defect is not None and defect(outcome):
                return KNOWN_DEFECT
            C.need(not isinstance(outcome, BaseException), f"raised {outcome!r}")
            C.need(outcome == code, f"exit {outcome}, want {code}")
            if check is not None:
                with open(out, encoding="utf-8") as fh:
                    check(json.load(fh))
            return OK

        self.ops.append(Op(name, tag, call, verify, out, check, tamper))

    def lib_op(self, name, tag, call, check, tamper=None):
        def verify(outcome):
            C.need(not isinstance(outcome, BaseException), f"raised {outcome!r}")
            check(outcome)
            return OK

        def guarded():
            try:
                return call()
            except Exception as exc:
                return exc

        self.ops.append(Op(name, tag, guarded, verify, None, check, tamper))


def _family(rng, kind: str, n: int):
    if kind == "general":
        return I.general_metric(rng, n)
    if kind == "ultra":
        return I.ultrametric(rng, n, I.ultra_levels(rng))
    if kind == "pow3":
        return I.ultrametric(rng, n, I.POW3_LEVELS)
    if kind == "coprime":
        return I.coprime_metric(rng, n)
    if kind == "alldistinct":
        return I.all_distinct_metric(rng, n)
    raise ValueError(kind)


def _flip_symbol(doc):
    """Make point 1 agree with point 0 where they first differ."""
    p0 = dict((i, s) for i, s in doc["points"][0]["support"])
    p1 = dict((i, s) for i, s in doc["points"][1]["support"])
    k = min(i for i in p0.keys() | p1.keys() if p0.get(i, 0) != p1.get(i, 0))
    p1[k] = p0.get(k, 0)
    doc["points"][1]["support"] = [[i, s] for i, s in sorted(p1.items()) if s]
    return doc


# ------------------------------------------------------------ cli_accept

ACCEPT_COMMANDS = {
    "general": ["validate", "components", "subdominant", "dim0-cert", "verify-bounds", "embed-universal"],
    "ultra": ["validate", "ultra-check", "components", "subdominant", "dim0-cert",
              "verify-bounds", "quantize", "embed-universal", "retract"],
    "pow3": ["validate", "ultra-check", "components", "subdominant", "dim0-cert",
             "verify-bounds", "quantize", "embed-lomega", "embed-universal", "retract"],
    "coprime": ["validate", "components", "subdominant", "dim0-cert", "verify-bounds", "embed-universal"],
}
# Sizes come in three tiers so that the median and the 90th percentile each
# fall inside a cluster of similar operations, not in a gap between them:
# every command runs at the middle size, and alternately at the small or
# the large one.
ACCEPT_TIERS = (16, 28, 40)


def cli_accept(b: Corpus) -> None:
    rng = b.rng
    files = {}
    turn = 0
    for family, commands in ACCEPT_COMMANDS.items():
        ultra = family in ("ultra", "pow3")
        for cmd in commands:
            small, middle, large = ACCEPT_TIERS
            for n in (middle, small if turn % 2 == 0 else large):
                if (family, n) not in files:
                    labs = I.labels(n)
                    mat = _family(rng, family, n)
                    files[family, n] = (b.file(I.space_doc(labs, mat)), labs, mat)
                path, labs, mat = files[family, n]
                _accept_op(b, cmd, f"{family}/n{n}", path, labs, mat, ultra)
            turn += 1


def _accept_op(b: Corpus, cmd, tag, path, labs, mat, ultra) -> None:
    rng = b.rng
    n = len(labs)
    if cmd == "validate":
        b.cli_op(cmd, tag, [path], 0, lambda doc: C.validate_ok(doc, n))
    elif cmd == "ultra-check":
        b.cli_op(cmd, tag, [path], 0, C.ultra_true)
    elif cmd == "components":
        scales = C.distinct(mat)
        scale = scales[rng.randrange(len(scales))]
        b.cli_op(cmd, tag, [path, "--scale", C.rstr(scale)], 0,
                 lambda doc: C.components_doc(doc, labs, mat, scale))
    elif cmd == "subdominant":
        b.cli_op(cmd, tag, [path], 0, lambda doc: C.subdominant_doc(doc, labs, mat, ultra))
    elif cmd == "dim0-cert":
        b.cli_op(cmd, tag, [path], 0, lambda doc: C.certificate_doc(doc, mat, ultra))
    elif cmd == "verify-bounds":
        b.cli_op(cmd, tag, [path], 0, C.bounds_doc)
    elif cmd == "quantize":
        b.cli_op(cmd, tag, [path], 0, lambda doc: C.quantized(mat, C.matrix(doc, labs)))
    elif cmd == "embed-lomega":
        b.cli_op(cmd, tag, [path], 0, lambda doc: C.embedding_doc(doc, labs, mat),
                 tamper=_flip_symbol)
    elif cmd == "embed-universal":
        b.cli_op(cmd, tag, [path], 0, lambda doc: C.universal_doc(doc, labs, mat))
    elif cmd == "retract":
        base = labs[rng.randrange(n)]
        subset = labs[rng.randrange(4)::4]
        lam = rng.choice((Fraction(2), Fraction(3, 2), Fraction(5)))
        args = [path, "--base", base, "--subset", ",".join(subset), "--lambda", C.rstr(lam)]
        b.cli_op(cmd, tag, args, 0, lambda doc: C.retraction_doc(doc, labs, mat, base, subset, lam))
    else:
        raise ValueError(cmd)


# ------------------------------------------------------------ cli_reject

PLANTED_COMMANDS = ["validate", "ultra-check", "dim0-cert", "quantize", "retract"]
MALFORMED = {
    "not_json": '{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]',
    "missing_dist": {"labels": ["a", "b"]},
    "ragged_row": {"labels": ["a", "b"], "dist": [[0, 1], [1]]},
    "float_entry": {"labels": ["a", "b"], "dist": [[0, 1.5], [1.5, 0]]},
    "zero_denominator": {"labels": ["a", "b"], "dist": [[0, "1/0"], ["1/0", 0]]},
    "label_not_string": {"labels": [1, 2], "dist": [[0, 1], [1, 0]]},
}


def _reject_args(cmd, path, labs):
    if cmd == "retract":
        return [path, "--subset", labs[0], "--lambda", "2"]
    return [path]


def cli_reject(b: Corpus) -> None:
    rng = b.rng
    for n in (24, 40):
        labs = I.labels(n)
        for where, triple in (("early", (0, 1, 2)), ("middle", (n // 3, n // 2, 2 * n // 3)),
                              ("late", (n - 3, n - 2, n - 1))):
            mat = I.planted_violation(rng, n, triple)
            path = b.file(I.space_doc(labs, mat))
            msg = C.triangle_violation_message(labs, mat, *triple)
            for cmd in PLANTED_COMMANDS:
                b.cli_op(cmd, f"triangle-{where}/n{n}", _reject_args(cmd, path, labs),
                         1 if cmd == "validate" else 2,
                         lambda doc, t=triple, m=msg: C.error_doc(doc, "TriangleViolation", t, m))
    for n, code, cmds in ((24, "NonSymmetric", ("validate", "subdominant")),
                          (40, "NonSymmetric", ("validate", "subdominant")),
                          (24, "NegativeOrZeroOffDiagonal", ("validate", "components")),
                          (40, "NegativeOrZeroOffDiagonal", ("validate", "components"))):
        labs = I.labels(n)
        mat = I.general_metric(rng, n)
        i, j = sorted(rng.sample(range(n), 2))
        if code == "NonSymmetric":
            mat[i][j] += Fraction(1, 7)
        else:
            mat[i][j] = mat[j][i] = Fraction(0)
        path = b.file(I.space_doc(labs, mat))
        for cmd in cmds:
            args = [path, "--scale", "3"] if cmd == "components" else [path]
            b.cli_op(cmd, f"{code}/n{n}", args, 1 if cmd == "validate" else 2,
                     lambda doc, c=code, w=(i, j): C.error_doc(doc, c, w))
    for n in (24, 41):  # 41 is past the exhaustive-scan limit of is_ultrametric
        labs = I.labels(n)
        mat = I.general_metric(rng, n)
        path = b.file(I.space_doc(labs, mat))
        b.cli_op("ultra-check", f"general/n{n}", [path], 1,
                 lambda doc, labs=labs, mat=mat: C.ultra_witness(doc, labs, mat),
                 tamper=_wrong_side)
        for cmd in ("quantize", "embed-lomega", "retract"):
            b.cli_op(cmd, f"general/n{n}", _reject_args(cmd, path, labs), 1,
                     lambda doc, mat=mat: C.not_ultrametric_doc(doc, mat))
    for name, doc in MALFORMED.items():
        path = b.file(text=doc) if isinstance(doc, str) else b.file(doc)
        for cmd in ("validate", "verify-bounds"):
            b.cli_op(cmd, name, [path], 2, lambda d: C.error_doc(d, "MalformedInput"))
    b.cli_op("dim0-cert", "missing_file", [os.path.join(b.dir, "absent.json")], 2,
             lambda d: C.error_doc(d, "MalformedInput"))
    _known_defects(b)


def _wrong_side(doc):
    sides = doc["witness"]["sides"]
    sides[2] = sides[1]
    return doc


def _known_defects(b: Corpus) -> None:
    """The defects listed in design.json: each is recognised by its current
    outcome and counts against ok_frac until the program fixes it, after
    which the correct outcome passes the check."""

    def malformed(doc):
        C.error_doc(doc, "MalformedInput")

    path = b.file({"labels": ["a", "b"], "dist": [5, 6]})
    b.cli_op("validate", "known:list_rows", [path], 2, malformed,
             defect=lambda o: isinstance(o, TypeError))
    labs = I.labels(8)
    path = b.file(I.space_doc(labs, I.general_metric(b.rng, 8)))
    b.cli_op("validate", "known:missing_output_dir", [path], 2, None,
             defect=lambda o: isinstance(o, FileNotFoundError),
             out=os.path.join(b.dir, "missing", "out.json"))
    doc = {"labels": ["o", "x1.1"], "dist": [[0, 2], [2, 0]], "base": "o",
           "islands": [{"size": True, "diameter": 1, "separation": 2, "points": ["x1.1"]}]}
    b.cli_op("ball-audit", "known:bool_island_size", [b.file(doc), "--sample", "o:2"], 2,
             malformed, defect=lambda o: o == 0)


# ---------------------------------------------------------- lib_analysis

# (family, n) spaces and the calls made on each. The eight all-distinct
# verify_scale_bounds calls are the top fifth of the operations, so the
# 90th percentile sits inside them; every other call stays well below.
LIB_PLAN = {
    ("pow3", 60): ["dim0_certificate", "verify_scale_bounds"],
    ("pow3", 120): ["is_ultrametric", "embed_3n_valued", "lipschitz_retraction"],
    ("pow3", 200): ["subdominant_ultrametric", "s_components", "embed_3n_valued"],
    ("ultra", 60): ["verify_scale_bounds", "embed_ultrametric"],
    ("ultra", 120): ["subdominant_ultrametric", "quantize_3adic", "lipschitz_retraction"],
    ("ultra", 200): ["is_ultrametric", "dim0_certificate", "s_components", "s_components"],
    ("ultra", 300): ["subdominant_ultrametric"],
    ("general", 60): ["subdominant_ultrametric", "verify_scale_bounds"],
    ("general", 120): ["is_ultrametric", "dim0_certificate"],
    ("general", 200): ["subdominant_ultrametric", "s_components", "s_components"],
    ("general", 300): ["is_ultrametric", "subdominant_ultrametric", "s_components"],
    ("alldistinct", 64): ["verify_scale_bounds"] * 4 + ["dim0_certificate"],
    ("alldistinct", 64, 2): ["verify_scale_bounds"] * 4,
    ("alldistinct", 72): ["dim0_certificate"],
    ("general", 32): ["apply_gauge"],
    ("ultra", 32): ["apply_gauge"],
}


def lib_analysis(b: Corpus) -> None:
    uz, rng = b.uz, b.rng
    for (family, n, *_), calls in LIB_PLAN.items():
        labs = I.labels(n)
        mat = _family(rng, family, n)
        space = uz.FiniteMetricSpace(tuple(labs), tuple(tuple(r) for r in mat))
        ultra = family in ("ultra", "pow3")
        tag = f"{family}/n{n}"
        audited = None
        for name in calls:
            if name == "verify_scale_bounds" and audited is None:
                audited = uz.subdominant_ultrametric(space), uz.dim0_certificate(space)
            _lib_op(b, name, tag, space, mat, ultra, audited)


def _lib_op(b: Corpus, name, tag, space, mat, ultra, audited) -> None:
    uz, rng = b.uz, b.rng
    n = len(mat)
    if name == "is_ultrametric":
        def check(w):
            if ultra:
                C.need(w.verdict is True and w.triangle is None, "ultrametric not certified")
            else:
                C.need(w.verdict is False, "non-ultrametric certified")
                C.triangle(mat, w.triangle, w.sides)

        def tamper(w):
            a, b_, c = w.sides
            return uz.UltraWitness(w.verdict, w.triangle, (a, b_, b_))

        b.lib_op(name, tag, lambda: uz.is_ultrametric(space), check,
                 None if ultra else tamper)
    elif name == "subdominant_ultrametric":
        b.lib_op(name, tag, lambda: uz.subdominant_ultrametric(space),
                 lambda r: C.subdominant(mat, [list(row) for row in r.rho.dist],
                                         list(r.spanning_edges), ultra))
    elif name == "dim0_certificate":
        b.lib_op(name, tag, lambda: uz.dim0_certificate(space),
                 lambda c: C.certificate(mat, c.m, c.table, ultra))
    elif name == "verify_scale_bounds":
        sub, cert = audited
        b.lib_op(name, tag, lambda: uz.verify_scale_bounds(space, sub, cert),
                 lambda r: C.need(r.passed is True and r.violations == (), "bounds failed"))
    elif name == "s_components":
        scales = C.distinct(mat)
        scale = scales[rng.randrange(len(scales))]

        def check(p):
            C.need(p.scale == scale, "scale")
            C.partition(mat, scale, [list(block) for block in p.blocks])

        b.lib_op(name, tag, lambda: uz.s_components(space, scale), check)
    elif name == "quantize_3adic":
        b.lib_op(name, tag, lambda: uz.quantize_3adic(space),
                 lambda q: C.quantized(mat, q.dist))
    elif name in ("embed_ultrametric", "embed_3n_valued"):
        quantize = name == "embed_ultrametric"
        b.lib_op(name, tag, lambda: getattr(uz, name)(space),
                 lambda e: C.embedding(mat, [img.entries for img in e.images], quantize))
    elif name == "lipschitz_retraction":
        base = rng.randrange(n)
        subset = list(range(rng.randrange(5), n, 5))
        lam = rng.choice((Fraction(2), Fraction(3, 2)))
        pointed = uz.PointedSpace(space, base)
        b.lib_op(name, tag, lambda: uz.lipschitz_retraction(pointed, subset, lam),
                 lambda r: C.retraction(mat, set(subset), lam, r.delta, r.assignment,
                                        r.audited_constant))
    elif name == "apply_gauge":
        top = max(C.distinct(mat))
        knots = [(Fraction(0), Fraction(0)), (top / 2, top / 2), (top, top * 3 / 4)]
        gauge = uz.Gauge.from_points(knots[1:])
        b.lib_op(name, tag, lambda: uz.apply_gauge(space, gauge),
                 lambda g: C.gauged(mat, knots, g.dist))
    else:
        raise ValueError(name)


# -------------------------------------------------------- groups_islands

# Three cost tiers, as in cli_accept. Eight profiles of equal-sized small
# archipelago files sit in the middle of the order, so they hold the
# median; the largest balls, m0-check at length 8 and the two 50-point
# files form the top cluster that holds the 90th percentile.
BALLS = [([[2, "inf"]], 6), ([[2, "inf"]], 7), ([[2, "inf"]], 8), ([[3, 2], [2, "inf"]], 6),
         ([[3, 1], [2, "inf"]], 8)]
EMBEDS = [([[2, "inf"]], [[3, "inf"]], 4), ([[2, "inf"]], [[2, 2], [3, "inf"]], 5)]
SPECS = [[[2, "inf"]], [[4, 3], [6, "inf"]], [[12, 2], [5, 1]], [[9, "inf"]], [[6, 2], [10, 3]]]
BUILD_POINTS = (20, 32, 48, 64, 80)
SMALL_FILES = 8  # of 26 points over island sizes {2, 3}
LARGE_FILES = ((2, 3), (2, 5))  # island sizes of the two files of about 50 points


def _orders(summands, depth):
    out = []
    for order, mult in summands:
        out += [order] * (depth - len(out) if mult == "inf" else min(mult, depth - len(out)))
    return out[:depth]


def groups_islands(b: Corpus) -> None:
    rng = b.rng
    for summands, depth in BALLS:
        path = b.file({"summands": summands})
        orders = _orders(summands, depth)
        b.cli_op("group-ball", f"depth{depth}", [path, "--depth", str(depth)], 0,
                 lambda doc, o=orders: C.group_ball_doc(doc, o), tamper=_bump_distance)
    for src, dst, depth in EMBEDS:
        args = [b.file({"summands": src}), b.file({"summands": dst}), "--depth", str(depth)]
        b.cli_op("group-embed", f"depth{depth}", args, 0,
                 lambda doc, s=_orders(src, depth), t=_orders(dst, depth), d=depth:
                 C.group_embed_doc(doc, s, t, d))
    for max_len in (7, 8):
        b.cli_op("m0-check", f"len{max_len}", ["--max-len", str(max_len)], 0,
                 lambda doc, m=max_len: C.m0_doc(doc, m))
    for p in (2, 3, 5, 7):
        spec = rng.choice(SPECS)
        b.cli_op("sylow", f"p{p}", [b.file({"summands": spec}), "--prime", str(p)], 0,
                 lambda doc, s=spec, p=p: C.sylow_doc(doc, s, p))
    for _ in range(3):
        left, right = rng.choice(SPECS), rng.choice(SPECS)
        args = [b.file({"summands": left}), b.file({"summands": right})]
        code = 0 if C.protasov_equivalent(left, right) else 1
        b.cli_op("protasov", "specs", args, code,
                 lambda doc, l=left, r=right: C.protasov_doc(doc, l, r))
    for k, points in enumerate(BUILD_POINTS):
        allowed = ((2, 3), (2, 5), (3, 4))[k % 3]
        plan = I.island_plan(rng, allowed, points)
        strict = k % 2 == 0
        path = b.file({"lambda": list(allowed), "plan": [list(r) for r in plan], "strict": strict})
        b.cli_op("archipelago-build", f"n{1 + sum(s for s, _ in plan)}", [path], 0,
                 lambda doc, p=plan, s=strict: C.arch_build_doc(doc, p, s))
    small = [I.island_plan(rng, (2, 3), 26) for _ in range(SMALL_FILES)]
    large = [I.island_plan(rng, allowed, 50) for allowed in LARGE_FILES]
    paths = {id(plan): b.file(I.archipelago_doc(plan, True)) for plan in small + large}
    for plan in small + large:
        b.cli_op("archipelago-profile", f"n{1 + sum(s for s, _ in plan)}", [paths[id(plan)]], 0,
                 lambda doc, p=plan: C.profile_doc(doc, p, True))
    for left, right in ((small[0], small[1]), (large[0], large[1])):
        same = {s for s, _ in left} == {s for s, _ in right}
        b.cli_op("archipelago-compare", "pair", [paths[id(left)], paths[id(right)]],
                 0 if same else 1,
                 lambda doc, l=left, r=right: C.compare_doc(doc, (l, True), (r, True)))
    for plan in large:
        labs, _, islands = I.archipelago(plan, True)
        size, diam, sep, members = islands[rng.randrange(len(islands))]
        samples = [("o", sep), (labs[members[0]], diam), (labs[members[-1]], Fraction(0)),
                   (labs[members[0]], sep)]
        args = [paths[id(plan)]] + [a for c, r in samples for a in ("--sample", f"{c}:{C.rstr(r)}")]
        b.cli_op("ball-audit", f"n{len(labs)}", args, 0,
                 lambda doc, p=plan, s=samples: C.ball_audit_doc(doc, p, True, s))


def _bump_distance(doc):
    doc["dist"][0][1] += 1
    return doc


WORKLOADS = {
    "cli_accept": cli_accept,
    "cli_reject": cli_reject,
    "lib_analysis": lib_analysis,
    "groups_islands": groups_islands,
}


def build(name: str, uz, cli, rundir: str, rng) -> list[Op]:
    b = Corpus(uz, cli, rundir, rng)
    WORKLOADS[name](b)
    return b.ops


def self_check(op: Op, payload) -> str | None:
    """The check accepts the real result and flags a tampered copy."""
    try:
        op.payload_check(payload)
    except C.CheckError as exc:
        return f"self-check: real result of {op.name} rejected: {exc}"
    try:
        op.payload_check(op.tamper(copy.deepcopy(payload)))
    except C.CheckError:
        return None
    return f"self-check: tampered result of {op.name} was not flagged"
