"""Command line interface.

Exit codes: 0 when the requested construction or property check succeeds,
1 when the checked property fails (a witness report is still emitted),
2 for malformed input, bad parameters, or usage errors. An error raised by
a command exits 1 only if ``_PROPERTY_CODES_BY_COMMAND`` lists its code for
that command; that table is the one place that decides an error's exit code.

Reports stream to stdout (or --output FILE) as JSON or a short human
rendering; JSON is the stable interface.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import jsonio
from .archipelago import ball_audit, build_archipelago, fingerprint_compare, island_profile
from .errors import UltrazeroError, fail
from .groups import (
    d_filtration,
    group_ball,
    group_isometric_embedding,
    m0_distortion_check,
    m0_encode,
    protasov_equivalent,
    sylow_number,
)
from .lomega import embed_3n_valued, embed_universal
from .metric_core import FiniteMetricSpace, PointedSpace, is_ultrametric, quantize_3adic
from .rational import as_fraction, rational_str
from .retract import lipschitz_retraction
from .scale_analysis import (
    certify,
    dim0_certificate,
    s_components,
    subdominant_ultrametric,
    verify_scale_bounds,
)

# codes that mean "the data is well formed but the checked property fails"
_PROPERTY_CODES_BY_COMMAND = {
    "validate": {"DuplicateLabel", "NonZeroDiagonal", "NonSymmetric",
                 "NegativeOrZeroOffDiagonal", "TriangleViolation"},
    "quantize": {"NotUltrametric"},
    "embed-lomega": {"NotUltrametric", "NotThreePowerValued"},
    "retract": {"NotUltrametric"},
    "group-embed": {"IndexConditionFails"},
    "archipelago-profile": {"NotArchipelagoShaped"},
    "archipelago-compare": {"NotArchipelagoShaped"},
}


def _load_space(path: str) -> FiniteMetricSpace:
    return jsonio.space_from_json(jsonio.load_document(path))


def cmd_validate(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    return 0, {"valid": True, "points": space.n}, [f"valid metric space with {space.n} points"]


def cmd_ultra_check(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    w = is_ultrametric(space)
    doc = jsonio.witness_to_json(space, w)
    if w.verdict:
        return 0, doc, ["ultrametric"]
    tri = doc["witness"]["triangle"]
    sides = doc["witness"]["sides"]
    return 1, doc, [f"not ultrametric: triangle {tri} has sides {sides}"]


def cmd_components(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    part = s_components(space, as_fraction(args.scale))
    doc = jsonio.partition_to_json(space, part)
    lines = [f"scale {doc['scale']}: {len(part.blocks)} block(s)"]
    lines += ["  " + " ".join(block) for block in doc["blocks"]]
    return 0, doc, lines


def cmd_subdominant(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    result = subdominant_ultrametric(space)
    doc = jsonio.subdominant_to_json(result)
    changed = sum(
        1 for i, j in space.pairs() if result.rho.dist[i][j] != space.dist[i][j]
    )
    return 0, doc, [
        f"chain-infimum ultrametric on {space.n} points; "
        f"{changed} pair(s) strictly below the input"
    ]


def cmd_dim0_cert(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    cert = dim0_certificate(space)
    doc = jsonio.certificate_to_json(cert)
    return 0, doc, [f"m = {doc['m']} over {len(cert.table)} scale(s)"]


def cmd_verify_bounds(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    report = verify_scale_bounds(space, *certify(space))
    doc = jsonio.bounds_to_json(report)
    pairs = space.n * (space.n - 1) // 2
    if report.passed:
        return 0, doc, [f"pass: {pairs} pair(s) inside both two-sided bounds"]
    return 1, doc, [f"FAIL: {len(report.violations)} violation(s), see report"]


def cmd_quantize(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    out = quantize_3adic(space)
    return 0, jsonio.space_to_json(out), [
        "distances rounded up to powers of three"
    ]


def cmd_embed_lomega(args) -> tuple[int, dict, list[str]]:
    space = _load_space(args.space)
    emb = embed_3n_valued(space)
    doc = jsonio.embedding_to_json(emb)
    return 0, doc, [
        f"isometric embedding of {space.n} point(s); "
        f"{emb.checked_pairs} pair(s) verified"
    ]


def cmd_embed_universal(args) -> tuple[int, dict, list[str]]:
    emb = embed_universal(_load_space(args.space))
    line = (
        f"distortion window [{rational_str(emb.min_ratio)}, {rational_str(emb.max_ratio)}] "
        f"against allowance [1, {rational_str(emb.bound)}]: {'pass' if emb.passed else 'FAIL'}"
    )
    return (0 if emb.passed else 1), jsonio.universal_to_json(emb), [line]


def cmd_retract(args) -> tuple[int, dict, list[str]]:
    doc_in = jsonio.load_document(args.space)
    pointed = jsonio.pointed_from_json(doc_in)
    if args.base is not None:
        pointed = PointedSpace(pointed.space, pointed.space.index(args.base))
    # a part that is a label is taken as it is, any other part stripped
    labels = set(pointed.space.labels)
    parts = [p if p in labels else p.strip() for p in args.subset.split(",")]
    subset = [p for p in parts if p or p in labels]
    delta = as_fraction(args.delta) if args.delta is not None else None
    rm = lipschitz_retraction(pointed, subset, as_fraction(args.lam), delta)
    doc = jsonio.retraction_to_json(rm)
    return 0, doc, [
        f"retraction onto {len(rm.subset)} point(s); audited constant "
        f"{doc['audited_constant']} within lambda {doc['lambda']}"
    ]


def cmd_group_dist(args) -> tuple[int, dict, list[str]]:
    spec = jsonio.spec_from_json(jsonio.load_document(args.spec))
    p = jsonio.element_from_text(args.p)
    q = jsonio.element_from_text(args.q)
    d = d_filtration(spec, p, q)
    return 0, {"distance": d}, [f"distance {d}"]


def cmd_group_ball(args) -> tuple[int, dict, list[str]]:
    spec = jsonio.spec_from_json(jsonio.load_document(args.spec))
    ball = group_ball(spec, args.depth)
    return 0, jsonio.space_to_json(ball), [
        f"ball of radius {args.depth}: {ball.n} element(s)"
    ]


def cmd_group_embed(args) -> tuple[int, dict, list[str]]:
    g = jsonio.spec_from_json(jsonio.load_document(args.source))
    h = jsonio.spec_from_json(jsonio.load_document(args.target))
    emb = group_isometric_embedding(g, h, args.depth)
    doc = jsonio.group_embedding_to_json(emb)
    kind = "bijective isometry" if emb.bijective else "isometric embedding"
    return 0, doc, [
        f"{kind} on the radius-{args.depth} ball; {emb.checked_pairs} pair(s) audited"
    ]


def cmd_sylow(args) -> tuple[int, dict, list[str]]:
    spec = jsonio.spec_from_json(jsonio.load_document(args.spec))
    s = sylow_number(spec, args.prime)
    return 0, jsonio.sylow_to_json(s), [f"{args.prime}-part: {s.text()}"]


def cmd_protasov(args) -> tuple[int, dict, list[str]]:
    g = jsonio.spec_from_json(jsonio.load_document(args.left))
    h = jsonio.spec_from_json(jsonio.load_document(args.right))
    report = protasov_equivalent(g, h)
    doc = jsonio.protasov_to_json(report)
    if report.equivalent:
        return 0, doc, ["equivalent: all Sylow numbers agree"]
    return 1, doc, [f"distinct: Sylow numbers differ at prime {report.witness}"]


def cmd_m0_encode(args) -> tuple[int, dict, list[str]]:
    spec = jsonio.spec_from_json(jsonio.load_document(args.spec))
    value = m0_encode(spec, jsonio.element_from_text(args.element))
    digits = []
    rest = value
    while rest:
        digits.append(str(rest % 3))
        rest //= 3
    ternary = "".join(reversed(digits)) or "0"
    return 0, {"value": value, "ternary": ternary}, [f"{value} (ternary {ternary})"]


def cmd_m0_check(args) -> tuple[int, dict, list[str]]:
    report = m0_distortion_check(args.max_len)
    doc = jsonio.m0_to_json(report)
    line = (
        f"pairs={report.pair_count} "
        f"{'pass' if report.sharp_holds else 'FAIL'} sharp-bound; "
        f"one-up window: {'holds' if report.window_holds else 'fails'} (see report)"
    )
    return (0 if report.sharp_holds else 1), doc, [line]


def cmd_archipelago_build(args) -> tuple[int, dict, list[str]]:
    allowed, plan, strict = jsonio.plan_from_json(jsonio.load_document(args.plan))
    arch = build_archipelago(allowed, plan, strict=strict)
    doc = jsonio.archipelago_to_json(arch)
    seps = ", ".join(rational_str(spec.separation) for spec, _ in arch.islands)
    return 0, doc, [
        f"{len(arch.islands)} island(s), {arch.space.n} point(s); separations {seps}"
    ]


def cmd_archipelago_profile(args) -> tuple[int, dict, list[str]]:
    pointed = jsonio.pointed_from_json(jsonio.load_document(args.space))
    result = island_profile(pointed)
    doc = jsonio.profile_to_json(result)
    lines = [
        f"{len(result.profile)} island(s): "
        + " ".join(f"({n},{rational_str(d)},{rational_str(s)})" for n, d, s in result.profile)
    ]
    lines += [f"warning: {w}" for w in result.warnings]
    return 0, doc, lines


def cmd_archipelago_compare(args) -> tuple[int, dict, list[str]]:
    left = island_profile(jsonio.pointed_from_json(jsonio.load_document(args.left)))
    right = island_profile(jsonio.pointed_from_json(jsonio.load_document(args.right)))
    report = fingerprint_compare(left, right)
    doc = jsonio.compare_to_json(report)
    return (
        (1 if report.verdict == "distinct" else 0),
        doc,
        [f"{report.verdict}: island size sets {doc['size_sets'][0]} vs {doc['size_sets'][1]}"],
    )


def cmd_ball_audit(args) -> tuple[int, dict, list[str]]:
    arch = jsonio.archipelago_from_json(jsonio.load_document(args.space))
    samples = []
    for raw in args.sample:
        center, sep, radius = raw.partition(":")
        if not sep:
            raise fail("MalformedInput", f"samples look like CENTER:RADIUS, got {raw!r}")
        samples.append((center.strip(), as_fraction(radius.strip())))
    report = ball_audit(arch, samples)
    doc = jsonio.ball_audit_to_json(report)
    lines = [
        f"{s.center} @ {rational_str(s.radius)}: {s.shape} ({s.cardinality} point(s))"
        + ("" if s.consistent else " INCONSISTENT")
        for s in report.samples
    ]
    lines.append("pass" if report.passed else "FAIL")
    return (0 if report.passed else 1), doc, lines


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrazero",
        description="Exact computation with finite metric spaces of dimension zero at all scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *positionals):
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("json", "human"), default="human")
        p.add_argument("--output", default=None, help="write the report to a file")
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "space")
    add("ultra-check", cmd_ultra_check, "space")
    add("components", cmd_components, "space").add_argument("--scale", required=True)
    add("subdominant", cmd_subdominant, "space")
    add("dim0-cert", cmd_dim0_cert, "space")
    add("verify-bounds", cmd_verify_bounds, "space")
    add("quantize", cmd_quantize, "space")
    add("embed-lomega", cmd_embed_lomega, "space")
    add("embed-universal", cmd_embed_universal, "space")
    p = add("retract", cmd_retract, "space")
    p.add_argument("--base", default=None)
    p.add_argument("--subset", required=True,
                   help="comma separated labels; a label containing a comma cannot be named")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--delta", default=None)
    add("group-dist", cmd_group_dist, "spec", "p", "q")
    add("group-ball", cmd_group_ball, "spec").add_argument("--depth", type=int, required=True)
    add("group-embed", cmd_group_embed, "source", "target").add_argument(
        "--depth", type=int, required=True)
    add("sylow", cmd_sylow, "spec").add_argument("--prime", type=int, required=True)
    add("protasov", cmd_protasov, "left", "right")
    add("m0-encode", cmd_m0_encode, "spec", "element")
    add("m0-check", cmd_m0_check).add_argument("--max-len", dest="max_len", type=int, default=7)
    add("archipelago-build", cmd_archipelago_build, "plan")
    add("archipelago-profile", cmd_archipelago_profile, "space")
    add("archipelago-compare", cmd_archipelago_compare, "left", "right")
    add("ball-audit", cmd_ball_audit, "space").add_argument(
        "--sample", action="append", required=True, help="CENTER:RADIUS, repeatable")
    return parser


def _render(args, doc: dict, human: list[str]) -> str:
    if args.format == "json":
        return jsonio.dump_text(doc)
    return "\n".join(human) + "\n"


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        code, doc, human = args.handler(args)
    except UltrazeroError as exc:
        doc, human = jsonio.error_to_json(exc), [str(exc)]
        code = 1 if exc.code in _PROPERTY_CODES_BY_COMMAND.get(args.command, ()) else 2
    text = _render(args, doc, human)
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        err = fail("BadParameters", f"cannot write {args.output}: {exc.strerror or exc}")
        sys.stderr.write(_render(args, jsonio.error_to_json(err), [str(err)]))
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
