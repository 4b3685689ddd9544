"""JSON interchange.

Two conventions, both exact: matrix files carry distances as ints or
"p/q" strings (whichever is shorter to write), while report documents
carry every rational as a string so consumers never face mixed types.
Spaces, pointed spaces and archipelago files are both written and read,
and parse(emit(x)) reproduces x bit for bit. Group specs, island plans
and elements are only read, as command inputs; certificates, profiles and
the other reports are only written.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Any

from .archipelago import (
    Archipelago,
    BallAuditReport,
    FingerprintReport,
    IslandSpec,
    ProfileResult,
)
from .errors import UltrazeroError, fail
from .groups import CyclicSumSpec, GroupElement, GroupEmbedding, M0Report, ProtasovReport, SylowNumber
from .lomega import LOmegaEmbedding, UniversalEmbedding
from .metric_core import FiniteMetricSpace, PointedSpace, UltraWitness, validate_metric
from .rational import as_fraction, rational_str
from .retract import RetractionMap
from .scale_analysis import BoundsReport, Dim0Certificate, Partition, SubdominantResult


def matrix_value(q: Fraction) -> int | str:
    return q.numerator if q.denominator == 1 else rational_str(q)


def load_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise fail("MalformedInput", f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or int; deep nesting
        raise fail("MalformedInput", f"{path} is not valid JSON: {exc}") from None


def dump_text(doc: Any) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    That call runs the pure-Python encoder, since the C encoder does not
    take ``indent``, and makes one small str per matrix entry. Here dicts
    and lists are walked in Python at the same indent, but a non-empty
    list of plain ints and strs (a matrix row) is encoded in one C-encoder
    call whose item separator carries the row's newline and indent. Every
    other value goes through ``json.dumps`` alone, so escapes stay the same.
    """
    parts: list[str] = []
    _dump(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


_PLAIN = frozenset((int, str))


@functools.cache
def _row_encoder(pad: str):
    return json.JSONEncoder(separators=("," + pad, ": ")).encode


def _dump(value: Any, pad: str, out) -> None:
    """Write ``value`` as indent=2 writes it with ``pad`` ("\\n" plus the
    current indent) opening each of its continuation lines."""
    if isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        if _PLAIN.issuperset(map(type, value)):
            out("[" + inner + _row_encoder(inner)(value)[1:-1])
        else:
            sep = "["
            for item in value:
                out(sep + inner)
                _dump(item, inner, out)
                sep = ","
        out(pad + "]")
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{"
        for key, item in value.items():
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = json.dumps(key)  # the spelling json gives such a key
            out(sep + inner + json.dumps(key) + ": ")
            _dump(item, inner, out)
            sep = ","
        out(pad + "}")
    else:
        out(json.dumps(value))


def _need(doc: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(doc, dict):
        raise fail("MalformedInput", f"{where}: expected an object")
    if key not in doc:
        raise fail("MalformedInput", f"{where}: missing key {key!r}")
    value = doc[key]
    # bool passes isinstance(int) but is no count, and no caller wants one
    if kind is not object and (not isinstance(value, kind) or isinstance(value, bool)):
        raise fail("MalformedInput", f"{where}: key {key!r} has the wrong type")
    return value


# ---------------------------------------------------------------- spaces

def _matrix_rows(dist) -> list[list[int | str]]:
    """A distance matrix in the space-file encoding of ``matrix_value``."""
    return [
        [v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}" for v in row]
        for row in dist
    ]


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {"labels": list(space.labels), "dist": _matrix_rows(space.dist)}


def space_from_json(doc: Any) -> FiniteMetricSpace:
    labels = _need(doc, "labels", list, "space")
    dist = _need(doc, "dist", list, "space")
    return validate_metric(labels, dist)


def pointed_to_json(pointed: PointedSpace) -> dict:
    doc = space_to_json(pointed.space)
    doc["base"] = pointed.base_label
    return doc


def pointed_from_json(doc: Any, *, default_first: bool = True) -> PointedSpace:
    space = space_from_json(doc)
    if isinstance(doc, dict) and "base" in doc:
        base_label = doc["base"]
        if not isinstance(base_label, str):
            raise fail("MalformedInput", "pointed space: base must be a label string")
        return PointedSpace(space, space.index(base_label))
    if not default_first:
        raise fail("MalformedInput", "pointed space: missing base")
    return PointedSpace(space, 0)


def witness_to_json(space: FiniteMetricSpace, w: UltraWitness) -> dict:
    if w.verdict:
        return {"ultrametric": True, "witness": None}
    i, j, k = w.triangle
    return {
        "ultrametric": False,
        "witness": {
            "triangle": [space.labels[i], space.labels[j], space.labels[k]],
            "sides": [rational_str(s) for s in w.sides],
        },
    }


# ------------------------------------------------------- scale analysis

def partition_to_json(space: FiniteMetricSpace, part: Partition) -> dict:
    return {
        "scale": rational_str(part.scale),
        "blocks": [[space.labels[i] for i in block] for block in part.blocks],
    }


def subdominant_to_json(result: SubdominantResult) -> dict:
    labels = result.rho.labels
    return {
        **space_to_json(result.rho),
        "spanning_edges": [
            [labels[i], labels[j], rational_str(w)] for w, i, j in result.spanning_edges
        ],
    }


def certificate_to_json(cert: Dim0Certificate) -> dict:
    return {
        "m": rational_str(cert.m),
        "table": [[rational_str(s), rational_str(d)] for s, d in cert.table],
    }


def bounds_to_json(report: BoundsReport) -> dict:
    return {
        "pass": report.passed,
        "violations": [
            {
                "pair": list(v.pair),
                "lhs": rational_str(v.lhs),
                "mid": rational_str(v.mid),
                "rhs": rational_str(v.rhs),
            }
            for v in report.violations
        ],
    }


# ---------------------------------------------------------------- lomega

def embedding_to_json(emb: LOmegaEmbedding) -> dict:
    return {
        "mode": emb.mode,
        "points": [
            {"label": lab, "support": [[i, s] for i, s in img.entries]}
            for lab, img in zip(emb.source.labels, emb.images)
        ],
        "digest": {
            "checked_pairs": emb.checked_pairs,
            "min_ratio": rational_str(emb.min_ratio),
            "max_ratio": rational_str(emb.max_ratio),
        },
    }


def universal_to_json(u: UniversalEmbedding) -> dict:
    return {
        **embedding_to_json(u.inner),
        "mode": "universal",
        "certificate_m": rational_str(u.m),
        "bound": rational_str(u.bound),
        "min_ratio": rational_str(u.min_ratio),
        "max_ratio": rational_str(u.max_ratio),
        "pass": u.passed,
    }


# --------------------------------------------------------------- retract

def retraction_to_json(rm: RetractionMap) -> dict:
    space = rm.pointed.space
    return {
        "base": rm.pointed.base_label,
        "subset": [space.labels[i] for i in sorted(rm.subset)],
        "lambda": rational_str(rm.lam),
        "delta": rational_str(rm.delta),
        "assignment": {
            space.labels[i]: space.labels[rm.assignment[i]] for i in range(space.n)
        },
        "audited_constant": rational_str(rm.audited_constant),
    }


# ---------------------------------------------------------------- groups

def spec_from_json(doc: Any) -> CyclicSumSpec:
    rows = _need(doc, "summands", list, "group spec")
    summands = []
    for row in rows:
        if not isinstance(row, list) or len(row) != 2:
            raise fail("MalformedInput", "group spec: summands are [order, mult] pairs")
        order, mult = row
        if mult == "inf" or mult is None:
            mult = None
        elif not isinstance(mult, int) or isinstance(mult, bool):
            raise fail("MalformedInput", f"group spec: bad multiplicity {mult!r}")
        if not isinstance(order, int) or isinstance(order, bool):
            raise fail("MalformedInput", f"group spec: bad order {order!r}")
        summands.append((order, mult))
    return CyclicSumSpec.of(summands)


def element_from_text(text: str) -> GroupElement:
    body = text.strip()
    if body in ("", "e"):
        return GroupElement.of(())
    try:
        digits = [int(part) for part in body.split(",")]
    except ValueError:
        raise fail("MalformedInput", f"cannot parse element {text!r}") from None
    return GroupElement.of(digits)


def sylow_to_json(s: SylowNumber) -> dict:
    return {
        "prime": s.prime,
        "exponent": "inf" if s.exponent is None else s.exponent,
        "value": s.text(),
    }


def protasov_to_json(report: ProtasovReport) -> dict:
    return {
        "equivalent": report.equivalent,
        "table": [
            {"prime": p, "left": left.text(), "right": right.text()}
            for p, left, right in report.table
        ],
        "witness": report.witness,
    }


def group_embedding_to_json(emb: GroupEmbedding) -> dict:
    return {
        "depth": emb.depth,
        "bijective": emb.bijective,
        "checked_pairs": emb.checked_pairs,
        "assignment": {
            emb.source.labels[i]: emb.target.labels[emb.assignment[i]]
            for i in range(emb.source.n)
        },
    }


def _m0_witness(w) -> dict | None:
    if w is None:
        return None
    p, q, scale, delta = w
    return {"p": list(p), "q": list(q), "scale": scale, "difference": delta}


def m0_to_json(report: M0Report) -> dict:
    return {
        "max_len": report.max_len,
        "elements": report.element_count,
        "pairs": report.pair_count,
        "sharp_bound_holds": report.sharp_holds,
        "sharp_witness": _m0_witness(report.sharp_witness),
        "min_ratio": rational_str(report.min_ratio),
        "max_ratio": rational_str(report.max_ratio),
        "window_bound_holds": report.window_holds,
        "window_witness": _m0_witness(report.window_witness),
    }


# ----------------------------------------------------------- archipelago

def archipelago_to_json(arch: Archipelago) -> dict:
    doc = pointed_to_json(arch.pointed)
    labels = arch.space.labels
    doc["islands"] = [
        {
            "size": spec.size,
            "diameter": matrix_value(spec.diameter),
            "separation": matrix_value(spec.separation),
            "points": [labels[i] for i in members],
        }
        for spec, members in arch.islands
    ]
    return doc


def archipelago_from_json(doc: Any) -> Archipelago:
    pointed = pointed_from_json(doc, default_first=False)
    space = pointed.space
    rows = _need(doc, "islands", list, "archipelago")
    islands = []
    covered: set[int] = set()
    for row in rows:
        size = _need(row, "size", int, "island")
        diameter = as_fraction(_need(row, "diameter", object, "island"))
        separation = as_fraction(_need(row, "separation", object, "island"))
        points = _need(row, "points", list, "island")
        members = tuple(space.index(lab) for lab in points)
        if len(members) != size:
            raise fail("MalformedInput", f"island lists {len(members)} points, size says {size}")
        island = set(members)
        if len(island) != size:
            raise fail("MalformedInput", "an island lists a point twice")
        if pointed.base in island:
            raise fail("MalformedInput", "the hub cannot belong to an island")
        if covered & island:
            raise fail("MalformedInput", "islands overlap")
        covered |= island
        islands.append((IslandSpec(size, diameter, separation), members))
    if covered | {pointed.base} != set(range(space.n)):
        raise fail("MalformedInput", "islands plus hub must cover the space")
    return Archipelago(pointed, tuple(islands))


def plan_from_json(doc: Any) -> tuple[list[int], list[tuple[int, int]], bool]:
    allowed = _need(doc, "lambda", list, "plan")
    raw_plan = _need(doc, "plan", list, "plan")
    strict = doc.get("strict", False)
    if not isinstance(strict, bool):
        raise fail("MalformedInput", f"plan 'strict' must be true or false, got {strict!r}")
    plan = []
    for row in raw_plan:
        if not isinstance(row, list) or len(row) != 2:
            raise fail("MalformedInput", "plan rows are [size, diameter] pairs")
        plan.append((row[0], row[1]))
    return list(allowed), plan, strict


def profile_to_json(result: ProfileResult) -> dict:
    return {
        "islands": [
            [n, rational_str(diam), rational_str(sep)] for n, diam, sep in result.profile
        ],
        "warnings": list(result.warnings),
    }


def compare_to_json(report: FingerprintReport) -> dict:
    return {
        "verdict": report.verdict,
        "size_sets": [list(report.size_sets[0]), list(report.size_sets[1])],
        "size_counts": [
            [[n, c] for n, c in report.size_counts[0]],
            [[n, c] for n, c in report.size_counts[1]],
        ],
        "separations": [
            [rational_str(s) for s in report.separations[0]],
            [rational_str(s) for s in report.separations[1]],
        ],
    }


def ball_audit_to_json(report: BallAuditReport) -> dict:
    return {
        "pass": report.passed,
        "samples": [
            {
                "center": s.center,
                "radius": rational_str(s.radius),
                "shape": s.shape,
                "cardinality": s.cardinality,
                "consistent": s.consistent,
            }
            for s in report.samples
        ],
        "capacity": [[rational_str(r), c] for r, c in report.capacity],
    }


def error_to_json(exc: UltrazeroError) -> dict:
    return {
        "error": exc.code,
        "message": str(exc),
        "witness": [rational_str(w) if isinstance(w, Fraction) else w for w in exc.witness],
    }
