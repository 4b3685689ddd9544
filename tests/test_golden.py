"""Byte-level pins of every command's report.

Each case runs one command in process with ``--format json``. Its exit
code and stdout (input paths replaced by ``<file>``) are hashed together.
The group, m0, validation and planted-fault digests were recorded from
the per-pair Fraction loops that group_ball, m0_distortion_check,
group_isometric_embedding and the symmetry/positivity scan of
validate_metric ran before their integer rewrites. The digests of the
other commands (``more_cases``) were recorded from the ``json.dumps(doc,
indent=2)`` writer that ``dump_text`` replaced. So any change to a report,
a witness or an exit code shows here.

The inputs are built here, not by the bench or ``gen``, so that a change
to those generators cannot move a digest.

To re-record after a deliberate output change, run this file as a script
(``PYTHONPATH=src python tests/test_golden.py``) and paste its output.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

from ultrazero.cli import run
from ultrazero.rational import rational_str

BALLS = [([[2, "inf"]], 6), ([[2, "inf"]], 7), ([[2, "inf"]], 8),
         ([[3, 2], [2, "inf"]], 6), ([[3, 1], [2, "inf"]], 8)]
EMBEDS = [([[2, "inf"]], [[3, "inf"]], 4), ([[2, "inf"]], [[2, 2], [3, "inf"]], 5),
          ([[3, "inf"]], [[2, "inf"]], 3)]
MALFORMED = {
    "not_json": '{"labels": ["a", "b"], "dist": [[0, 1], [1, 0]',
    "missing_dist": {"labels": ["a", "b"]},
    "ragged_row": {"labels": ["a", "b"], "dist": [[0, 1], [1]]},
    "float_entry": {"labels": ["a", "b"], "dist": [[0, 1.5], [1.5, 0]]},
    "zero_denominator": {"labels": ["a", "b"], "dist": [[0, "1/0"], ["1/0", 0]]},
    "label_not_string": {"labels": [1, 2], "dist": [[0, 1], [1, 0]]},
    "bool_entry": {"labels": ["a", "b"], "dist": [[0, True], [True, 0]]},
    "mixed_entries": {"labels": ["a", "b", "c"],
                      "dist": [[0, 1, "1/2"], ["1", 0, "2/4"], ["2/4", "1/2", 0]]},
}


def _band(rng, n):
    """A metric in [2, 3]: any two sides add up to at least 4."""
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = Fraction(rng.randint(60, 90), 30)
    return mat


def _planted(rng, n, kind, where):
    mat = _band(rng, n)
    i, j, k = where
    if kind == "TriangleViolation":
        mat[i][j] = mat[j][i] = mat[j][k] = mat[k][j] = Fraction(1)
        mat[i][k] = mat[k][i] = Fraction(rng.randint(61, 90), 30)
    elif kind == "NonSymmetric":
        mat[i][j] += Fraction(1, 7)
    elif kind == "NegativeOrZeroOffDiagonal":
        mat[i][j] = mat[j][i] = Fraction(-1 if k % 2 else 0)
    elif kind == "NonZeroDiagonal":
        mat[j][j] = Fraction(1, 3)
    elif kind == "AsymmetricThenZero":
        mat[i][j] += Fraction(1, 7)
        mat[i][k] = mat[k][i] = Fraction(0)
    elif kind == "ZeroThenAsymmetric":
        mat[i][j] = mat[j][i] = Fraction(0)
        mat[i][k] += Fraction(1, 7)
    elif kind == "AsymmetricZero":
        mat[i][j] = Fraction(0)
    elif kind == "AsymmetricThenDiagonal":
        mat[i][j] += Fraction(1, 7)
        mat[k][k] = Fraction(2)
    return mat


def _space_doc(mat):
    n = len(mat)
    return {"labels": [f"p{i}" for i in range(n)],
            "dist": [[v.numerator if v.denominator == 1 else rational_str(v) for v in row]
                     for row in mat]}


def cases(write):
    """(name, argv) pairs; write(payload) stores a document and returns its path."""
    out = []
    for summands, depth in BALLS:
        out.append((f"group-ball/{summands}/{depth}",
                    ["group-ball", write({"summands": summands}), "--depth", str(depth)]))
    for src, dst, depth in EMBEDS:
        out.append((f"group-embed/{src}/{dst}/{depth}",
                    ["group-embed", write({"summands": src}), write({"summands": dst}),
                     "--depth", str(depth)]))
    for max_len in (1, 2, 7, 8):
        out.append((f"m0-check/{max_len}", ["m0-check", "--max-len", str(max_len)]))
    for name, payload in MALFORMED.items():
        path = write(payload)
        for cmd in ("validate", "verify-bounds"):
            out.append((f"{cmd}/{name}", [cmd, path]))
    rng = random.Random(5)
    for n in (24, 40):
        for kind in ("TriangleViolation", "NonSymmetric", "NegativeOrZeroOffDiagonal",
                     "NonZeroDiagonal", "AsymmetricThenZero", "ZeroThenAsymmetric",
                     "AsymmetricZero", "AsymmetricThenDiagonal"):
            for where in ((0, 1, 2), (n // 3, n // 2, 2 * n // 3), (n - 3, n - 2, n - 1)):
                path = write(_space_doc(_planted(rng, n, kind, where)))
                out.append((f"validate/{kind}/{n}/{where}", ["validate", path]))
                out.append((f"subdominant/{kind}/{n}/{where}", ["subdominant", path]))
        path = write(_space_doc(_band(rng, n)))
        out.append((f"validate/band/{n}", ["validate", path]))
    return out


# ------------------------------------------------ the other commands

# labels that JSON must escape: a quote, a backslash, control characters,
# non-ASCII text, a lone surrogate and an astral character
ESCAPED = ['q"uote', "back\\slash", "ctl\x00\x01\x1f.", "tab\tnl\n.", "café",
           "snow☃", "lone\ud800", "face\U0001F600"]
POOL = tuple(Fraction(k, 30) for k in range(60, 121))
POW3 = tuple(Fraction(3) ** e for e in range(3, -3, -1))
PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
SPECS = [[[2, "inf"]], [[4, 3], [6, "inf"]], [[12, 2], [5, 1]], [[9, "inf"]],
         [[6, 2], [10, 3]], [[3, 2], [2, "inf"]]]


def _zero(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _general(rng, n):
    """The max of a metric valued in [2, 4] and a line metric."""
    pos = [rng.randint(0, 8) for _ in range(n)]
    mat = _zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = max(rng.choice(POOL), Fraction(abs(pos[i] - pos[j])))
    return mat


def _ultra(rng, n, levels):
    """An ultrametric from a random merge tree with heights from ``levels``."""
    mat = _zero(n)

    def build(idx, k):
        if len(idx) < 2:
            return
        if k == len(levels) - 1:
            for a in idx:
                for b in idx:
                    if a != b:
                        mat[a][b] = levels[k]
            return
        parts = 2 if len(idx) == 2 else rng.randint(2, min(4, len(idx)))
        rng.shuffle(idx)
        cuts = sorted(rng.sample(range(1, len(idx)), parts - 1))
        groups = [idx[a:b] for a, b in zip([0] + cuts, cuts + [len(idx)])]
        for g, ga in enumerate(groups):
            for gb in groups[g + 1:]:
                for a in ga:
                    for b in gb:
                        mat[a][b] = mat[b][a] = levels[k]
        for ga in groups:
            build(ga, min(k + rng.randint(1, 3), len(levels) - 1))

    build(list(range(n)), 0)
    return mat


def _coprime(rng, n):
    """Distances 1 + a/p in (1, 2): a metric with a large common denominator."""
    mat = _zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.choice(PRIMES)
            mat[i][j] = mat[j][i] = 1 + Fraction(rng.randint(1, p - 1), p)
    return mat


def _family(rng, family, n):
    if family == "general":
        return _general(rng, n)
    if family == "ultra":
        return _ultra(rng, n, [Fraction(k, 4) for k in sorted(rng.sample(range(8, 400), 20),
                                                               reverse=True)])
    if family == "pow3":
        return _ultra(rng, n, POW3)
    return _coprime(rng, n)


def _archipelago(plan, strict, escaped=False):
    """An archipelago file by its construction law, hub "o" first."""
    labels, islands, running = ["o"], [], 0
    for pos, (size, diam) in enumerate(plan, start=1):
        running += diam
        members = list(range(len(labels), len(labels) + size))
        labels += [f"x{pos}.{j}" for j in range(1, size + 1)]
        islands.append((size, diam, running + 1 if strict else running, members))
    mat = _zero(len(labels))
    for a, (_, diam, sep, members) in enumerate(islands):
        for u in members:
            mat[0][u] = mat[u][0] = Fraction(sep)
            for v in members:
                if u != v:
                    mat[u][v] = Fraction(diam)
        for _, _, other, others in islands[:a]:
            for u in others:
                for v in members:
                    mat[u][v] = mat[v][u] = Fraction(max(other, sep))
    if escaped:
        labels = [labels[0]] + [f"{lab}{ESCAPED[i % len(ESCAPED)]}"
                                for i, lab in enumerate(labels[1:])]
    doc = _space_doc(mat)
    doc["labels"] = labels
    doc["base"] = "o"
    doc["islands"] = [{"size": size, "diameter": diam, "separation": sep,
                       "points": [labels[u] for u in members]}
                      for size, diam, sep, members in islands]
    return doc


def _plan(rng, allowed, points):
    sizes = []
    while 1 + sum(sizes) < points:
        sizes.append(allowed[len(sizes) % len(allowed)])
    rng.shuffle(sizes)
    return [[size, size + rng.randint(0, 3)] for size in sizes]




def more_cases(write):
    """Every other command on a success path and, where one exists, exit 1."""
    out = []
    rng = random.Random(7)
    spaces = [("general", 16), ("general", 40), ("general", 48), ("ultra", 16),
              ("ultra", 40), ("ultra", 48), ("pow3", 16), ("pow3", 40), ("pow3", 64),
              ("coprime", 16), ("coprime", 28)]
    for family, n in spaces:
        mat = _family(rng, family, n)
        doc = _space_doc(mat)
        if n in (16, 48):
            doc["labels"][:len(ESCAPED)] = ESCAPED
        labels = doc["labels"]
        path = write(doc)
        tag = f"{family}/{n}"
        for cmd in ("ultra-check", "subdominant", "dim0-cert", "verify-bounds", "quantize",
                    "embed-lomega", "embed-universal"):
            out.append((f"{cmd}/{tag}", [cmd, path]))
        scales = sorted({v for row in mat for v in row})
        for scale in (Fraction(1, 2), rng.choice(scales[1:]), scales[-1]):
            out.append((f"components/{tag}/{scale}",
                        ["components", path, "--scale", rational_str(scale)]))
        base = labels[rng.randrange(n)]
        subset = labels[rng.randrange(4)::4]
        lam = rng.choice((Fraction(2), Fraction(3, 2), Fraction(5)))
        argv = ["retract", path, "--base", base, "--subset", ",".join(subset),
                "--lambda", rational_str(lam)]
        out.append((f"retract/{tag}", argv))
        out.append((f"retract/{tag}/delta", argv + ["--delta", "11/10"]))
    for name, doc in (("one-point", {"labels": ["solo"], "dist": [[0]]}),
                      ("empty", {"labels": [], "dist": []})):
        path = write(doc)
        for cmd in ("ultra-check", "subdominant", "dim0-cert", "verify-bounds", "quantize",
                    "embed-lomega", "embed-universal"):
            out.append((f"{cmd}/{name}", [cmd, path]))
    out.append(("retract/bad-lambda", ["retract", write({"labels": ["solo"], "dist": [[0]]}),
                                       "--subset", "solo", "--lambda", "1/2"]))

    for summands, depth in (([[2, "inf"]], 9), ([[3, "inf"]], 5), ([[12, 2], [5, 1]], 3)):
        out.append((f"group-ball/{summands}/{depth}",
                    ["group-ball", write({"summands": summands}), "--depth", str(depth)]))
    for spec, p, q in (([[2, "inf"]], "1,0,1", "0,1"), ([[3, 2], [2, "inf"]], "2,1,1", "e"),
                       ([[4, 3], [6, "inf"]], "3,2,1,5", "1,0,3"),
                       ([[2, "inf"]], "1,x", "0")):
        out.append((f"group-dist/{spec}/{p}/{q}", ["group-dist", write({"summands": spec}), p, q]))
    for spec, element in (([[2, "inf"]], "1,0,1,1"), ([[2, 5]], "1,1,0,1,1"), ([[2, 5]], "e"),
                          ([[4, 3], [6, "inf"]], "3,2,5"), ([[2, "inf"]], "2")):
        out.append((f"m0-encode/{spec}/{element}",
                    ["m0-encode", write({"summands": spec}), element]))
    for spec in SPECS:
        for prime in (2, 3, 5, 7, 4):
            out.append((f"sylow/{spec}/{prime}",
                        ["sylow", write({"summands": spec}), "--prime", str(prime)]))
    for left in SPECS:
        for right in SPECS:
            out.append((f"protasov/{left}/{right}",
                        ["protasov", write({"summands": left}), write({"summands": right})]))

    for k, points in enumerate((20, 32, 48, 64)):
        allowed = ((2, 3), (2, 5), (3, 4))[k % 3]
        plan = {"lambda": list(allowed), "plan": _plan(rng, allowed, points), "strict": k % 2 == 0}
        out.append((f"archipelago-build/{points}", ["archipelago-build", write(plan)]))
    out.append(("archipelago-build/too-small",
                ["archipelago-build", write({"lambda": [2], "plan": [[2, 1]]})]))
    files = {}
    for name, allowed, points, strict in (("a", (2, 3), 26, True), ("b", (2, 3), 26, True),
                                          ("c", (2, 5), 50, True), ("d", (3, 4), 30, False)):
        plan = _plan(rng, allowed, points)
        files[name] = write(_archipelago(plan, strict, escaped=name == "c"))
        out.append((f"archipelago-profile/{name}", ["archipelago-profile", files[name]]))
    line = [[Fraction(abs(i - j)) for j in range(6)] for i in range(6)]
    files["line"] = write(_space_doc(line))
    out.append(("archipelago-profile/line", ["archipelago-profile", files["line"]]))
    for left, right in (("a", "b"), ("a", "c"), ("c", "d"), ("a", "line")):
        out.append((f"archipelago-compare/{left}/{right}",
                    ["archipelago-compare", files[left], files[right]]))
    for name, samples in (("a", ["o:0", "o:7", "x1.1:0", "x2.1:3", "x1.2:100"]),
                          ("c", ["o:9", "x1.1" + ESCAPED[0] + ":1/2"])):
        argv = ["ball-audit", files[name]]
        for s in samples:
            argv += ["--sample", s]
        out.append((f"ball-audit/{name}", argv))
    tight = _archipelago([[3, 3]], True)
    tight["islands"][0]["diameter"] = 2  # the file claims a diameter below its size
    out.append(("ball-audit/tight", ["ball-audit", write(tight), "--sample", "x1.1:2"]))
    out.append(("ball-audit/bad-sample", ["ball-audit", files["a"], "--sample", "o"]))
    return out


def digests(tmp_dir):
    counter = iter(range(10**6))
    paths = []

    def write(payload):
        path = os.path.join(str(tmp_dir), f"doc{next(counter)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        paths.append(path)
        return path

    out = {}
    for name, argv in cases(write) + more_cases(write):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv + ["--format", "json"])
        text = buf.getvalue()
        for path in paths:
            text = text.replace(path, "<file>")
        out[name] = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    return out


GOLDEN = {
    "group-ball/[[2, 'inf']]/6": '2b76a5817b9eb724f1d7cdae6f1ec9d6cf746e6283fd52e53fd9de257fdb39f1',
    "group-ball/[[2, 'inf']]/7": '7c68b3c9e145f8217af82d4c012931dc7e9e67d3cac587f3bbf2c7bf523b49b8',
    "group-ball/[[2, 'inf']]/8": '9249903a3ec2ae586f23de2a8e4c0e6d9118252b6a77b9d3e02585af3a1d24f6',
    "group-ball/[[3, 2], [2, 'inf']]/6": '6c90efac77f81e905241843e09a1b4414d6878aa2082beeeb1710bf1919d099e',
    "group-ball/[[3, 1], [2, 'inf']]/8": 'fc6d098cbd865967926705a606cd120589a87c1a9b69aaaac70c621154541585',
    "group-embed/[[2, 'inf']]/[[3, 'inf']]/4": 'e3b950c4b833ee5fdcf79e7ce73082169a9c9e54824bd57529f35868cdfba78b',
    "group-embed/[[2, 'inf']]/[[2, 2], [3, 'inf']]/5": '0fffc75fe6a80228e3cf6bb3264da301d0432c45ba5b6b227335e3db454b3eb5',
    "group-embed/[[3, 'inf']]/[[2, 'inf']]/3": '4e8f521ba1796e3796d3052b8c6e2d52103a8295dbc90892da41fbc695c35b90',
    'm0-check/1': 'f8e4663d27e61bd35dd8e1d2192f66013538def2b4a0bad4012b53edcf7cd345',
    'm0-check/2': '10fc34179cbc7db45578ca3881c6fcc3cebc76135f963c1d6802098da78f7fb8',
    'm0-check/7': '1fa775bb0ad6e21576cdbc0bd4b1967bedc3eb081041c4c5273f6bc7856a8b97',
    'm0-check/8': '7fa317c606280531579afdbba30210e76b615e3935dcb8f5560889a9a30e7c37',
    'validate/not_json': '51b9970ec394b212b5becf43ce8186db825a4d7b7f09dd0eed461bd689b606ea',
    'verify-bounds/not_json': '51b9970ec394b212b5becf43ce8186db825a4d7b7f09dd0eed461bd689b606ea',
    'validate/missing_dist': '071595eca99899f17b0db07aac75197aef17c7fae396765e4b596ce0464c6448',
    'verify-bounds/missing_dist': '071595eca99899f17b0db07aac75197aef17c7fae396765e4b596ce0464c6448',
    'validate/ragged_row': '1ac5ee25baf3d18f0d6561bd210a1cc69fc05b8f2c2cf485f55a3ecc469c8a8b',
    'verify-bounds/ragged_row': '1ac5ee25baf3d18f0d6561bd210a1cc69fc05b8f2c2cf485f55a3ecc469c8a8b',
    'validate/float_entry': '609bb481d2d2f98b6512374f82bcf5d6cfe98bb4fa0a5d78a73ce077cf2f66a7',
    'verify-bounds/float_entry': '609bb481d2d2f98b6512374f82bcf5d6cfe98bb4fa0a5d78a73ce077cf2f66a7',
    'validate/zero_denominator': '250048ddb425748ae7e1e67ab883e4306f4292a8e6205331055145f4d771e7b5',
    'verify-bounds/zero_denominator': '250048ddb425748ae7e1e67ab883e4306f4292a8e6205331055145f4d771e7b5',
    'validate/label_not_string': '10087756a73ed31a8508b10115b349986389297a923065ff7dac6d96227661f3',
    'verify-bounds/label_not_string': '10087756a73ed31a8508b10115b349986389297a923065ff7dac6d96227661f3',
    'validate/bool_entry': '804896121b29195e7c4719546d3e765a786286f68869fc3317d8aaefe3bdad4d',
    'verify-bounds/bool_entry': '804896121b29195e7c4719546d3e765a786286f68869fc3317d8aaefe3bdad4d',
    'validate/mixed_entries': 'aa3ee902afe554e9c75bece9bb4e297a6c8adbe5959eab4ab727579e3689d1f6',
    'verify-bounds/mixed_entries': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'validate/TriangleViolation/24/(0, 1, 2)': '2f09515e7d287129fc20b1759c42a451ae641c75ffc496174cf0a25e5bdb1d50',
    'subdominant/TriangleViolation/24/(0, 1, 2)': '7f782432f2242b27fc5395bebaeb0861dac8195fa5cdb20d92b8a3a943d53b77',
    'validate/TriangleViolation/24/(8, 12, 16)': 'a10711789f3b749b6ec0d04861ad0b67a22f903ccc1966893be815bac3fe3a0e',
    'subdominant/TriangleViolation/24/(8, 12, 16)': 'f6de0960897c4002ec4b5d0457a3475f68d7ca9dea24496e810ede55066bfd5f',
    'validate/TriangleViolation/24/(21, 22, 23)': '63c75ff2601603c21e2a8634ee681f9f7519534dc00ff23be6d8dbe78f7f26ed',
    'subdominant/TriangleViolation/24/(21, 22, 23)': '3228edac118a22f12aab42f1653e8bb871adfc7fd8f2b2b44e690e8533704874',
    'validate/NonSymmetric/24/(0, 1, 2)': '12a864adefa3c4bf2301fe76fc83bfe528b978b5cac86ec055ecabab8eb8936e',
    'subdominant/NonSymmetric/24/(0, 1, 2)': 'f4fe9724ffd22dcded870bb9c219cae5d9288151d1c55c9444bdb0fb331c89e6',
    'validate/NonSymmetric/24/(8, 12, 16)': '36cf2b00a77cb59c283f62e37bb590b38faaa2b3201642f7a2ae1cafca42343d',
    'subdominant/NonSymmetric/24/(8, 12, 16)': '94ab5b671c5915ea1a7318addfb0e1ba4d9c0c30b1f8227161d7658584cb2b76',
    'validate/NonSymmetric/24/(21, 22, 23)': 'df4b15f3fb52d2fd12b55e1a038394a0bf52cfa17873cd8512d0cbbfa89d80bb',
    'subdominant/NonSymmetric/24/(21, 22, 23)': '4408bcf9bb7a4d02d8c0b873dce42d898d9ca13c71cb577cfc689b54be0db96f',
    'validate/NegativeOrZeroOffDiagonal/24/(0, 1, 2)': 'f7f991cb516ebbd39c8d787126f82687f541e11802cf6ce32e3c7432d3411561',
    'subdominant/NegativeOrZeroOffDiagonal/24/(0, 1, 2)': 'b98b8cdc104bab9737b44ae3a30129ca45ca475c2c4d248ca27583b82898a3b8',
    'validate/NegativeOrZeroOffDiagonal/24/(8, 12, 16)': '81e21451b34947517f3044bae72798d237edd471e3906eddb4c34928ae5bfe34',
    'subdominant/NegativeOrZeroOffDiagonal/24/(8, 12, 16)': '6c076ab194298194dee50b66d0ae7d90e8ea90427c624d443852ba5f84ab1e31',
    'validate/NegativeOrZeroOffDiagonal/24/(21, 22, 23)': '3f022df81bbc63da46eb3507c28b9af845c1e1081c63a7814d0bd2b88a2b3906',
    'subdominant/NegativeOrZeroOffDiagonal/24/(21, 22, 23)': '8ba0bbbe1da2e79336e0abf1828c73d34082dca015f40244b05ee3aee2530d93',
    'validate/NonZeroDiagonal/24/(0, 1, 2)': '8be28264d95d6d7f6166009a508863695037571f566236603c4029eb5b9acd1c',
    'subdominant/NonZeroDiagonal/24/(0, 1, 2)': 'ae92e2cc7fdbbcbf81f97d1e71d1c18e1b8ee11f56bce465c6e77977126de4e9',
    'validate/NonZeroDiagonal/24/(8, 12, 16)': 'a3354aae39c9f1d9c529611dd507ebbeeb557f2659dc7cf1f7a9818439ffad31',
    'subdominant/NonZeroDiagonal/24/(8, 12, 16)': '257a17f6191104ac86ce7c5db46f9cef193e55ec33cb0796b4facec2619e1b27',
    'validate/NonZeroDiagonal/24/(21, 22, 23)': '89faaf1d0b86d3ae289792a24c0a3821febac2d8be4c9de1e3a286a97683f700',
    'subdominant/NonZeroDiagonal/24/(21, 22, 23)': '071e80f05b22c9aeca24fff781ceadfd5ad8952788f146095cdb0e579d2eb545',
    'validate/AsymmetricThenZero/24/(0, 1, 2)': '93d7b42e58a1c9e6fdd6fa4d8e9866a2becfb7d5d28c52dff8219ea92bd07598',
    'subdominant/AsymmetricThenZero/24/(0, 1, 2)': '0125449bdb241c24b8764686de5502ea4a6d6f7175be76640336a9c1a87099c6',
    'validate/AsymmetricThenZero/24/(8, 12, 16)': 'd0592ae14793af82e83dc5999a4650f59c5ae41c10042af5829290f30fb15031',
    'subdominant/AsymmetricThenZero/24/(8, 12, 16)': 'dc4bdf2999b41c368d91115d6beff160b70b83b6aff650e151fa0122bf50e759',
    'validate/AsymmetricThenZero/24/(21, 22, 23)': 'df4b15f3fb52d2fd12b55e1a038394a0bf52cfa17873cd8512d0cbbfa89d80bb',
    'subdominant/AsymmetricThenZero/24/(21, 22, 23)': '4408bcf9bb7a4d02d8c0b873dce42d898d9ca13c71cb577cfc689b54be0db96f',
    'validate/ZeroThenAsymmetric/24/(0, 1, 2)': 'f7f991cb516ebbd39c8d787126f82687f541e11802cf6ce32e3c7432d3411561',
    'subdominant/ZeroThenAsymmetric/24/(0, 1, 2)': 'b98b8cdc104bab9737b44ae3a30129ca45ca475c2c4d248ca27583b82898a3b8',
    'validate/ZeroThenAsymmetric/24/(8, 12, 16)': '81e21451b34947517f3044bae72798d237edd471e3906eddb4c34928ae5bfe34',
    'subdominant/ZeroThenAsymmetric/24/(8, 12, 16)': '6c076ab194298194dee50b66d0ae7d90e8ea90427c624d443852ba5f84ab1e31',
    'validate/ZeroThenAsymmetric/24/(21, 22, 23)': 'd3a00d687409919de27417a267227472d9f7bc2a55d61b271bb94ab893c79f96',
    'subdominant/ZeroThenAsymmetric/24/(21, 22, 23)': '062da79a2259cf6e49894a20d3ef716797b2ddf433ff917e2e6639a895397bd9',
    'validate/AsymmetricZero/24/(0, 1, 2)': 'd1959e729335e936dae698d3eb3f766ab2ee99118702407a43867408b8430f0a',
    'subdominant/AsymmetricZero/24/(0, 1, 2)': 'fb0c49eb25af8906df8902bdfb7f3e31c0d2044675c3cf44facccaf3c40a2f3f',
    'validate/AsymmetricZero/24/(8, 12, 16)': '509550fe3115a84ef9d9a0b1b2e4ba82344cac9db8c8654af44998969c235334',
    'subdominant/AsymmetricZero/24/(8, 12, 16)': '6caf32b80aac0436325c3043db5b055ad7febb4e795a6f1d14be2c2f46381e17',
    'validate/AsymmetricZero/24/(21, 22, 23)': '172bba97dc3dcd238525a85b1120ad51a51fa20d0a614421f077195552c60660',
    'subdominant/AsymmetricZero/24/(21, 22, 23)': '520c7731e1f29c32db94d7ff0443bb08845e679d9a93bbb1206f3a0488d28460',
    'validate/AsymmetricThenDiagonal/24/(0, 1, 2)': '4d063af0cca9c0a54782e756f25e55d444701679b2f36b1cbc9b42c6af1c9e0b',
    'subdominant/AsymmetricThenDiagonal/24/(0, 1, 2)': '0ccb6d383f878d3c7efbb5e3774a11ecd5cf80114e6fd27ef197887e7493ef1e',
    'validate/AsymmetricThenDiagonal/24/(8, 12, 16)': 'f2e64636f4fe46744b2b26fcc1c955ceeed6fc91fb989948e1c5e636969f1351',
    'subdominant/AsymmetricThenDiagonal/24/(8, 12, 16)': 'e482f9c8b223188ee55c8889a4f411745eb126b80c36a0f3e603ba8eeb89ca3e',
    'validate/AsymmetricThenDiagonal/24/(21, 22, 23)': 'a6844c47b6d4f11f105f32c3ccaf02f7dfd9224e49f54fe44de18cd096424ecf',
    'subdominant/AsymmetricThenDiagonal/24/(21, 22, 23)': '8575ec981ea21e92fbcefc8ec91985db0ae7804b80bed58f1ab0724e11dcfabb',
    'validate/band/24': '7ce59a88896c6e711aa72d740cd61abff42f5f5dec6b7acb8fc031f73b491364',
    'validate/TriangleViolation/40/(0, 1, 2)': '631814ab3615bb9ad1406890f65923071498ea30ed4f25ea519f63f6a836e5ae',
    'subdominant/TriangleViolation/40/(0, 1, 2)': 'b361c204e7edb9edd2d7c8f638e7c7b84d3a397b0c4e8a86c189f2859cff027c',
    'validate/TriangleViolation/40/(13, 20, 26)': '5ce2587bb490333477ccae84b37013bfc63f48dbc436dfd4713407c15096a6c9',
    'subdominant/TriangleViolation/40/(13, 20, 26)': '73289983c13df9b3c286b3b881462ad4230816da8f2a6b6be95261c4be6d4254',
    'validate/TriangleViolation/40/(37, 38, 39)': 'efd1a22bd29150de09e49b7c90e4bfa65d529b26756b664bd4f9511dfb751404',
    'subdominant/TriangleViolation/40/(37, 38, 39)': 'b1b2942ff9f81d38e424bdd90b9a9764f3d4231e60ed73ff899876f6a83feb02',
    'validate/NonSymmetric/40/(0, 1, 2)': 'c03e0d801ceca51e8f620d4d57475604d7489e6952056741652247b5aa012dc8',
    'subdominant/NonSymmetric/40/(0, 1, 2)': '6f567e93319bf713e81fb91db4a60f1d98ccaf2ad12bd8395567feed790167ff',
    'validate/NonSymmetric/40/(13, 20, 26)': 'eb6b599e28914b46f1f34dfcaf1ee51ebb0b28da4a56d6511af01bcbb9929cd8',
    'subdominant/NonSymmetric/40/(13, 20, 26)': '445c330a4fd4166c8df80bb6676c347e666f130749b2d3229e6b795173baa483',
    'validate/NonSymmetric/40/(37, 38, 39)': '50155dcce45ba367c5d2e02fd9846563e61911857967888ee9390d897d11d782',
    'subdominant/NonSymmetric/40/(37, 38, 39)': 'bcdc265f4cedb77bdc4a6369982499a17b9133cb26e909738415c5880d863407',
    'validate/NegativeOrZeroOffDiagonal/40/(0, 1, 2)': 'f7f991cb516ebbd39c8d787126f82687f541e11802cf6ce32e3c7432d3411561',
    'subdominant/NegativeOrZeroOffDiagonal/40/(0, 1, 2)': 'b98b8cdc104bab9737b44ae3a30129ca45ca475c2c4d248ca27583b82898a3b8',
    'validate/NegativeOrZeroOffDiagonal/40/(13, 20, 26)': 'aaa8944726fa927c3d7113e2cd164da419aed62e83861ffed78794550f16afea',
    'subdominant/NegativeOrZeroOffDiagonal/40/(13, 20, 26)': '8bf807ef5b51ed7af74c3407bf61ec7564190c422886f5382430325fff16b5fe',
    'validate/NegativeOrZeroOffDiagonal/40/(37, 38, 39)': 'bdeebf0b89610073cbd5b651287e4b9016b7d6694fb0b2a2c8118923f5103e45',
    'subdominant/NegativeOrZeroOffDiagonal/40/(37, 38, 39)': 'b0f8dd792ed75358fe0a75aededc3d54375e9a17e432135262059a984dad5f27',
    'validate/NonZeroDiagonal/40/(0, 1, 2)': '8be28264d95d6d7f6166009a508863695037571f566236603c4029eb5b9acd1c',
    'subdominant/NonZeroDiagonal/40/(0, 1, 2)': 'ae92e2cc7fdbbcbf81f97d1e71d1c18e1b8ee11f56bce465c6e77977126de4e9',
    'validate/NonZeroDiagonal/40/(13, 20, 26)': '35b436f07b011e1c6d1ddbb42963fe051bf2baf3b8982c3837f0c811454dbb32',
    'subdominant/NonZeroDiagonal/40/(13, 20, 26)': '62526c93eb7cfd39c2c5f7c136efff419e045ce08e03db90c6885884cf21b821',
    'validate/NonZeroDiagonal/40/(37, 38, 39)': 'c47b9169d74723a8e8bc710d64d8155a411af3d510c0d0a79b84907e0a19e5b1',
    'subdominant/NonZeroDiagonal/40/(37, 38, 39)': '1370395e656f5e77cccaa783ded342c6bc7f70239347e99e359f0f3d4008b5dd',
    'validate/AsymmetricThenZero/40/(0, 1, 2)': '1f075f282c01c3fd020de94952a5f5be248abaad2b7891454aed827709efadc9',
    'subdominant/AsymmetricThenZero/40/(0, 1, 2)': 'be7b9c876df9ab12d2d4879081510e17f57db26bd3eb22873bdd010b6da7db6e',
    'validate/AsymmetricThenZero/40/(13, 20, 26)': '52dbbb0feebf2e2eb7fa9f77e4163dcc9d75fade778d3c67420d886e5521ca2d',
    'subdominant/AsymmetricThenZero/40/(13, 20, 26)': '7e231b31e41e491a84ac32cd5e379301136cb22fb2636ee88ab445510ddbc4c0',
    'validate/AsymmetricThenZero/40/(37, 38, 39)': '34fe2f27e6f0c3270170b6d9e8803dc575f8f3b6c9ed392193acd5d9598552ce',
    'subdominant/AsymmetricThenZero/40/(37, 38, 39)': '4a6c90d24fe269e30dbb91c1fe6412ea09e66412484d693521fb12348084835a',
    'validate/ZeroThenAsymmetric/40/(0, 1, 2)': 'f7f991cb516ebbd39c8d787126f82687f541e11802cf6ce32e3c7432d3411561',
    'subdominant/ZeroThenAsymmetric/40/(0, 1, 2)': 'b98b8cdc104bab9737b44ae3a30129ca45ca475c2c4d248ca27583b82898a3b8',
    'validate/ZeroThenAsymmetric/40/(13, 20, 26)': 'aaa8944726fa927c3d7113e2cd164da419aed62e83861ffed78794550f16afea',
    'subdominant/ZeroThenAsymmetric/40/(13, 20, 26)': '8bf807ef5b51ed7af74c3407bf61ec7564190c422886f5382430325fff16b5fe',
    'validate/ZeroThenAsymmetric/40/(37, 38, 39)': '73d30aeddd4b7f8462de902b1aeb8279f378365b8d43648a8dbf72c4d39066e4',
    'subdominant/ZeroThenAsymmetric/40/(37, 38, 39)': '04bf9061713d2cc4ba8c5e10148234d23ffac7cca32470ebc9d2f85509437d35',
    'validate/AsymmetricZero/40/(0, 1, 2)': 'c335c5e916704fd9d684f12010ccd4bc0acf8494014f8ab1fe3d795d724ab4b5',
    'subdominant/AsymmetricZero/40/(0, 1, 2)': 'ad67c15f8c6d2fead776c2a32352bb805d517c29852242e11910c3f872a2d829',
    'validate/AsymmetricZero/40/(13, 20, 26)': 'd3252cbae52cba92d97cb5903aa9c0de8f4587256acc223477ba3a7168f6e9ab',
    'subdominant/AsymmetricZero/40/(13, 20, 26)': 'c9f249daf0a1108fc07ad4451d6ac99a5743b7437eb1a64182685bcc6f889105',
    'validate/AsymmetricZero/40/(37, 38, 39)': 'ed57208e72fc12206bf6793f637a76b3b17453e07aa63a7bce7783d42aa7e65c',
    'subdominant/AsymmetricZero/40/(37, 38, 39)': '45fae00274902a5b40763b97ae07ae22fbe0f2cfc67702dc13be59f550f40774',
    'validate/AsymmetricThenDiagonal/40/(0, 1, 2)': '4d063af0cca9c0a54782e756f25e55d444701679b2f36b1cbc9b42c6af1c9e0b',
    'subdominant/AsymmetricThenDiagonal/40/(0, 1, 2)': '0ccb6d383f878d3c7efbb5e3774a11ecd5cf80114e6fd27ef197887e7493ef1e',
    'validate/AsymmetricThenDiagonal/40/(13, 20, 26)': 'e40643eff178e1c035b006b1ac17a612f2ad0badce68bbd9bf22fe2fa260c2a8',
    'subdominant/AsymmetricThenDiagonal/40/(13, 20, 26)': '5bfd0870ad73b7f8c6313100ff4f51442267e90af6196e54a049889ebc5a5f76',
    'validate/AsymmetricThenDiagonal/40/(37, 38, 39)': 'bad562da09d3258702f32ef8f4f373a3e2dfe090af11b69d7615bf091871624c',
    'subdominant/AsymmetricThenDiagonal/40/(37, 38, 39)': '17580ff864a592b0ac44d3969d8eb14f4768d35d57f74b2dcc457504b3b7cfbb',
    'validate/band/40': 'ef460fb4b466602758b691ee5524dc24b2966744d6d04e45a63a952381b8d3c6',
    'ultra-check/general/16': '96e7b69052b19bf8505fa6d06e9c713043110d09c1f25dcd3c12a209cad0ed7e',
    'subdominant/general/16': '0f695bca82154b00963d678f1745b437684274502326cd183f9b5d06778f58de',
    'dim0-cert/general/16': '10f5d0e09c546fa8a669104367820d61064091c5651ffd1dff32737c9807bb79',
    'verify-bounds/general/16': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/general/16': '3b06eb2a7700387bd650a6157d4c5ac59bd397da23e356b963f0b88ed3e97b60',
    'embed-lomega/general/16': '707927a79529d73baf5bce0e7dd76d59a78c154dc74fe3f3041165f9a71075bb',
    'embed-universal/general/16': '758919d8cf85a6c4c91ea63ec4a972ba36c5b2c8164504af3a077c951e078dd9',
    'components/general/16/1/2': '2e3a2b991555149ec485f4f279b4fbf53bb2ac870c9dc790c1d018b6f777c34d',
    'components/general/16/4': '8ff7fb6dd7f6cd2f937a1b2107fc2f44d5386cb97b43eaf1978bc19225f3c645',
    'components/general/16/8': '0ba971ee9f47b8f51057bb2e97bea8f066304ef11f449d32562b3a3721759629',
    'retract/general/16': '707927a79529d73baf5bce0e7dd76d59a78c154dc74fe3f3041165f9a71075bb',
    'retract/general/16/delta': '707927a79529d73baf5bce0e7dd76d59a78c154dc74fe3f3041165f9a71075bb',
    'ultra-check/general/40': '3938770abd5802bc5bd5635bf777be872c184ac79553180ab136e943bf8e69c9',
    'subdominant/general/40': '3166b3e389a3b36cb6143db56fe2943d9a4f1d09742d72dd1bdad78ad1b04382',
    'dim0-cert/general/40': 'bb1a1c61c5ab167f1e89aa42783b638e037715c48062b697a475cd463c95934d',
    'verify-bounds/general/40': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/general/40': '9af82a6945570b267cfd5f69754ae22ebca3a8dc4abe4ca3cbf5e7b0c95c5a9f',
    'embed-lomega/general/40': 'e2b52e9f4005b6aa60b8bf1505ed7aa224b942a76dd4f418bacdc15779c2104f',
    'embed-universal/general/40': '62c9325cd2118950f960bf412c0cb44f510856ff8d2b9b7aee06dd9a12dd3925',
    'components/general/40/1/2': 'a854d51407e4825bfce2631ff84f195835ffdbd0b00d19eb85a0701c8b92ff40',
    'components/general/40/31/15': '95e68473575e2ba7aab7f47e39a1aae901dbc0f964ded35829d9d60204489a1c',
    'components/general/40/8': '424a7a0d1bcde4e8ec26ab1e44032eb36850be9c17e323becf2361807c4dac18',
    'retract/general/40': 'e2b52e9f4005b6aa60b8bf1505ed7aa224b942a76dd4f418bacdc15779c2104f',
    'retract/general/40/delta': 'e2b52e9f4005b6aa60b8bf1505ed7aa224b942a76dd4f418bacdc15779c2104f',
    'ultra-check/general/48': 'fc43aba2c424722a0555aec6ab06a7c8192043b74d07c21a123b9683b45c9aa7',
    'subdominant/general/48': '12eaa7825f82ea0e0c664108e39e5fbd5e01d05576806c6f629797b749763b34',
    'dim0-cert/general/48': '133df4f4110943e79de5261a05d12654ee44705e4871483de802e91a8ea2ae89',
    'verify-bounds/general/48': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/general/48': 'b5b6ca70f80e52386726794d6c417b74d217a8db009cb41857ca67b720367060',
    'embed-lomega/general/48': 'e4f88840edaef88a83887c76c1a0acba5ec3bdb760e3b9fc0d2160217a7ffb51',
    'embed-universal/general/48': '0fa2ae23b27d2451f0cff81d30be31f2433263158139f5f2568c4ba6104ec200',
    'components/general/48/1/2': '8a82f11aad86a9cc43e867b3b30d2bdd6c2c41bf1f1a271bf430b5e8320bdff1',
    'components/general/48/29/10': '19ee6d9730a556c0cb9e10607054063bdbe825160bd570979ef45eb23a575461',
    'components/general/48/8': '5ee9eaa819f759e0109449b008252509643fe636867ecf8647815088756f045d',
    'retract/general/48': 'e4f88840edaef88a83887c76c1a0acba5ec3bdb760e3b9fc0d2160217a7ffb51',
    'retract/general/48/delta': 'e4f88840edaef88a83887c76c1a0acba5ec3bdb760e3b9fc0d2160217a7ffb51',
    'ultra-check/ultra/16': '5d6955fff8054229886e4b3588cee4c0536455133d297ce37c4767ec52d56600',
    'subdominant/ultra/16': '15f9013d2108c1885f850fe89fd476dc8b11d9ad20933eb0ac361ca603e1f314',
    'dim0-cert/ultra/16': 'c6497e76be93c575c32b1a041ce0670994cb728054c40bb7599901a829e046b0',
    'verify-bounds/ultra/16': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/ultra/16': 'd4aad9e94fa666b5abab18b619370e40982d9fef798b77e39efeda77ab158c60',
    'embed-lomega/ultra/16': '6a729e55b07642ec5196966d69ce75171686f047f5ebe6886d2490daf2b5445f',
    'embed-universal/ultra/16': '909d7316faa2b8aca49745f86bed1ff253b6ab28aa9749b10552c9ebb3682c2c',
    'components/ultra/16/1/2': '2e3a2b991555149ec485f4f279b4fbf53bb2ac870c9dc790c1d018b6f777c34d',
    'components/ultra/16/315/4': 'f1b5aa7038a8c21b374578639d04359965e9fbef18ba12be6d842314c65590c0',
    'components/ultra/16/195/2': '0098631cca39f51c1fcca2756c0ed61ef4a36ecc4d0d5dae4d8e5555f6c2a6c9',
    'retract/ultra/16': '42f62c19c5fa68d2bf3f75bcd06fdfa13a21a03249fe7a18ecf5f472d3265a8f',
    'retract/ultra/16/delta': '2c3dcf72b21dd53a0912955b5e279769730a4673438aaecb433c7be1448fdf4f',
    'ultra-check/ultra/40': '5d6955fff8054229886e4b3588cee4c0536455133d297ce37c4767ec52d56600',
    'subdominant/ultra/40': '52adb4b3a539843328685c6e91cb8e207e812dca5443dd36ab8d45a35d174b4d',
    'dim0-cert/ultra/40': 'd16077c030851a504e65198736ef96e9d3e2c8508ed52240c6d0684732588c4d',
    'verify-bounds/ultra/40': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/ultra/40': '7d3494342057ae97b16bd979b05589d748c13564da25112dab2c0181730a2e21',
    'embed-lomega/ultra/40': 'd1fb72abe93ab27fd3955b0449e4ffc15a78b69fb95d0c4027854459d158bc56',
    'embed-universal/ultra/40': 'e519198770cf7347f5d40fb1d72c6a441cd04befb3768a7887c288b10911cfc1',
    'components/ultra/40/1/2': 'a854d51407e4825bfce2631ff84f195835ffdbd0b00d19eb85a0701c8b92ff40',
    'components/ultra/40/91': 'd5357890229618bd701397824a49ec35c4c9a83fd6a66936d4aeab5b4770de80',
    'components/ultra/40/183/2': 'dccecced1731152d62ed4d16c8a3390741536b5879a6651ce0a7549afa9cfe53',
    'retract/ultra/40': '9bfbec1525e7ba5dfd92d9b8bac9ada4830229d4affb7bbd5eadc55b45596981',
    'retract/ultra/40/delta': 'f7ee990ce434161b9691a3b91a61d1e9189a03a8948fe6541de1f616ec0245fe',
    'ultra-check/ultra/48': '5d6955fff8054229886e4b3588cee4c0536455133d297ce37c4767ec52d56600',
    'subdominant/ultra/48': '6ac6a7d03102524f306af499fbff68f941d5b274a14f07530b4a37f8ebe5d175',
    'dim0-cert/ultra/48': '0a0db83195d3f206fb4547942df0ad703eae5b74783734ec1940faf0597c2867',
    'verify-bounds/ultra/48': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/ultra/48': '8c393fe7f844d8a32fb7d6f6874ce4b23cf8b062561ee302a8a46a2e2fa150b8',
    'embed-lomega/ultra/48': 'ae1855730eee251bbcc08e08639cedbcc2c1574c4664f27e28be7718eef2f130',
    'embed-universal/ultra/48': '5893b97d0f2048614bf73423cc2ab2a5fda4bd717f7dc6850d266348cf7f5b02',
    'components/ultra/48/1/2': '8a82f11aad86a9cc43e867b3b30d2bdd6c2c41bf1f1a271bf430b5e8320bdff1',
    'components/ultra/48/319/4': 'a13fe9de9a8c9f72957f244026721ae868b5ec20febe206a25f61d0acb1be1e8',
    'components/ultra/48/343/4': '9603f16b0d29bd4d68b0746dba04bd01b105c434bacd71ddb796100ee71f64ab',
    'retract/ultra/48': '3a3d17e3196c5820756b40b3ec852753441c7c922fa7728baf5c506abd8f2b4b',
    'retract/ultra/48/delta': 'c6b3a02feed85ebf014526fd80b3ff54afbd0134c87740471b886117a74f594d',
    'ultra-check/pow3/16': '5d6955fff8054229886e4b3588cee4c0536455133d297ce37c4767ec52d56600',
    'subdominant/pow3/16': 'e52d2f61f095f4dfc6f3268f63f85b6ecbae2b66b30dcc9cc681d6127bad69ad',
    'dim0-cert/pow3/16': '0213291219a354d2330e4118ca0c4da67740ed250c8bdb14fcb82aa2bc0a44af',
    'verify-bounds/pow3/16': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/pow3/16': 'fb20d992f0f70f4c55fde6b7503aecdd202e07c307e60d819f4e0078830fc059',
    'embed-lomega/pow3/16': '8830ffb73d174e4281b79a31e1e70fa4e3fb928ad4229576be7f24ec76348474',
    'embed-universal/pow3/16': '6ea4128fdfd56f499f8955712533ac0d43a136cf797f70ea2aad9c917b8c8809',
    'components/pow3/16/1/2': '62366770057435dce62aa378b5e25c2083acf678e275cdfc584dd4fdbe63f99b',
    'components/pow3/16/1/3': '04257026fedfa54aeacafa8d8d81abdef45aef14fd9b6a4fe802df4d236fcc09',
    'components/pow3/16/27': '815222a55b48cb1a68948b2fd3b08d0f8007851f54ef0ac9822018f5d31a7263',
    'retract/pow3/16': '2c777082abce1cfbbe7d0948ec80eb41bf4c938344884e2e6153fa767c09c65d',
    'retract/pow3/16/delta': '94503dbe87aa557defa47bd92f079f9cb4f17b492b307cf2ba77ecf66fc35da1',
    'ultra-check/pow3/40': '5d6955fff8054229886e4b3588cee4c0536455133d297ce37c4767ec52d56600',
    'subdominant/pow3/40': '9fd5ecdd0495a268833eba6bc9b1d4e6e12f15dfc7189a8ae861640c54ef76fd',
    'dim0-cert/pow3/40': '95ac878285bc1d6f3c07e051034d8ed27d5ef9be0c600b58d1417c223ed3c2a4',
    'verify-bounds/pow3/40': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/pow3/40': '5b3a3188181868cbe7c8b08b5fc83cf0b8efc4555f9dd761428426f168557e35',
    'embed-lomega/pow3/40': 'f33622e13995593be97d74885b92fc1933bd71e84f22372d2ef23d9214388817',
    'embed-universal/pow3/40': '947075f52d9fd4c638bd33bdac29703de397e99c44d338ba541f2e6c9ba02cfb',
    'components/pow3/40/1/2': '33598c2d2bf0be0538a56e1ef6ed0d130860eb10f45f8a9cc3a2417808a8b5ab',
    'components/pow3/40/3': '930abd789fca32e29d9f01dd6bd62be5ea4ec9b5e9fe4233a3f12082fcb89bad',
    'components/pow3/40/27': 'de08c57ca485756039ee875660d90e44f9e57f4a70392029ef017d0d4d977efa',
    'retract/pow3/40': 'ec50b8d9d4c44a301fee8ea1269e93cbdcf8bc7848cf96537fc6c4b2a2d80146',
    'retract/pow3/40/delta': '08de7ac824f91687498a8aecf1cacb1cc6a46e308769c02963c822b3682899f4',
    'ultra-check/pow3/64': '5d6955fff8054229886e4b3588cee4c0536455133d297ce37c4767ec52d56600',
    'subdominant/pow3/64': '7904f90452422400115e513fa2135010cf425f9ced26a9162443e58baa97aa07',
    'dim0-cert/pow3/64': '0213291219a354d2330e4118ca0c4da67740ed250c8bdb14fcb82aa2bc0a44af',
    'verify-bounds/pow3/64': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/pow3/64': '673437f2bc65610bc69faab1428728e7d2ca5c3cf13c7c2cd422a79ae7b80e8a',
    'embed-lomega/pow3/64': '6fa828aaa1ecf21cff5bda1cbcc6ba29f38a7f852d1276187d9859e9b8f808da',
    'embed-universal/pow3/64': '0a1d818c0f111de7e60b236bb8cbeeefe830f49151845d9d158c77db1fe33644',
    'components/pow3/64/1/2': '33e8949ff5030753de365c74fbecf0a375d31acd35a97656cb31d991898289ea',
    'components/pow3/64/27': '9aa509bdbd1e79ca4b96796314dc673f25ee295549cc14f0bc4c5726ac136b91',
    'retract/pow3/64': '80433906610cdf460aa242b0aa170995f774a1be7a6c1a24d0325e909491d8be',
    'retract/pow3/64/delta': '4530fd73b76b7f7fcd16a4b08af0f6741e293fab3b3ae7f245cf144a9cbe1d16',
    'ultra-check/coprime/16': '879f34c8c28c9940a3733ee6d2a96cf72361d9385ea04c057243a0a014609733',
    'subdominant/coprime/16': 'fd89f4ca45d4c2e593c075dec6efeae13ee74b430b5271d19758465bcacfc4fa',
    'dim0-cert/coprime/16': '3532823f05fac0ac44a277de544e0d05276affd2831f311545f5b39203cc8007',
    'verify-bounds/coprime/16': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/coprime/16': '178fa23c6d9bf44966c8337c8f16df88730df2dc926a344ecf1d3ec34b9882bc',
    'embed-lomega/coprime/16': 'ae1717083e3ab8bc40f1910d852be60897f5c47989016274188405f0ca97088e',
    'embed-universal/coprime/16': '1aa9dff57c8dc5b228112a087c6d268ad3c19dc86e5ff0b0e669445a1ad6ac62',
    'components/coprime/16/1/2': '2e3a2b991555149ec485f4f279b4fbf53bb2ac870c9dc790c1d018b6f777c34d',
    'components/coprime/16/123/83': '6fa06b756dadb77f9e186f72b596af47e3f6ed8ef47452ead2879dde54f1c938',
    'components/coprime/16/217/109': '545453fcb3ba28ac0a49d10a8c9c18a1bf241193f9e141cec55ec14d9bb95199',
    'retract/coprime/16': 'ae1717083e3ab8bc40f1910d852be60897f5c47989016274188405f0ca97088e',
    'retract/coprime/16/delta': 'ae1717083e3ab8bc40f1910d852be60897f5c47989016274188405f0ca97088e',
    'ultra-check/coprime/28': 'fc7d8c2a3be5894ff27369187a5bf62780b81a54c5679bd2551fb508009a599a',
    'subdominant/coprime/28': 'd59cbce9194a410e0fb910ede5f07051302e03b798f80ed17ca467366d0384b2',
    'dim0-cert/coprime/28': 'b817a73731aef65c6f8888ca7178d8c54afbba18ef456c40e8fce4b791f8f924',
    'verify-bounds/coprime/28': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/coprime/28': '1fca92aef74bf537f55565b71655e554a98b4dc716ceca7d89c790ca4ff35e1c',
    'embed-lomega/coprime/28': '0ca1af4804bf374f6cda055f0d0a7665d220b79e578a8e0a6148ae913825f524',
    'embed-universal/coprime/28': '1d1b191a8f724881c92ba2535bcaa3a9ef675fb67e0004ae26ca07d56820fc01',
    'components/coprime/28/1/2': '741ff0c1772aaa228804fb1e5f61b1bc27d62cd8593af701fdc271aa3f8d7a76',
    'components/coprime/28/106/67': '1436bea6f07adb459c50ad3c7630e3ace6351495890524b59e8d79c72179a4f0',
    'components/coprime/28/217/109': '64d81645f0901cd85e7420d5961db0fcde3602d0eb7d299fafdf537d03a954e5',
    'retract/coprime/28': '0ca1af4804bf374f6cda055f0d0a7665d220b79e578a8e0a6148ae913825f524',
    'retract/coprime/28/delta': '0ca1af4804bf374f6cda055f0d0a7665d220b79e578a8e0a6148ae913825f524',
    'ultra-check/one-point': '5d6955fff8054229886e4b3588cee4c0536455133d297ce37c4767ec52d56600',
    'subdominant/one-point': '5451ca6af46e9b66a9e6e15b70ace17dea257647c1fc1976035658361ef5e7df',
    'dim0-cert/one-point': '4e3163039ad05ea32db80e8dc7f33d2d03595f5ecdbd24b94249048c8a9ccfad',
    'verify-bounds/one-point': '2caae267ff69810bdb9d217d9fdb03470a375b695637834f16ef3f0296dd12e6',
    'quantize/one-point': '68d6b1a84c407a36035c0018998345abe5383fadab4b0089463f51c849056cf3',
    'embed-lomega/one-point': '9acfcdbb43e822baa853ff575633c07ff213a6df97ddce37cff43ef3c7765b08',
    'embed-universal/one-point': 'b73ef5ab087806516fb6093c626469f62b0dd3403eb1351654da6f340690c65a',
    'ultra-check/empty': '0889c8c50565b04e749bcb441fef2fefb287d2f1e17a655674a9feb372a755c5',
    'subdominant/empty': '0889c8c50565b04e749bcb441fef2fefb287d2f1e17a655674a9feb372a755c5',
    'dim0-cert/empty': '0889c8c50565b04e749bcb441fef2fefb287d2f1e17a655674a9feb372a755c5',
    'verify-bounds/empty': '0889c8c50565b04e749bcb441fef2fefb287d2f1e17a655674a9feb372a755c5',
    'quantize/empty': '0889c8c50565b04e749bcb441fef2fefb287d2f1e17a655674a9feb372a755c5',
    'embed-lomega/empty': '0889c8c50565b04e749bcb441fef2fefb287d2f1e17a655674a9feb372a755c5',
    'embed-universal/empty': '0889c8c50565b04e749bcb441fef2fefb287d2f1e17a655674a9feb372a755c5',
    'retract/bad-lambda': 'e768892ed3f73323dcbd8ac353939190f944abef8ea3319f2544a6a1ee80fc37',
    "group-ball/[[2, 'inf']]/9": '75e7bbd1d4394d150050b75d9315070db9284a0b4a3d6c305f420b9dc1d59bb9',
    "group-ball/[[3, 'inf']]/5": '1681f9eb2f466651ac89678cb724002cf593aa797aa1a9b279c17d800d6f5b39',
    'group-ball/[[12, 2], [5, 1]]/3': '097ac5e3b3eda63e58de580c55d8df128cbfeb4d0dc9f87accc5533b01b7c2cf',
    "group-dist/[[2, 'inf']]/1,0,1/0,1": '984146a5c4ad4502eee84cdfac54b89d85bc35b9d8fb8bf78731846fedab7bc6',
    "group-dist/[[3, 2], [2, 'inf']]/2,1,1/e": '984146a5c4ad4502eee84cdfac54b89d85bc35b9d8fb8bf78731846fedab7bc6',
    "group-dist/[[4, 3], [6, 'inf']]/3,2,1,5/1,0,3": '8888409a4185b59030e5ad33b19ba75632d7804d21ea9f74f437078bd35157ef',
    "group-dist/[[2, 'inf']]/1,x/0": '4e5f6507c7c7be568c419e3723148b3019b2913855060256d6adab9e550d3e62',
    "m0-encode/[[2, 'inf']]/1,0,1,1": '85638d901a7a63f35d84ec5d7d21074fd477352be10061be39ebc8c35342c88c',
    'm0-encode/[[2, 5]]/1,1,0,1,1': '512d93bf203fd806a7c7357d0c5165c2c98262dec0adc705520e88bed8a86a53',
    'm0-encode/[[2, 5]]/e': '2b88206a157cfba0187620577aebb8cc13f1b53b570d712c7e02e29fd6f2a9b8',
    "m0-encode/[[4, 3], [6, 'inf']]/3,2,5": 'fb10fa3b51b2673b286940cd1b9a5d961f6498cd8db44f3691f80cb91b784e2e',
    "m0-encode/[[2, 'inf']]/2": '9196101ad94c1abd5e378162d10ed6397c954c08fc56978e97e9e3affe96c45b',
    "sylow/[[2, 'inf']]/2": '169173c8efc5e0dd452367e75bd8bcab44a844330c21f7681604344d3a5fa455',
    "sylow/[[2, 'inf']]/3": '205039b66d1d9acc7a2b4c87b3bec5d589826633ad5a919499036e124f3b27f5',
    "sylow/[[2, 'inf']]/5": 'dc2682037a0d9ab98fdc273f86aee3e4813d04d7f080f715d530438c1bc22111',
    "sylow/[[2, 'inf']]/7": '64e2b367c04d2d5079f82cbcab36bf6f8ecd4d8807c7ba011b89c255a39bf09e',
    "sylow/[[2, 'inf']]/4": '91ba52db9a55583cb5d2aaae4457c1b0b6129ae2c1bb64aa6cf516c98c836fd3',
    "sylow/[[4, 3], [6, 'inf']]/2": '169173c8efc5e0dd452367e75bd8bcab44a844330c21f7681604344d3a5fa455',
    "sylow/[[4, 3], [6, 'inf']]/3": '5e19638b1958c985029e0a055aec8b2ae1ce3bb3b61f1a740e043980de3dffbd',
    "sylow/[[4, 3], [6, 'inf']]/5": 'dc2682037a0d9ab98fdc273f86aee3e4813d04d7f080f715d530438c1bc22111',
    "sylow/[[4, 3], [6, 'inf']]/7": '64e2b367c04d2d5079f82cbcab36bf6f8ecd4d8807c7ba011b89c255a39bf09e',
    "sylow/[[4, 3], [6, 'inf']]/4": '91ba52db9a55583cb5d2aaae4457c1b0b6129ae2c1bb64aa6cf516c98c836fd3',
    'sylow/[[12, 2], [5, 1]]/2': '63624c5f2d141818dfe82fbd930dd3791ac5d363c05c6c7befad2e181c6e1ef6',
    'sylow/[[12, 2], [5, 1]]/3': '9300d78009c6676a65b50cd5d7978593816e64981a4de20b31b49decdb07572f',
    'sylow/[[12, 2], [5, 1]]/5': '6251d45862db12ea835081170785c0158db865214672c3bc9269f3bb7fb37673',
    'sylow/[[12, 2], [5, 1]]/7': '64e2b367c04d2d5079f82cbcab36bf6f8ecd4d8807c7ba011b89c255a39bf09e',
    'sylow/[[12, 2], [5, 1]]/4': '91ba52db9a55583cb5d2aaae4457c1b0b6129ae2c1bb64aa6cf516c98c836fd3',
    "sylow/[[9, 'inf']]/2": 'ace48e7123575683042420362e404d1246b1c1e030ef4421518fb1c5ae8d9e6b',
    "sylow/[[9, 'inf']]/3": '5e19638b1958c985029e0a055aec8b2ae1ce3bb3b61f1a740e043980de3dffbd',
    "sylow/[[9, 'inf']]/5": 'dc2682037a0d9ab98fdc273f86aee3e4813d04d7f080f715d530438c1bc22111',
    "sylow/[[9, 'inf']]/7": '64e2b367c04d2d5079f82cbcab36bf6f8ecd4d8807c7ba011b89c255a39bf09e',
    "sylow/[[9, 'inf']]/4": '91ba52db9a55583cb5d2aaae4457c1b0b6129ae2c1bb64aa6cf516c98c836fd3',
    'sylow/[[6, 2], [10, 3]]/2': '8950aec8c90e79a0a622589da18abaddb2569c303b42f24f4fcd450e599bf57d',
    'sylow/[[6, 2], [10, 3]]/3': '9300d78009c6676a65b50cd5d7978593816e64981a4de20b31b49decdb07572f',
    'sylow/[[6, 2], [10, 3]]/5': '471647ac347a7955ac4bf98ff1b7881afd6c3bb0ebc7afadd1f09f1e0c9f1a37',
    'sylow/[[6, 2], [10, 3]]/7': '64e2b367c04d2d5079f82cbcab36bf6f8ecd4d8807c7ba011b89c255a39bf09e',
    'sylow/[[6, 2], [10, 3]]/4': '91ba52db9a55583cb5d2aaae4457c1b0b6129ae2c1bb64aa6cf516c98c836fd3',
    "sylow/[[3, 2], [2, 'inf']]/2": '169173c8efc5e0dd452367e75bd8bcab44a844330c21f7681604344d3a5fa455',
    "sylow/[[3, 2], [2, 'inf']]/3": '9300d78009c6676a65b50cd5d7978593816e64981a4de20b31b49decdb07572f',
    "sylow/[[3, 2], [2, 'inf']]/5": 'dc2682037a0d9ab98fdc273f86aee3e4813d04d7f080f715d530438c1bc22111',
    "sylow/[[3, 2], [2, 'inf']]/7": '64e2b367c04d2d5079f82cbcab36bf6f8ecd4d8807c7ba011b89c255a39bf09e',
    "sylow/[[3, 2], [2, 'inf']]/4": '91ba52db9a55583cb5d2aaae4457c1b0b6129ae2c1bb64aa6cf516c98c836fd3',
    "protasov/[[2, 'inf']]/[[2, 'inf']]": '8965fb92e39b1d11f65e35fdf09cf2e9ba22ccbfe8197b1e4a5c0a5b9e76536d',
    "protasov/[[2, 'inf']]/[[4, 3], [6, 'inf']]": '291d3bdc33740c971fc4f2da0d649d0f378059747160ecefa8e9e00bf397699f',
    "protasov/[[2, 'inf']]/[[12, 2], [5, 1]]": '90952d45d933dff632195f5bfb1938e395dc4f80b4c4340a6e1593b703631c56',
    "protasov/[[2, 'inf']]/[[9, 'inf']]": '91f7adcd9b5f627b97c15b33561684d41cad31d6757c31692aea141ef295dfc5',
    "protasov/[[2, 'inf']]/[[6, 2], [10, 3]]": '36a9a6b6904d62e14221c1164c3db87bf969d997e8521495d1ff518e0f16f677',
    "protasov/[[2, 'inf']]/[[3, 2], [2, 'inf']]": '3ea12c38794769ee0aab8e2ad4b4309d26a1fbee1b9ef0d4abd8c6f85b00a346',
    "protasov/[[4, 3], [6, 'inf']]/[[2, 'inf']]": '2d68095c5130606dd8591cf848e6e4a4cd99f2e9746c7feaf9387d6906536d4d',
    "protasov/[[4, 3], [6, 'inf']]/[[4, 3], [6, 'inf']]": 'fe598b45929da2bcfd79d6fa13af81c398aff81aa260ae5b6d017e4eeeea2d27',
    "protasov/[[4, 3], [6, 'inf']]/[[12, 2], [5, 1]]": '68e608ede79f860a3653d3e2a6d35f7e45499d51ffaf35ac582129c96f043ad4',
    "protasov/[[4, 3], [6, 'inf']]/[[9, 'inf']]": 'a692208bac6d2ce758dbb034268ecd3620acbb9832f4e4c5f73b4d1bc6ed45e6',
    "protasov/[[4, 3], [6, 'inf']]/[[6, 2], [10, 3]]": 'c858e6c39b4048b93bb481e484726f650c2c8703b95bf49601d982a6fc1daf7b',
    "protasov/[[4, 3], [6, 'inf']]/[[3, 2], [2, 'inf']]": '49f73e545dc6f68cd6a1f4bc980d733c077a6d02c92ed332571cba7210677146',
    "protasov/[[12, 2], [5, 1]]/[[2, 'inf']]": 'bd8eaca6f36e98cd32658c75d3ad6f425f3160758a3cc196402617f8c154f662',
    "protasov/[[12, 2], [5, 1]]/[[4, 3], [6, 'inf']]": 'afff804adc7ad35ec5f33031146269bba0da8f0f1efb6eadb0accd1f56ccd33a',
    'protasov/[[12, 2], [5, 1]]/[[12, 2], [5, 1]]': '659cceb4fe9047d7d1c283b8929d085761172185f51b02430e1f6706494630fe',
    "protasov/[[12, 2], [5, 1]]/[[9, 'inf']]": '53d28cedbd523c243368d8869e1dc0271f236d9b9b38eb73dfd62cd219a9f793',
    'protasov/[[12, 2], [5, 1]]/[[6, 2], [10, 3]]': '826a593abc1e68f087c26cf8741d69842c77b46e84b7aaa9642cc75069fb90d9',
    "protasov/[[12, 2], [5, 1]]/[[3, 2], [2, 'inf']]": '6f7aa0ab71b8215b90b32847b0d7c58be696648908d2e47ec3d83935fc865f91',
    "protasov/[[9, 'inf']]/[[2, 'inf']]": '8b27689c2b46fa44e6487885866f80a3ea256d8aa6d70dcab505dccc5e6b1533',
    "protasov/[[9, 'inf']]/[[4, 3], [6, 'inf']]": 'b2f58e0791a3714b13ec1295b60df01ac00628d9c9505ddd5d335fa4dd266e43',
    "protasov/[[9, 'inf']]/[[12, 2], [5, 1]]": 'f32d70531724009a9fd4ada49d140918c09a8cffc12c1506142b1a9d679eab1f',
    "protasov/[[9, 'inf']]/[[9, 'inf']]": 'b532a59c35bcc897652421a100acacd8a488cb2e04a8fa2a1042309ee9f1a9e3',
    "protasov/[[9, 'inf']]/[[6, 2], [10, 3]]": '5464648a663f7e94a51844122c274f2b41f963917fc0617673463f5664cebc5c',
    "protasov/[[9, 'inf']]/[[3, 2], [2, 'inf']]": 'a7507e09cd2a3ff999561d59d5f0ad6bb0ca3d94310d979d8b9a469f88d461b4',
    "protasov/[[6, 2], [10, 3]]/[[2, 'inf']]": 'f170b869ed2cb836183293438a5dfa3ff66ae2ebc459b01a69c1b6130d8b526a',
    "protasov/[[6, 2], [10, 3]]/[[4, 3], [6, 'inf']]": 'cb4c3c6fdf9177d9596cf978ff480e028e58ad648bbccdaf2bab082f2044307d',
    'protasov/[[6, 2], [10, 3]]/[[12, 2], [5, 1]]': 'd492e983300fae5964d586938a663ad8f840b3eeacad6da84c1db12e51efa738',
    "protasov/[[6, 2], [10, 3]]/[[9, 'inf']]": '60ed95b6f05068b4b6f8faa7294f9a3f62fa4205084499597d240fe329501529',
    'protasov/[[6, 2], [10, 3]]/[[6, 2], [10, 3]]': '3fee5e601f38b0838da3befc05c8e1f98617aac4d866bcc353b226848ef0d476',
    "protasov/[[6, 2], [10, 3]]/[[3, 2], [2, 'inf']]": '5f58ed5c1746e22628670d8efeca7aa23202bceeefd66160feb0065b091e46bf',
    "protasov/[[3, 2], [2, 'inf']]/[[2, 'inf']]": '7069e9544cd219ae4b30341d063743938b012dc6af01a655b7eea9c748e32752',
    "protasov/[[3, 2], [2, 'inf']]/[[4, 3], [6, 'inf']]": 'dcefd47580b03561a69bd044fbd70dc0d4b9eaa5986727f9b910dc5dfdaadac4',
    "protasov/[[3, 2], [2, 'inf']]/[[12, 2], [5, 1]]": '2b99d721984318102c6ce780ea79ef97695854a78b8a3472f1dd5323325eda31',
    "protasov/[[3, 2], [2, 'inf']]/[[9, 'inf']]": 'e143c34efcd41e8c0572240c038eb5778e6efaca6cc2af6fc5e6369d9d805144',
    "protasov/[[3, 2], [2, 'inf']]/[[6, 2], [10, 3]]": '58d0172b06fba0223a43b3616924b0771254921c3f21c68b58dbdbae01c9dce9',
    "protasov/[[3, 2], [2, 'inf']]/[[3, 2], [2, 'inf']]": 'c8361bb240f67d2be7b841208f1cecf3d1b21302d108114425cfd4025a4545da',
    'archipelago-build/20': '8858c59fd367d52692b7f03ecf9a0425b157e0f2f034ce8724a623b9859de714',
    'archipelago-build/32': '32473ca46d9412e5778f2846d513bba0c7ddcacade0ab286ac6a49cad505dc01',
    'archipelago-build/48': '12835b04fdb07770d3320e146f9e00df3f8813e2b657eed6e2be073cc38cbfe6',
    'archipelago-build/64': '6b6fc38dc33bc814df0c3c1921401ba7d3f6ed48fad304745e69c3733039cf42',
    'archipelago-build/too-small': 'ba3007dc38cf93baf7058db01a527ac2889ecdb6bc87dc01d903a3e2bfc17372',
    'archipelago-profile/a': '41416ec45eb0c5fd4c78c6914d5de450a65e44fda205d0d483b556319678c37d',
    'archipelago-profile/b': '04df0693d7f2e658da800e89f10687ffa3efb7a225784adbcbbaa2bdbcd96a3f',
    'archipelago-profile/c': 'b62e79c2c4021d82914e7eb315318812d5fa29663ef7502cab46e84521ba0007',
    'archipelago-profile/d': '8ea4d5a961d1e7df15477c2843171fc7584a37de74874eaa4fda8180a75d43ee',
    'archipelago-profile/line': 'd7d3c7fff4127c53cc64a47120da791d61c5ce4006f0ca1ba29ee341e8f40ff5',
    'archipelago-compare/a/b': '6e603bd33c2b7e7133dca8c89d8f7ce6987a2e9efa4451db0bd584084e22f9e7',
    'archipelago-compare/a/c': '822dcd7f00109ffe1d91e5aeee1576af7fdf063ce3d8e2554094f51ece6b8def',
    'archipelago-compare/c/d': '922d401d99196e2ae5453f7f06890e722ff720e993426aba8484979fd7d87ba3',
    'archipelago-compare/a/line': 'd7d3c7fff4127c53cc64a47120da791d61c5ce4006f0ca1ba29ee341e8f40ff5',
    'ball-audit/a': '1c497888613c636f269e65966203bc007382ba1b2fbdd46f808b6de64991abfa',
    'ball-audit/c': '0c3cdfd7b60ef20f018114c5a2e6a90e2b05a98dba150fa1aae8569dcb9982d9',
    'ball-audit/tight': 'c49568ffca56298f00f8f54e4b2511da7f1a70641ac097b245933991d608ad6f',
    'ball-audit/bad-sample': 'd8d058795349d72f1db32a3c86cfe0770cc10655d0736c1f5222621d703870e5',
}


def test_reports_match_the_recorded_digests(tmp_path):
    got = digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(tmp).items():
            sys.stdout.write(f"    {name!r}: {digest!r},\n")
