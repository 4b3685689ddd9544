"""Byte-level pins of the group, m0 and validation reports.

Each case runs one command in process with ``--format json``. Its exit
code and stdout (input paths replaced by ``<file>``) are hashed together.
The digests were recorded from the per-pair Fraction loops that
group_ball, m0_distortion_check, group_isometric_embedding and the
symmetry/positivity scan of validate_metric ran before their integer
rewrites, so any change to a report, a witness or an exit code shows here.

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
    for name, argv in cases(write):
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
