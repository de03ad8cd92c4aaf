"""Golden report bytes: sha256 digests of all three report formats for one
small sweep per statement, for a thm11 case whose quotient is longer than
str converts by default, and for a hand-built report holding a
non-divisible verdict and error rows, plus the text and jsonl output of
three proof replays.

The sweeps are chosen to reach exploratory rows, negative quotients, a
clipped text quotient, a zero sum, the zero exponent polynomial and a
normalization shift (21 on f = k^3 at ns = 3).  The text report is hashed
without its "# generated:" line and the jsonl report without its meta line;
csv has no varying line.
"""

import hashlib
import io

import pytest

from qnarayana.cli import Report, emit_report, evaluate_case, main, result_record
from qnarayana.verify import CaseSpec, Verdict, outcome

SWEEPS = {
    "thm11": (
        ["--n", "1..3", "--r", "1..2"],
        0,
        {
            "text": "cd0f2c0b35e1319a6773e0cc6926f2f130a1d8d5e16abe556a0cdc2b1267ec96",
            "jsonl": "1720694b06f11200ebc51a90aace13f3b52358cf6da011d73b202f887db4362e",
            "csv": "1f861344b831cbc587b6ea6aa31c6dfc778e6b70085c48308e6f26a1557ed6d5",
        },
    ),
    "thm12": (
        ["--n", "1..2", "--r", "1", "--j-max", "3"],
        0,
        {
            "text": "d3e815299c67d39a2d2e609b58464557d345cc907195b2adc4fdc8b55e461599",
            "jsonl": "75ae3a375b7ecd4f735d10c056240a04a08485551db6b2032e077df4def9d9da",
            "csv": "2df60fb4727d4281ae855f7d5bd56d3b9d8ac26afcd3aeeac7a579a4058fd8db",
        },
    ),
    "gjz": (
        ["--m", "1..2", "--ni-max", "2", "--j-max", "4"],
        0,
        {
            "text": "462254db3347ec273ee71011c19dbcf307f77acd010bf9d9e8f2700b04fb86d0",
            "jsonl": "87e14dc572f408fa3b2f98a6bd221cc03a7c102e4a5eec4408b3e24400b94cd9",
            "csv": "4661bfd8482443e8da2612b6eb6e40c8c74d27fb61085901388ab2e1d868b563",
        },
    ),
    "conj31": (
        ["--m", "1..2", "--ni-max", "2"],
        0,
        {
            "text": "f00ac27b55ab700d7190c411796c2185707a7ff495e1dd2b5b316e08e72d6730",
            "jsonl": "7a33cacefe451ca4417a44e0de3cf180fff2b686a333b45c46a3b990c8ae822c",
            "csv": "4d54a1b3d6567887ce4bf35575cd8a9d28e43a748cfdc08191199a3e16ca6745",
        },
    ),
    "conj32": (
        ["--n", "1..2", "--r", "1..2", "--j-max", "4"],
        0,
        {
            "text": "b39a6957153b5fe1a2a9b0b31bdb2f43791516bc1e05493f66f03e7099910028",
            "jsonl": "491582fbdfc1848297acbce52bd3f2e82eb7c4b4dea0a10600e0b537d169dc67",
            "csv": "88fad3fd221e30cef5b49d50e8a5a16d3e65f210ceb7b9060eaa1422f357731d",
        },
    ),
    "conj33": (
        ["--m", "1..2", "--ni-max", "2", "--j-max", "5"],
        0,
        {
            "text": "253818cb000b3c1a5b6a5a1e69749b1f8d135f510826a8c70def3c21a4125e77",
            "jsonl": "c561a2edec7d287a4a9b66bf85f9854dd3f3ba997589f958a2a8b7f96eeb174b",
            "csv": "9c8768c3064619aaa813b3c0476b6bae577d371561c67bc256548ae67c7b30d2",
        },
    ),
    "conj34": (
        ["--ns", "3", "--f-suite", "0;0,-1,0,0,1;0,0,0,1"],
        0,
        {
            "text": "fd0e5a4f4618421787d61350be9c4375465b06e9609bc8524d1f24ad8252008b",
            "jsonl": "2cabba91140b6ac968b956054d2c46117d0d03b084a438474d8ebb9bad5ea483",
            "csv": "618315717a2376977a77c596808441d61a524d05d0bb1c48642b124999bcf008",
        },
    ),
}

PROOFS = {
    (1, 1, 0): {
        "text": "fe0b8dd8879652f5a866f4269aed1334f6963b6c9ee5105baa4b6233eb086332",
        "jsonl": "330012cd90d8c4ed91365dce66b08a63237ecc0252e8129efcc48fdd716b111a",
    },
    (12, 3, 5): {
        "text": "1876bb7308774b9d0052c4e79948918f14ca8037f215f4ce728688631a0be7c2",
        "jsonl": "d50cfb9122795e3d667314caefc3eff1b80ff114cfe5689cca2ae5e61c1ceadd",
    },
    (8, 4, 7): {
        "text": "21bb6577913d02d3085bc3b140169667461e22aeb7a4ce80586ebaf7ae9498d0",
        "jsonl": "2fa517024f5e08bf3694decfd6d58df3f3533a60629739e02aeb52820b62962c",
    },
}

# verify thm11 --n 15 --r 280: its quotient, an integer of 4359 digits, is
# longer than str converts under the interpreter's default limit of 4300.
# The digests equal those the parent implementation printed with that limit
# lifted (python -X int_max_str_digits=0).
LARGE_INTEGER = {
    "text": "ac0f6865483b6282ab34215ecb8eeabab33ceaa91a07f50aeb9a2f49defc1e34",
    "jsonl": "cc347656611bfd2988e71d3892268302e17fedcbf4c4bb81322faf49017d5295",
    "csv": "4aa0dad8cbe0c788760a0863a439375ad53576bd107b187da387b60f41127ba9",
}

HAND_BUILT = {
    "text": "5464ed6d9f710e5bf543c9f812b61831b06de8115b2d022ab4db443f721b44b7",
    "jsonl": "5f8024d74ad934ec93934ae48c21d367ac94d9c6dd157353ba6c44a457ed8050",
    "csv": "dcb7e32940cac32566f7983f9623ae4e0c5062f297d3db7efa5ca1b96830ba1b",
}


def stable_digest(text):
    """sha256 of a report without the line carrying timestamp and wall time."""
    lines = text.splitlines(keepends=True)
    kept = [
        line
        for line in lines
        if not line.startswith("# generated:") and not line.startswith('{"meta":')
    ]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def hand_built_report():
    passing = evaluate_case(CaseSpec("thm12", n=1, r=1, j=0))
    verdict = Verdict(CaseSpec("thm12", n=2, r=1, j=1), 4, 0, None)
    not_divisible = (outcome(verdict), result_record(verdict))
    failed = (
        "error",
        {"statement": "thm12", "n": 1, "r": 1, "j": 0, "error": "RuntimeError", "message": "boom"},
    )
    chain_error = (
        "error",
        {"statement": "conj34", "ns": (1, 2), "f": (), "error": "NotDivisible", "message": "x" * 80},
    )
    results = (passing, not_divisible, failed, chain_error)
    return Report(
        version="0.0-test",
        spec_echo="statement=thm12 n=1..2 r=1..1 j=theorem",
        timestamp="1970-01-01T00:00:00Z",
        wall_seconds=0.0,
        results=results,
    )


@pytest.mark.parametrize("statement", list(SWEEPS))
@pytest.mark.parametrize("fmt", ["text", "jsonl", "csv"])
def test_sweep_report_bytes(statement, fmt, capsys):
    args, code, digests = SWEEPS[statement]
    assert main(["verify", statement, *args, "--format", fmt]) == code
    assert stable_digest(capsys.readouterr().out) == digests[fmt]


@pytest.mark.parametrize("fmt", ["text", "jsonl", "csv"])
def test_integer_beyond_the_str_digit_limit(fmt, capsys):
    assert main(["verify", "thm11", "--n", "15", "--r", "280", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert stable_digest(captured.out) == LARGE_INTEGER[fmt]


@pytest.mark.parametrize("fmt", ["text", "jsonl", "csv"])
def test_hand_built_report_bytes(fmt):
    buffer = io.StringIO()
    emit_report(hand_built_report(), fmt, buffer)
    assert stable_digest(buffer.getvalue()) == HAND_BUILT[fmt]


@pytest.mark.parametrize("params", list(PROOFS))
@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_proof_bytes(params, fmt, capsys):
    n, r, j = params
    assert main(["proof", "--n", str(n), "--r", str(r), "--j", str(j), "--format", fmt]) == 0
    assert stable_digest(capsys.readouterr().out) == PROOFS[params][fmt]
