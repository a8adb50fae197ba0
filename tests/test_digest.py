"""Bit identity at scale: one SHA-256 digest per block of solver answers.

``surface.jsonl`` pins whole answers, but only on operands too small for
the kernel's first-run step or its Montgomery words.  This corpus reaches
both.  It is a pure function of ``SEED`` and holds:

- the signed grid -16..16, zeros included;
- pairs of 2 to 600 bits with ``g`` in 1, 3, 105 and 2**61 - 1 and 0, 1 or
  5 shared twos, so E, the halvings the Montgomery tail undoes, falls on
  each side of 256, 512 and 768;
- unbalanced pairs up to 8192 bits, both ways round, whose first-run step
  lifts an inverse past 256 bits when they are more than 258 bits apart.

Each pair is given to ``ext_gcd``, ``wwl2`` and ``wwl1`` (which names the gcd
of a non-coprime pair), and to both traces up to 400 bits.  Each call adds
``repr((name, args, value))`` to its block's hash, the value being the
repr of the answer or the type and message of the ValueError raised.

Runs without pytest, so any interpreter can be checked; it exits 0, or 1
after one line per changed block with its index and its first and last
calls:

    PYTHONPATH=src python tests/test_digest.py

Run from outside the checkout with no ``PYTHONPATH``, it checks the
installed package instead, as the CI workflow does.  A later corpus
appends blocks and keeps these.  A pinned digest changes only with an
output, and CHANGES.md says so.
"""

import functools
import hashlib
import itertools
import random
import sys

from normgcd.core import ext_gcd, wwl1, wwl1_trace, wwl2, wwl2_trace

SEED = 2018
BLOCK = 2500
TRACED_BITS = 400
GCDS = (1, 3, 105, 2**61 - 1)
SOLVERS = (ext_gcd, wwl2, wwl1)
TRACES = (wwl1_trace, wwl2_trace)

# the digest of each block, in order
DIGESTS = [
    "802b288ff4b18d93e0b49877f279480885f75611b81933d221e05f8c4fb9de3d",
    "bccf48ed9d50dcb35bd10ba1f6b6ff9e563f183ef6ef92846d35acf61aff4f3a",
    "9c8475f57c1b923bb9bd381ca55bc0446a94e5f116cd700a20a72bd1fdd02f1e",
    "ba6e6336b270af20969717a9d7ae7b74c54a0aaecab70724c5da6c40bbf2de84",
    "1d038093dffb0464b58bc4d1ca990a3dbe2ccb60356ac8ac7d56fd224a242be4",
    "bc470b54e5e8d0502e76c926dae1b73c5299096a8545e9f396042045e1a9b318",
    "8549f8a6f0ce6769224400486250dbc1fd5f55c69f1bc59ef430dbf189f0cf55",
    "f577fb281cfa80ad75cce988c833f88e4e967fbb7652e6274fe1d56ad928bb59",
    "26f3a2225eb390e4c0aedd0648ba1736f8f299aed516d5543a879f53e7647ef5",
    "8a5740610c01fc418d33032534e63945f0e0cf82fb1f5524cf6a34a044fa93a4",
    "f040bd030c8be84f60f06172673a84fb5f59f469a6fd6b700dbc4286f5d13f8e",
    "2b8f1e5080832003cd8e48c123b3b17760cbfdadf2a276df7e9f909f056c99d5",
    "6d035497defd8f440e136e7aa9cd99279edac667c39a6e89368405f4a4877745",
    "ddc23f1f48450fd7cbacaeab43a0d5bbc40426bfe1be3301f083743c32c20b94",
    "deee90ee4adfc49bfb315d53ae969adc1e0f4e39b5ef62ed5cae5aed09ada783",
    "ee53be4da298acc592e7bb16f62dfdcad2409ff7130cc23101a6392e2ab3dd8f",
    "4269d288876fca7bcacb523fb515600723f15631a01fc67caef7eb974c6a5998",
    "929dcbf9116771a77dcb9f87c3e16b3eb8ede161d370f1eba26cc9b62a638e0c",
    "249790427dbf702c9c0b3bc51cc85698e05bdbaf6f1ed7e5a8718e8cd33e5e7b",
    "d28e46223752091f0ecf142c4ab39ba9ebdb0b1082e7bde61bf0b8dba0230afc",
    "e7f8d19208cb9e02b21fdc5e97f117d820df853f0cf40842851a3f719f2aa11a",
    "c5cad21640a8ad68053a2cdf67aec3f47dfff78dfca8c477b9c98ce0477f5920",
    "c731891b2ddff0aa2f8b819a2f535095bb7e265378476a6624b950b1984b23a5",
    "396724eab84d5f2442a878bbb68f5f26dc53ebd0fc8d48884a5defb81e0ee1aa",
    "344b29058bf08e9b45114b2ed7f285cf0c3b6eeb1d928d0b905cc35a4e7b7f77",
    "f5515bdbbef8891c2df9043cf376015638e63315d154b8432aa36b3ceb8af90f",
    "3c07703605e0edaab80891d99c3f2ff999a7ba5a8acfb14b8ebbe35ad75f8c5d",
    "4fd6bb2a3fac498abaf255c63b73e9d4aae46839ec7f655d221eeacf52e618f4",
    "1707991a9e5e7094408d24c26e98a33f4f78f184df948c42e1f57655c3591d2d",
]


def corpus():
    """The pairs, in the order their calls are hashed."""
    rng = random.Random(SEED)

    def sized(bits, odd=False):
        return rng.getrandbits(bits) | 1 << bits - 1 | odd

    pairs = [(a, b) for a in range(-16, 17) for b in range(-16, 17)]
    for _ in range(14000):
        bits = rng.randrange(2, 601)
        a, b = sized(bits, odd=True), sized(rng.randrange(1, bits + 1))
        if rng.randrange(2):
            a, b = b, a
        g = rng.choice(GCDS) << rng.choice((0, 0, 1, 5))
        pairs.append((a * g, b * g))
    for _ in range(1000):
        short = rng.randrange(2, 1025)
        long = rng.randrange(short + 12, 8193)
        g = rng.choice(GCDS)
        a, b = sized(long, odd=True) * g, sized(short) * g
        pairs += [(a, b), (b, a)]
    return pairs


def calls():
    """(solver, args) of every call, in hash order."""
    for a, b in corpus():
        traced = max(abs(a), abs(b)).bit_length() <= TRACED_BITS
        for fn in SOLVERS + TRACES if traced else SOLVERS:
            yield fn, (a, b)


def _record(fn, args):
    try:
        value = repr(fn(*args))
    except ValueError as exc:
        value = (type(exc).__name__, str(exc))
    return repr((fn.__name__, args, value)).encode()


@functools.cache
def blocks():
    """(first call, last call, hex digest) of each block of BLOCK calls."""
    out, todo = [], calls()
    while block := list(itertools.islice(todo, BLOCK)):
        h = hashlib.sha256()
        for fn, args in block:
            h.update(_record(fn, args))
        first, last = (f"{fn.__name__}{args}" for fn, args in (block[0], block[-1]))
        out.append((first, last, h.hexdigest()))
    return out


def mismatch(i, got):
    """The report line for block ``i``, or None if it matches its pin."""
    first, last, digest = got[i]
    if digest != DIGESTS[i]:
        return f"block {i}: got {digest}, pinned {DIGESTS[i]}; from {first} to {last}"
    return None


def mismatches():
    """One line per block whose digest is not the pinned one."""
    got = blocks()
    lines = [f"{len(got)} blocks, {len(DIGESTS)} pinned"] if len(got) != len(DIGESTS) else []
    lines += [line for i in range(min(len(got), len(DIGESTS))) if (line := mismatch(i, got))]
    return lines


def pytest_generate_tests(metafunc):
    # one test id per pinned block, so a failure names its block
    if "block" in metafunc.fixturenames:
        metafunc.parametrize("block", range(len(DIGESTS)))


def test_block_count_matches_pins():
    assert len(blocks()) == len(DIGESTS)


def test_block_digest(block):
    got = blocks()
    assert block < len(got), f"{len(got)} blocks, {len(DIGESTS)} pinned"
    assert (line := mismatch(block, got)) is None, line


if __name__ == "__main__":
    bad = mismatches()
    for line in bad:
        print(line)
    sys.exit(1 if bad else 0)
