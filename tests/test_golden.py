"""Generator pins: every (params, field, seed) keeps its exact generator.

The hashes were computed before the avoidance step had one engine,
when prime fields above a size threshold took a vectorized path and
everything else (binary fields, small steps, primes with p(p-1) >= 2^63)
took a scalar one; the labels say which kind of step built each code.
The k <= 2 pins came later, from the one engine.
The formula is the benchmark's (perfbench/run.py, generator_sha256).
"""

import hashlib
import json

import pytest

from lrcodes import CodeParams, construct, field_make


def generator_sha256(code) -> str:
    f, m = code.field, code.generator
    doc = [f.p, f.e, f.poly, [list(m.row(i)) for i in range(1, m.rows + 1)]]
    return hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


PINS = [
    ((12, 5, 2, 3), (499,), 0, "partition, scalar steps",
     "42b1a3908cf781693ff6537a3950f0e8853ef5d39ac8bb1ef10238ad93a6acd8"),
    ((12, 5, 2, 3), (499,), 7, "partition, scalar steps",
     "f4841819fca45aba08bcb9a9a71f418256ea6dc149379652153f89d8f6aa2bf6"),
    ((10, 5, 2, 2), (211,), 0, "frame, scalar steps",
     "0fd6349af0c7f1e10e6cf22ae4fb7ad09f7f4be2db5cab8adb74e764657b5b2c"),
    ((11, 5, 2, 2), (331,), 0, "partition, scalar steps",
     "1015bb0200f8825efa5914639ae286e3d7d4983c235dcbcf40afef44e1f535c5"),
    ((12, 5, 2, 3), (2, 9), 0, "partition, scalar steps",
     "27b739e8efa1286b94052274a369d84f8186986fa1bb9587f1a255a731005de2"),
    ((10, 5, 2, 2), (2, 8), 0, "frame, scalar steps",
     "57484c021a5211b8e8d9c5e2af6eda55484ad40407d0a316fb9429053b5349ce"),
    ((12, 5, 2, 3), (2, 12), 0, "partition, scalar steps",
     "21bf9889eb57324203ee4695838681b6b59ae3bb6c2e1cc46dabab899dac8fa5"),
    ((12, 5, 2, 3), (2, 14), 1, "partition, scalar steps",
     "008d244bcaaf6ed5634df4e73804ea9bdf25971f957800adb5f8346ff72bf5ee"),
    ((12, 5, 2, 3), (2, 16), 0, "partition, scalar steps",
     "763fd42e69dd9d506cf969dc1163244792c42caac6aaec01aae7bcd7f38a08d4"),
    ((11, 5, 2, 2), (2, 8), 2, "partition, scalar steps",
     "516fafe0ee35687d8391cc69f8638d1997513e74f1319b5d29290879d2f0821c"),
    ((12, 5, 2, 3), (4294967311,), 0, "partition, scalar steps",
     "670b4034aaf699755a4e95058907db3a640fa0b6757eebfb1cf98a1dec5a9fcc"),
    ((12, 5, 2, 3), (2 ** 61 - 1,), 0, "partition, scalar steps",
     "01b9d6f84c07a647289d8b63f9503cd83c823170ddb5e525b82ced0423add98e"),
    ((16, 6, 3, 2), (4373,), 0, "partition, vectorized steps",
     "5b985d9e6f4f1e5d554cffa277222f262dd05aad96fb5ff47e22ec914a3dfb00"),
    ((15, 6, 2, 2), (3011,), 0, "partition, both kinds of step",
     "3d928b850fe67de1805fefc29fbe6ed70048895787f3ac4cc9c4abc9d3c9eedb"),
    ((16, 7, 3, 2), (8009,), 0, "partition, vectorized steps",
     "2db6e714713fcd998cc81257f176720f921b1af9edc0bfd726b91ee9d8abe346"),
    ((16, 6, 3, 2), (2, 12), 0, "partition, scalar steps",
     "946c7cb17c1eaf3d0d035cc27b16b283c8ad9ff9d7dc521edbff8132f3645413"),
    ((13, 7, 3, 2), (1721,), 0, "frame, both kinds of step",
     "7e976b60dd131554a0640fc8a4ba299b476e928c67bf450ca3cfb12d44e801a1"),
    ((14, 8, 3, 2), (3433,), 0, "frame, both kinds of step",
     "c7c3fdb49d2db30bb6acb762fed2f79352b711179a259a741196f70fe0e37e25"),
    ((16, 7, 4, 3), (8009,), 0, "frame, both kinds of step",
     "509b4e252f72d58a2c1077f1867a90f8602ad9aa37f914fd70667057c65e08c9"),
    ((13, 5, 2, 2), (719,), 1, "frame, scalar steps",
     "e884392ab6cc302890c609336d34bef6cf64b64a1d41c73864e208ae6d7fddc8"),
    ((13, 7, 3, 2), (2, 12), 0, "frame, scalar steps",
     "b082f9385211177acec9c23e3cabe5dc6ac7876c578d489877dd48d1d70ebadf"),
    ((14, 5, 3, 2), (2, 10), 0, "frame, scalar steps",
     "8d4f3a94eae1dc5c8bd5f2aa10222f5e2de041c9d67301848535753750de0dbf"),
    ((13, 5, 2, 2), (2, 10), 0, "frame, scalar steps",
     "8d3de257b0303e4bbcb4d418ee592ed3f816409aaf0897c03761b4fa4a4f33a6"),
    # k <= 2: no pencils, and for k = 1 the one subset is the empty one
    ((6, 1, 1, 3), (7,), 0, "partition, k = 1",
     "f7332a641582fa347c15487214f6e94968e5805e212ba4b6df7ca1c9dcf1ee26"),
    ((6, 1, 1, 2), (2, 3), 0, "partition, k = 1",
     "ecc0922ffebe0dfe848ea519e245c6684690f8a8e8196318f25e20eff3c2a78f"),
    ((9, 2, 1, 3), (11,), 0, "partition, k = 2",
     "6a222a89726cbdd4cebb0326b767d99fef06c44f5e7b9398609a5950e49f3be4"),
]


@pytest.mark.parametrize("params, field, seed, kind, want", PINS,
                         ids=["-".join(map(str, p)) + "-GF" + "^".join(map(str, f)) + f"-s{s}"
                              for p, f, s, _, _ in PINS])
def test_generator_pinned(params, field, seed, kind, want):
    code = construct(CodeParams(*params), field_make(*field), seed=seed)
    assert generator_sha256(code) == want, kind

