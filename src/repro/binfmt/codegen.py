"""Low-entropy pseudo machine code for synthetic binaries.

Real executable code sits around 5.5-6.5 bits/byte of entropy; packed
or encrypted payloads approach 8.0, which is what the paper's entropy
heuristic (threshold 7.5) exploits.  Uniform random bytes would make
every *unpacked* synthetic binary look encrypted, so sample bodies are
generated here instead: opcode-like bytes drawn from a skewed alphabet
with repeated basic blocks, landing entropy in the real-code range.
"""

from typing import List

from repro.common.rng import DeterministicRNG

#: a compact "instruction set": common opcodes appear far more often.
_COMMON = bytes([0x8B, 0x89, 0xE8, 0x83, 0x48, 0x55, 0x5D, 0xC3,
                 0x90, 0x74, 0x75, 0x85, 0x31, 0x01, 0x00, 0xFF])
_RARE = bytes(range(0x40, 0x80))

_BLOCK = 24  # bytes per repeated basic block


def pseudo_code(rng: DeterministicRNG, size: int) -> bytes:
    """Generate ``size`` bytes of code-like, compressible content."""
    if size <= 0:
        return b""
    # This is the hottest loop of world generation (one call per sample
    # body), so the draws are inlined as the getrandbits rejection loops
    # random.Random.choice and randint run: choice(seq) is
    # seq[_randbelow(len(seq))], randint(1, 6) is 1 + _randbelow(6), and
    # _randbelow(n) draws getrandbits(n.bit_length()) until the value is
    # below n.  The random.Random calls and their order are unchanged, so
    # are the bytes and the RNG state afterwards.
    _random = rng._random.random
    _bits = rng._random.getrandbits
    # Build a small library of basic blocks, then emit them with reuse.
    library: List[bytes] = []
    for _ in range(max(4, size // (_BLOCK * 8))):
        block = bytearray(_BLOCK)
        for j in range(_BLOCK):
            if _random() < 0.8:
                r = _bits(5)            # choice(_COMMON): 16 opcodes
                while r >= 16:
                    r = _bits(5)
                block[j] = _COMMON[r]
            else:
                r = _bits(7)            # choice(_RARE): 64 opcodes
                while r >= 64:
                    r = _bits(7)
                block[j] = _RARE[r]
        library.append(bytes(block))
    n_blocks = len(library)
    k = n_blocks.bit_length()
    out = bytearray()
    while len(out) < size:
        r = _bits(k)                    # choice(library)
        while r >= n_blocks:
            r = _bits(k)
        out += library[r]
        if _random() < 0.3:
            r = _bits(3)                # randint(1, 6)
            while r >= 6:
                r = _bits(3)
            out += b"\x90" * (1 + r)  # nop sled padding
    return bytes(out[:size])
