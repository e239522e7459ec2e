"""Shannon entropy of byte strings.

The paper flags a sample as obfuscated when no known packer is identified
and its entropy exceeds 7.5 bits/byte (8.0 = uniform random), a threshold
chosen to be more conservative than prior packed-software detectors.
"""

import math

import numpy as np

#: Paper's obfuscation threshold (§IV-E).
OBFUSCATION_THRESHOLD = 7.5


__all__ = [
    "looks_obfuscated",
    "shannon_entropy",
]


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy in bits per byte; 0.0 for empty input."""
    if not data:
        return 0.0
    # Count with numpy, but sum the terms in first-occurrence order, the
    # order collections.Counter(data) yields them: float addition is not
    # associative, so any other order could move the last bit.
    _, first, counts = np.unique(np.frombuffer(data, dtype=np.uint8),
                                 return_index=True, return_counts=True)
    total = len(data)
    entropy = 0.0
    for count in counts[np.argsort(first)].tolist():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def looks_obfuscated(data: bytes, threshold: float = OBFUSCATION_THRESHOLD) -> bool:
    """True when entropy exceeds the obfuscation threshold."""
    return shannon_entropy(data) > threshold
