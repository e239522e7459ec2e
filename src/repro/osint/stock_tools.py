"""Catalog of stock mining software (Table IX).

The paper collects ~1K binaries of known mining tools from 13 frameworks
(xmrig, claymore, niceHash, ...), white-lists their hashes so they are
not counted as malware, extracts their donation wallets (14 white-listed
wallets), and attributes campaign drops to them via fuzzy hashing with a
<= 0.1 distance threshold.

Here each framework owns a seeded 4 KiB code base; consecutive versions
apply small cumulative byte patches, so adjacent versions are
fuzzy-similar while frameworks are mutually dissimilar.  Actor *forks*
(e.g. donation capability removed — §III-E) are additional small
mutations and stay within the match threshold of their origin version.
"""

import datetime
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.binfmt.codegen import pseudo_code
from repro.binfmt.format import ExecutableKind, build_binary
from repro.common.rng import DeterministicRNG
from repro.common.simtime import Date
from repro.fuzzyhash.ctph import FuzzyHash
from repro.perf.cache import cached_ctph
from repro.wallets.addresses import WalletFactory


@dataclass(frozen=True)
class _FrameworkSpec:
    name: str
    first_release: Date
    num_versions: int
    donation_wallets: int         # how many developer wallets it ships
    platforms: Tuple[str, ...] = ("win64", "linux64")
    release_cadence_days: int = 30


#: The 13 frameworks; version counts follow Table IX where stated.
TOOL_FRAMEWORKS: List[_FrameworkSpec] = [
    _FrameworkSpec("xmrig", datetime.date(2017, 4, 1), 59, 2),
    _FrameworkSpec("claymore", datetime.date(2014, 7, 1), 14, 1),
    _FrameworkSpec("niceHash", datetime.date(2014, 10, 1), 11, 1),
    _FrameworkSpec("learnMiner", datetime.date(2017, 9, 1), 2, 1),
    _FrameworkSpec("ccminer", datetime.date(2014, 5, 1), 1, 0),
    _FrameworkSpec("xmr-stak", datetime.date(2017, 1, 1), 25, 2),
    _FrameworkSpec("cast-xmr", datetime.date(2017, 10, 1), 5, 1),
    _FrameworkSpec("jceMiner", datetime.date(2018, 1, 1), 6, 1),
    _FrameworkSpec("srbMiner", datetime.date(2018, 2, 1), 8, 1),
    _FrameworkSpec("yam", datetime.date(2014, 9, 1), 4, 1),
    _FrameworkSpec("cpuminer-multi", datetime.date(2014, 6, 1), 10, 1),
    _FrameworkSpec("cgminer", datetime.date(2012, 1, 1), 12, 1),
    _FrameworkSpec("bfgminer", datetime.date(2012, 6, 1), 9, 1),
]

_CODE_SIZE = 4096
_PATCH_BYTES = 8


@dataclass
class ToolBinary:
    """One released build of a stock mining tool."""

    framework: str
    version: str
    version_index: int
    platform: str
    release_date: Date
    raw: bytes
    sha256: str
    donation_wallet: Optional[str]

    _fuzzy: Optional[FuzzyHash] = None

    @property
    def fuzzy(self) -> FuzzyHash:
        if self._fuzzy is None:
            # content-memoised, so catalog rebuilds over the same
            # builds share one CTPH per binary.
            self._fuzzy = cached_ctph(self.raw)
        return self._fuzzy


class StockToolCatalog:
    """All known stock-tool builds, with whitelists and fuzzy matching."""

    def __init__(self, rng: DeterministicRNG,
                 frameworks: Optional[Sequence[_FrameworkSpec]] = None) -> None:
        self._rng = rng.substream("stock-tools")
        self._wallet_factory = WalletFactory(self._rng.substream("donations"))
        self._frameworks = list(frameworks if frameworks is not None
                                else TOOL_FRAMEWORKS)
        self._binaries: List[ToolBinary] = []
        self._by_hash: Dict[str, ToolBinary] = {}
        self._donation_wallets: Dict[str, List[str]] = {}
        self._build_catalog()

    # -- construction ------------------------------------------------------

    def _build_catalog(self) -> None:
        for spec in self._frameworks:
            code_rng = self._rng.substream(f"code:{spec.name}")
            base_code = bytearray(pseudo_code(code_rng, _CODE_SIZE))
            wallets = [
                self._wallet_factory.new_address("XMR")
                for _ in range(spec.donation_wallets)
            ]
            self._donation_wallets[spec.name] = wallets
            code = bytearray(base_code)
            for version_index in range(spec.num_versions):
                # Cumulative small patch: adjacent versions stay similar.
                patch_rng = self._rng.substream(
                    f"patch:{spec.name}:{version_index}")
                # One contiguous patch region per version: release diffs
                # are localised, which keeps adjacent versions within the
                # fuzzy-match threshold, as with real tool releases.
                pos = patch_rng.randint(0, _CODE_SIZE - _PATCH_BYTES - 1)
                code[pos:pos + _PATCH_BYTES] = patch_rng.randbytes(_PATCH_BYTES)
                version = self._version_string(spec, version_index)
                release = spec.first_release + datetime.timedelta(
                    days=version_index * self._cadence(spec))
                for platform in spec.platforms:
                    binary = self._build_binary(
                        spec, version, version_index, platform, release,
                        bytes(code), wallets,
                    )
                    self._binaries.append(binary)
                    self._by_hash[binary.sha256] = binary

    @staticmethod
    def _cadence(spec: _FrameworkSpec) -> int:
        """Release cadence clamped so the series ends inside the window."""
        window_end = datetime.date(2019, 4, 30)
        available = max(1, (window_end - spec.first_release).days)
        if spec.num_versions <= 1:
            return spec.release_cadence_days
        fit = max(1, available // (spec.num_versions - 1))
        return min(spec.release_cadence_days, fit)

    @staticmethod
    def _version_string(spec: _FrameworkSpec, index: int) -> str:
        major = 1 + index // 20
        minor = (index // 5) % 4
        patch = index % 5
        return f"{major}.{minor}.{patch}"

    def _build_binary(self, spec: _FrameworkSpec, version: str,
                      version_index: int, platform: str, release: Date,
                      code: bytes, wallets: List[str]) -> ToolBinary:
        kind = ExecutableKind.ELF if "linux" in platform else ExecutableKind.PE
        donation = wallets[version_index % len(wallets)] if wallets else None
        strings = [
            f"{spec.name} {version} ({platform})",
            "stratum+tcp://",
            "--donate-level",
            "Usage: -o <pool> -u <wallet> -p <pass>",
        ]
        if donation:
            strings.append(f"donate: {donation}")
        raw = build_binary(kind, code=code, strings=strings)
        return ToolBinary(
            framework=spec.name,
            version=version,
            version_index=version_index,
            platform=platform,
            release_date=release,
            raw=raw,
            sha256=hashlib.sha256(raw).hexdigest(),
            donation_wallet=donation,
        )

    # -- queries -------------------------------------------------------------

    def binaries(self) -> List[ToolBinary]:
        """Every catalogued tool build."""
        return list(self._binaries)

    def __len__(self) -> int:
        return len(self._binaries)

    def frameworks(self) -> List[str]:
        """Names of the 13 mining frameworks."""
        return [spec.name for spec in self._frameworks]

    def whitelist_hashes(self) -> Set[str]:
        """SHA-256 whitelist: these binaries are tools, not malware."""
        return set(self._by_hash)

    def donation_wallets(self) -> Set[str]:
        """The donation-wallet whitelist (14 wallets in the paper)."""
        return {
            wallet
            for wallets in self._donation_wallets.values()
            for wallet in wallets
        }

    def by_hash(self, sha256: str) -> Optional[ToolBinary]:
        """The build with this SHA-256, or None."""
        return self._by_hash.get(sha256)

    def size_range(self) -> Tuple[int, int]:
        """Byte-size envelope ``(min // 2, max * 2)`` of catalog builds.

        Fuzzy attribution only pays off for binaries in the size
        neighbourhood of real tool builds; CTPH cannot score inputs
        whose block sizes are more than one octave apart anyway.
        """
        if not hasattr(self, "_size_range"):
            sizes = [len(b.raw) for b in self._binaries]
            self._size_range = ((min(sizes) // 2, max(sizes) * 2)
                                if sizes else (0, 0))
        return self._size_range

    def latest_version(self, framework: str,
                       as_of: Optional[Date] = None) -> Optional[ToolBinary]:
        """Newest build of ``framework`` released on or before ``as_of``."""
        candidates = [
            b for b in self._binaries
            if b.framework == framework
            and (as_of is None or b.release_date <= as_of)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda b: (b.version_index, b.platform))

    # -- fuzzy attribution ----------------------------------------------------

    def fork_tool(self, tool: ToolBinary, rng: DeterministicRNG,
                  strip_donation: bool = True) -> bytes:
        """Produce an actor fork of a stock tool (minor modifications).

        Mirrors the forks the paper observes: donation capability removed
        or small feature patches, close enough that fuzzy hashing still
        attributes the binary to the framework.
        """
        raw = bytearray(tool.raw)
        if strip_donation and tool.donation_wallet:
            needle = tool.donation_wallet.encode("ascii")
            idx = raw.find(needle)
            if idx >= 0:
                raw[idx:idx + len(needle)] = b"X" * len(needle)
        pos = rng.randint(len(raw) // 2, len(raw) - 5)
        raw[pos:pos + 4] = rng.randbytes(4)
        return bytes(raw)

    def _fuzzy_index(self):
        """blocksize -> ``(entries, postings)`` over both signature
        octaves, built lazily on first fuzzy lookup.

        ``entries`` is ``[(signature, grams, tool)]`` in catalog order;
        ``postings`` maps each 7-gram to the ascending positions of the
        entries whose signature contains it.
        """
        from repro.fuzzyhash.ctph import signature_grams
        if not hasattr(self, "_fh_index"):
            index: Dict[int, Tuple[list, Dict[str, List[int]]]] = {}
            for binary in self._binaries:
                fh = binary.fuzzy
                for blocksize, signature in (
                        (fh.blocksize, fh.signature),
                        (fh.blocksize * 2, fh.double_signature)):
                    entries, postings = index.setdefault(blocksize, ([], {}))
                    grams = signature_grams(signature)
                    for gram in grams:
                        postings.setdefault(gram, []).append(len(entries))
                    entries.append((signature, grams, binary))
            self._fh_index = index
        return self._fh_index

    def match(self, candidate: FuzzyHash, threshold: float = 0.1
              ) -> Optional[Tuple[ToolBinary, float]]:
        """Attribute a probe, given by its CTPH, to the closest stock tool.

        The probe's CTPH is compared against an index of catalog
        signatures (same or adjacent block size, common-gram prefilter,
        then edit distance).  Only entries that share a 7-gram with the
        probe are scored, in catalog order: every other entry scores 0,
        which no ``threshold`` below 1.0 accepts.  Returns (tool,
        distance) within ``threshold``, or None.  Exact SHA-256 hits are
        :meth:`by_hash`'s, which a caller looks up first.
        """
        from repro.fuzzyhash.ctph import score_with_grams, signature_grams
        if threshold >= 1.0:
            raise ValueError("threshold must be below 1.0 (no similarity)")
        index = self._fuzzy_index()
        probes = [
            (candidate.blocksize, candidate.signature),
            (candidate.blocksize * 2, candidate.double_signature),
        ]
        best: Optional[Tuple[ToolBinary, float]] = None
        for blocksize, signature in probes:
            grams = signature_grams(signature)
            if not grams or blocksize not in index:
                continue
            entries, postings = index[blocksize]
            positions: Set[int] = set()
            for gram in grams:
                positions.update(postings.get(gram, ()))
            for position in sorted(positions):
                cat_sig, cat_grams, binary = entries[position]
                score = score_with_grams(signature, grams, cat_sig,
                                         cat_grams, blocksize)
                dist = 1.0 - score / 100.0
                if dist <= threshold and (best is None or dist < best[1]):
                    best = (binary, dist)
        return best
