"""Data sources: random dense/sparse batches, stack-distance trace profiling
and synthesis with distribution adjustment, LRU hit-rate validation, and
Criteo-format ingestion.

Stack-distance convention: the top of the recency stack has depth 1; depth 0
means a first touch. Profiling therefore maps a trace to the ordered list of
unique accesses plus a distance histogram; generation replays that histogram,
restricted (renormalized) to the distances reachable so far.
"""

from __future__ import annotations

import gzip
import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dense import Matrix, RngStream
from .embedding import SparseBatch, offsets_from_lengths

__all__ = [
    "RandomDataSpec",
    "TraceProfile",
    "CriteoSample",
    "gen_dense_batch",
    "gen_sparse_batch",
    "profile_trace",
    "TraceGenerator",
    "generate_trace",
    "adjust_distribution",
    "default_first_touch_floor",
    "lru_hit_rate",
    "save_profile",
    "load_profile",
    "parse_criteo",
    "read_criteo",
    "CriteoFormatError",
]


# ---------------------------------------------------------------------------
# random mode

@dataclass
class RandomDataSpec:
    """Shape of one generated mini-batch stream."""

    batch_size: int
    dense_dim: int
    table_sizes: list[int]          # rows m per table
    indices_per_lookup: int         # k
    indices_fixed: bool = False     # exactly k, else uniform in [1, k]

    def __post_init__(self):
        if self.batch_size < 1 or self.dense_dim < 1:
            raise ValueError("batch size and dense dim must be positive")
        if self.indices_per_lookup < 1:
            raise ValueError("indices per lookup must be positive")
        for m in self.table_sizes:
            if self.indices_per_lookup > m:
                raise ValueError(
                    f"indices per lookup {self.indices_per_lookup} exceeds "
                    f"table size {m}"
                )


def gen_dense_batch(spec: RandomDataSpec, stream: RngStream) -> Matrix:
    """Dense features uniform on [0, 1)."""
    return stream.uniform(spec.batch_size, spec.dense_dim)


def gen_sparse_batch(spec: RandomDataSpec, table_index: int,
                     stream: RngStream) -> SparseBatch:
    """Per sample: k indices (fixed mode) or uniform-in-[1,k] many, each
    uniform over [0, m). Draw order is sample-major (length, then indices)."""
    m = spec.table_sizes[table_index]
    k = spec.indices_per_lookup
    if spec.indices_fixed:
        lengths = np.full(spec.batch_size, k, dtype=np.int64)
        indices = stream.integers(0, m, size=int(lengths.sum()))
    else:
        lengths = np.empty(spec.batch_size, dtype=np.int64)
        chunks = []
        for j in range(spec.batch_size):
            n = int(stream.integers(1, k + 1, size=()))
            lengths[j] = n
            chunks.append(stream.integers(0, m, size=n))
        indices = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    return SparseBatch(offsets_from_lengths(lengths), indices)


# ---------------------------------------------------------------------------
# stack-distance profiling (trace -> profile)

@dataclass
class TraceProfile:
    """Ordered unique accesses plus the stack-distance distribution.

    probabilities maps distance d (0 = first touch) to mass; each mass lies
    in [0, 1] and they sum to 1 within 1e-12 for a nonempty trace.
    """

    uniques: list[int]
    probabilities: dict[int, float]

    def validate(self):
        for d, mass in self.probabilities.items():
            # false for NaN; the upper bound also keeps fsum from overflowing
            if not 0.0 <= mass <= 1.0:
                raise ValueError(
                    f"distance {d} has mass {mass!r}, outside [0, 1]")
        if self.probabilities:
            total = math.fsum(self.probabilities.values())
            if not abs(total - 1.0) <= 1e-12:   # a NaN total fails too
                raise ValueError(f"distance masses sum to {total}, not 1")
        if any(d < 0 for d in self.probabilities):
            raise ValueError("distances must be nonnegative")
        if self.probabilities and max(self.probabilities) > len(self.uniques):
            raise ValueError("distance support exceeds unique count")


def profile_trace(tr) -> TraceProfile:
    """LRU-stack profile of an access trace, in O(n log n) time.

    First touches record distance 0 and append to the unique list; a repeat
    found at depth d (top = 1) records d and moves to the top. The depth of
    an id last accessed at time p is 1 plus the number of distinct ids
    accessed since, counted as the ids whose latest access lies after p: a
    Fenwick tree over access times keeps one mark at each id's latest access
    (Bennett & Kruskal 1975).
    """
    tr = [int(a) for a in tr]
    n = len(tr)
    tree = [0] * (n + 1)        # Fenwick tree over access times 1..n
    latest: dict[int, int] = {}  # access id -> time of its latest access
    uniques: list[int] = []
    counts: dict[int, int] = {}
    for t, a in enumerate(tr, start=1):
        p = latest.get(a)
        if p is None:
            d = 0
            uniques.append(a)
        else:
            marked = 0          # marks at times 1..p
            i = p
            while i:
                marked += tree[i]
                i &= i - 1
            d = len(latest) - marked + 1
            i = p
            while i <= n:
                tree[i] -= 1
                i += i & -i
        i = t
        while i <= n:
            tree[i] += 1
            i += i & -i
        latest[a] = t
        counts[d] = counts.get(d, 0) + 1
    probabilities = {d: c / n for d, c in sorted(counts.items())} if n else {}
    return TraceProfile(uniques, probabilities)


# ---------------------------------------------------------------------------
# synthesis (profile -> trace)

class TraceGenerator:
    """Stateful replay of a profile; supports streaming in chunks.

    Emission rule per event: sample a distance d from the profile restricted
    to the currently reachable support {0..seen} (renormalized); d == 0 pulls
    the next unseen unique in first-touch order, d > 0 re-emits the id at
    depth d of the recency stack of seen ids. Once every unique has been
    seen, distance 0 leaves the support.

    ``next(count)`` draws the chunk's ``count`` uniforms from the stream in
    one call before emitting, one per event in event order, so any split of
    a trace into chunks consumes the same draws.
    """

    def __init__(self, profile: TraceProfile, stream: RngStream):
        profile.validate()
        self.uniques: list[int] = list(profile.uniques)
        self.recency: list[int] = []    # seen ids, end = top of the stack
        self.stream = stream
        self.p0 = profile.probabilities.get(0, 0.0)
        self._dists = sorted(d for d in profile.probabilities if d > 0)
        self._cum = np.cumsum(
            [profile.probabilities[d] for d in self._dists]).tolist()

    def next(self, count: int) -> list[int]:
        uniques, recency, dists, cum = (self.uniques, self.recency,
                                        self._dists, self._cum)
        out = []
        for u in self.stream.uniform(1, count)[0].tolist():
            seen = len(recency)
            k = bisect_right(dists, seen)
            w0 = self.p0 if seen < len(uniques) else 0.0
            reach = cum[k - 1] if k else 0.0
            total = w0 + reach
            if total <= 0.0:
                raise RuntimeError(
                    "empty sampling support: no reachable distance has mass "
                    f"(seen={seen}, unseen={len(uniques) - seen})"
                )
            r = u * total
            if r < w0:
                a = uniques[seen]
            else:
                j = bisect_right(cum, r - w0, 0, k)
                a = recency.pop(-dists[min(j, k - 1)])
            recency.append(a)
            out.append(a)
        return out


def generate_trace(profile: TraceProfile, length: int,
                   stream: RngStream) -> list[int]:
    if length == 0:
        return []
    if not profile.uniques:
        raise ValueError("cannot generate from an empty profile")
    return TraceGenerator(profile, stream).next(length)


def adjust_distribution(profile: TraceProfile,
                        min_first_touch: float) -> TraceProfile:
    """Raise the first-touch mass to at least the floor, rescaling d > 0.

    p[0] <- max(p[0], floor); the d > 0 masses shrink by the complementary
    ratio so the distribution still sums to 1. Never decreases p[0].
    """
    if not 0.0 <= min_first_touch <= 1.0:
        raise ValueError("min_first_touch must lie in [0, 1]")
    p = profile.probabilities
    p0 = p.get(0, 0.0)
    if min_first_touch <= p0 or not p:
        return TraceProfile(list(profile.uniques), dict(p))
    rest = 1.0 - p0
    scale = (1.0 - min_first_touch) / rest if rest > 0.0 else 0.0
    out = {0: min_first_touch}
    for d, mass in p.items():
        if d != 0:
            out[d] = mass * scale
    return TraceProfile(list(profile.uniques), out)


def default_first_touch_floor(profile: TraceProfile, length: int) -> float:
    """Floor that consumes the uniques within roughly the first tenth of the
    generated trace; len(u)/length alone leaves the support restricted for
    nearly the whole run and visibly skews the synthetic distribution.

    Capped at 0.5 so repeat distances always keep sampling mass (a floor of
    1 would starve generation once every unique has been seen).
    """
    if length <= 0:
        return 0.0
    return min(0.5, 10.0 * len(profile.uniques) / length)


# ---------------------------------------------------------------------------
# cache validation

def lru_hit_rate(tr, capacity: int) -> float:
    """Fraction of accesses hitting a capacity-bounded LRU set."""
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    tr = list(tr)
    if not tr:
        return 0.0
    if capacity == 0:
        return 0.0
    slots: dict[int, None] = {}  # insertion-ordered; oldest first
    hits = 0
    for a in tr:
        a = int(a)
        if a in slots:
            hits += 1
            del slots[a]
        elif len(slots) == capacity:
            del slots[next(iter(slots))]
        slots[a] = None
    return hits / len(tr)


# ---------------------------------------------------------------------------
# profile serialization: line 1 = unique ids, then "d probability" lines

def save_profile(profile: TraceProfile, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(" ".join(str(u) for u in profile.uniques) + "\n")
        for d in sorted(profile.probabilities):
            f.write(f"{d} {profile.probabilities[d]!r}\n")


def load_profile(path) -> TraceProfile:
    with open(path, "r", encoding="ascii") as f:
        first = f.readline().rstrip("\n")
        uniques = [int(tok) for tok in first.split()] if first.strip() else []
        probabilities = {}
        for line in f:
            if not line.strip():
                continue
            d, mass = line.split()
            probabilities[int(d)] = float(mass)
    profile = TraceProfile(uniques, probabilities)
    profile.validate()
    return profile


# ---------------------------------------------------------------------------
# Criteo ingestion

NUM_DENSE = 13
NUM_CATEGORICAL = 26


class CriteoFormatError(ValueError):
    """Malformed record; message carries the 1-based line number."""


@dataclass
class CriteoSample:
    label: int
    dense: np.ndarray        # 13 log-transformed values
    categorical: np.ndarray  # 26 embedding indices


def _hash_token(token: str) -> int:
    # fixed cross-run 64-bit hash (blake2b, 8-byte digest, little-endian)
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def parse_criteo(line: str, vocab_sizes, lineno: int = 1) -> CriteoSample:
    """One tab-separated record: label, 13 integer fields, 26 tokens.

    Empty fields are legal: missing dense -> 0.0, missing categorical ->
    index 0, missing label -> 0. Dense values are clamped at 0 before the
    log(1 + x) transform; a non-finite one (nan, inf, 1e999) is an error.
    Categorical tokens hash onto [0, vocab) per table. Any malformed record
    raises CriteoFormatError naming the line and the field.
    """
    fields = line.rstrip("\n").split("\t")
    expected = 1 + NUM_DENSE + NUM_CATEGORICAL
    if len(fields) != expected:
        raise CriteoFormatError(
            f"line {lineno}: expected {expected} tab-separated fields, "
            f"got {len(fields)}"
        )
    if len(vocab_sizes) != NUM_CATEGORICAL:
        raise ValueError(
            f"need {NUM_CATEGORICAL} vocabulary sizes, got {len(vocab_sizes)}"
        )
    try:
        label = int(fields[0]) if fields[0] else 0
    except ValueError:
        raise CriteoFormatError(f"line {lineno}: unparsable label {fields[0]!r}")
    if label not in (0, 1):
        raise CriteoFormatError(f"line {lineno}: label must be 0 or 1")
    dense = np.zeros(NUM_DENSE)
    for i, tok in enumerate(fields[1:1 + NUM_DENSE]):
        if tok:
            try:
                value = float(tok)
            except ValueError:
                raise CriteoFormatError(
                    f"line {lineno}: unparsable dense field {i}: {tok!r}"
                )
            if not math.isfinite(value):
                raise CriteoFormatError(
                    f"line {lineno}: non-finite dense field {i}: {tok!r}"
                )
            dense[i] = math.log1p(max(value, 0.0))
    cat = np.zeros(NUM_CATEGORICAL, dtype=np.int64)
    for i, tok in enumerate(fields[1 + NUM_DENSE:]):
        if tok:
            try:
                cat[i] = _hash_token(tok) % int(vocab_sizes[i])
            except UnicodeEncodeError:
                raise CriteoFormatError(
                    f"line {lineno}: categorical field {i} is not valid "
                    f"UTF-8: {tok!r}"
                )
    return CriteoSample(label, dense, cat)


def read_criteo(path, vocab_sizes):
    """Yield CriteoSamples from a (optionally gzipped) tab-separated file."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                yield parse_criteo(line, vocab_sizes, lineno)
