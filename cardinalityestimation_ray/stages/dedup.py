"""Vectorized dedup kernels: MinHash signatures, LSH banding, SimHash.

All kernels are numpy-vectorized over Arrow batches; per-doc Python only
appears in candidate *verification*, which operates on LSH buckets (tiny by
construction)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.text import char_ngram_hashes, row_ids, split_tokens
from ..sketches import hashing

_U64 = np.uint64
_MAX64 = np.iinfo(np.uint64).max


def _perm_seeds(num_perm: int, seed: int = 42) -> np.ndarray:
    return hashing.splitmix64(np.arange(seed, seed + num_perm, dtype=np.uint64))


def minhash_signatures(text: pa.Array, num_perm: int = 64, *,
                       ngram: int = 8, seed: int = 42) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash signature matrix over char n-gram
    shingles. Permutation i is the splitmix64 mix of (shingle_hash XOR
    seed_i); the min per doc per permutation is taken with a sort + reduceat
    (one sort for all permutations)."""
    h, parents = char_ngram_hashes(text, n=ngram)
    n = len(text)
    sig = np.full((n, num_perm), _MAX64, dtype=np.uint64)
    seeds = _perm_seeds(num_perm, seed)
    if len(h):
        order = np.argsort(parents, kind="stable")
        parents_s = parents[order]
        h_s = h[order]
        starts = np.r_[0, np.flatnonzero(np.diff(parents_s)) + 1]
        present = parents_s[starts]
        for i in range(num_perm):
            mixed = hashing.splitmix64(h_s ^ seeds[i])
            sig[present, i] = np.minimum.reduceat(mixed, starts)
    else:
        # a batch where EVERY doc is shorter than the shingle width must
        # still take the whole-text fallback below — the old early return
        # left the all-MAX64 sentinel, making all short docs mutual
        # duplicates and the signature a function of batch composition
        present = np.empty(0, dtype=np.int64)
    _fill_short_doc_signatures(sig, text, present, seeds)
    return sig


def _fill_short_doc_signatures(sig: np.ndarray, text: pa.Array,
                               present: np.ndarray, seeds: np.ndarray) -> None:
    """Docs shorter than the shingle width produce zero n-grams; left as the
    all-MAX64 sentinel they would collide in every LSH band and estimate
    Jaccard 1.0 against each other (round-1 ADVICE finding). Mirror
    :func:`exact_jaccard_char_ngrams`'s fallback — treat the whole string as
    its single shingle — so signature-based verification agrees with the
    exact kernel."""
    n = sig.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[present] = True
    missing = np.flatnonzero(~mask)
    if len(missing) == 0:
        return
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    whole = hashing.hash_arrow_binary(text.take(pa.array(missing)), "fnv1a_mix")
    for i in range(sig.shape[1]):
        sig[missing, i] = hashing.splitmix64(whole ^ seeds[i])


def band_hashes(sig: np.ndarray, num_bands: int) -> np.ndarray:
    """(n_docs, num_bands) uint64 band bucket hashes of a signature matrix."""
    n, num_perm = sig.shape
    if num_perm % num_bands:
        raise ValueError(f"num_perm {num_perm} not divisible by bands {num_bands}")
    r = num_perm // num_bands
    out = np.empty((n, num_bands), dtype=np.uint64)
    for b in range(num_bands):
        h = np.full(n, _U64(1469598103934665603))
        for j in range(b * r, (b + 1) * r):
            h = (h ^ sig[:, j]) * _U64(1099511628211)
        out[:, b] = hashing.splitmix64(h)
    return out


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """MinHash Jaccard estimate: fraction of agreeing signature slots."""
    return float(np.mean(sig_a == sig_b))


def exact_jaccard_char_ngrams(text_a: str, text_b: str, ngram: int = 8) -> float:
    """Exact Jaccard over char n-gram shingle sets (verification kernel)."""
    a = {text_a[i:i + ngram] for i in range(max(1, len(text_a) - ngram + 1))}
    b = {text_b[i:i + ngram] for i in range(max(1, len(text_b) - ngram + 1))}
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def word_ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact Jaccard over word n-gram shingles."""
    wa = text_a.split()
    wb = text_b.split()
    a = {tuple(wa[i:i + n]) for i in range(max(1, len(wa) - n + 1))}
    b = {tuple(wb[i:i + n]) for i in range(max(1, len(wb) - n + 1))}
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


#: word-gram fold multiplier (FNV-1a prime) and empty-doc sentinel gram —
#: two empty/whitespace-only docs must share exactly one gram (the scalar
#: kernels' whole-text-shingle fallback) and never match a real gram
#: except by 2^-64 hash chance
_GRAM_FOLD = _U64(0x100000001B3)
_EMPTY_GRAM = _U64(0x9E3779B97F4A7C15)


def _char_gram_hashes_unicode(text: str, n: int) -> np.ndarray:
    """CHARACTER n-gram hashes of one non-ascii string, same hash identity
    as the vectorized byte path: each gram's UTF-8 bytes through the
    identical polynomial + splitmix64, so an ascii gram shared between an
    ascii doc (byte path) and a non-ascii doc (this path) still matches.

    Vectorized for CJK-scale input (on CJK web text EVERY doc takes this
    path, so it cannot be a per-char Python loop): char-start byte offsets
    come from the UTF-8 continuation-bit mask, windows are grouped by
    byte length (<= 3n+1 classes) and each class hashes as one
    (windows x L) column sweep."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    starts = np.flatnonzero((b & 0xC0) != 0x80).astype(np.int64)
    n_chars = len(starts)
    if n_chars < n:
        return np.empty(0, dtype=np.uint64)
    ws = starts[: n_chars - n + 1]
    we = np.r_[starts[n:], len(b)]  # end byte = start of char i+n (or EOS)
    lens = we - ws
    out = np.empty(len(ws), dtype=np.uint64)
    base = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for L in np.unique(lens):
            idx = np.flatnonzero(lens == L)
            mat = b[ws[idx][:, None] + np.arange(int(L))[None, :]]
            h = np.zeros(len(idx), dtype=np.uint64)
            for j in range(int(L)):
                h *= base
                h += mat[:, j]
            out[idx] = h
    return hashing.splitmix64(out)


def doc_distinct_grams(texts, *, verify: str,
                       ngram: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc DISTINCT shingle-hash sets as CSR ``(grams, indptr)``.

    Batched replacement for the per-pair scalar kernels
    (:func:`exact_jaccard_char_ngrams` / :func:`word_ngram_jaccard`) —
    ``verify`` selects char n-grams of width ``ngram`` or word 3-grams
    (matching ``_text_sim``'s fixed word n). Shingle identity is a 64-bit
    hash, so two docs share a gram iff they share the shingle (modulo
    2^-64 collisions); pairwise Jaccard equals the scalar kernels
    bit-for-bit (property-tested on printable ascii, unit-tested on
    non-ascii). Char mode counts CHARACTERS like the scalar kernel: ascii
    docs take the vectorized byte path (bytes == chars), non-ascii docs a
    per-doc fallback hashing each char-gram's UTF-8 bytes with the same
    scheme. Word mode splits on Unicode whitespace like ``str.split()``
    (known divergence: U+001C..001F, which Python treats as whitespace
    but Unicode does not — not realistic token separators). Short/empty
    docs contribute ONE whole-text gram, mirroring the scalar kernels'
    ``max(1, ...)`` fallback — a short doc can only match another doc
    with the identical full text. Null/None texts raise TypeError (the
    scalar path raised too; nulls must be handled upstream).

    ``grams`` is sorted ascending within each doc's ``indptr`` slice.
    """
    import pyarrow.compute as pc

    if not isinstance(texts, pa.Array):
        texts = list(texts)
        for t in texts:
            if t is None or not isinstance(t, str):
                raise TypeError(
                    f"text values must be strings, got {type(t).__name__} "
                    f"(null texts must be filtered upstream)")
        arr = pa.array(texts, type=pa.string())
    else:
        arr = texts
        if arr.null_count:
            raise TypeError("null texts must be filtered upstream")
    n_docs = len(arr)
    if verify == "char_ngram":
        nchars = pc.utf8_length(arr).to_numpy(zero_copy_only=False)
        nbytes = pc.binary_length(arr).to_numpy(zero_copy_only=False)
        nonascii = nbytes != nchars
        if nonascii.any():
            # mask ALL non-ascii docs out of the byte path (blanked to ""
            # they emit no byte-grams — a short non-ascii doc can still
            # have nbytes >= ngram); long ones get per-doc char-space grams
            ascii_arr = pc.if_else(pa.array(~nonascii), arr, pa.scalar(""))
            h, parents = char_ngram_hashes(ascii_arr, n=ngram)
            extra_h = []
            extra_p = []
            for d in np.flatnonzero(nonascii & (nchars >= ngram)):
                gh = _char_gram_hashes_unicode(str(arr[d]), ngram)
                extra_h.append(gh)
                extra_p.append(np.full(len(gh), d, dtype=np.int64))
            h = np.concatenate([h] + extra_h)
            parents = np.concatenate([parents] + extra_p)
        else:
            h, parents = char_ngram_hashes(arr, n=ngram)
        short = np.flatnonzero(nchars < ngram)
        if len(short):
            whole = hashing.splitmix64(hashing.hash_arrow_binary(
                arr.take(pa.array(short)), "fnv1a_mix"))
            h = np.concatenate([h, whole])
            parents = np.concatenate([parents, short.astype(np.int64)])
    elif verify == "word_ngram":
        n = 3  # _text_sim calls word_ngram_jaccard with its default n
        flat, offsets = split_tokens(pc.utf8_split_whitespace(arr))
        th = hashing.hash_arrow_binary(flat, "fnv1a_mix").astype(np.uint64)
        pr = row_ids(offsets)
        n_tok = np.diff(offsets)
        h_parts: list[np.ndarray] = []
        p_parts: list[np.ndarray] = []
        if len(th) >= n:
            with np.errstate(over="ignore"):
                g = th[: len(th) - n + 1].copy()
                for off in range(1, n):
                    g *= _GRAM_FOLD
                    g ^= th[off: len(th) - n + 1 + off]
            same_doc = pr[: len(pr) - n + 1] == pr[n - 1:]
            h_parts.append(g[same_doc])
            p_parts.append(pr[: len(pr) - n + 1][same_doc])
        # short docs: ONE gram folding ALL their tokens (1 <= n_tok < n),
        # one vectorized fold per length class (n is tiny)
        tok_start = offsets[:-1]
        for length in range(1, n):
            docs_l = np.flatnonzero(n_tok == length)
            if len(docs_l) == 0:
                continue
            with np.errstate(over="ignore"):
                g = th[tok_start[docs_l]].copy()
                for off in range(1, length):
                    g *= _GRAM_FOLD
                    g ^= th[tok_start[docs_l] + off]
            h_parts.append(g)
            p_parts.append(docs_l.astype(np.int64))
        empty = np.flatnonzero(n_tok == 0)
        if len(empty):
            h_parts.append(np.full(len(empty), _EMPTY_GRAM))
            p_parts.append(empty.astype(np.int64))
        h = (np.concatenate(h_parts) if h_parts
             else np.empty(0, dtype=np.uint64))
        parents = (np.concatenate(p_parts) if p_parts
                   else np.empty(0, dtype=np.int64))
    else:
        raise ValueError(f"unknown verify kind {verify!r}")

    if len(h) == 0:
        return (np.empty(0, dtype=np.uint64),
                np.zeros(n_docs + 1, dtype=np.int64))
    order = np.lexsort((h, parents))
    h = h[order]
    parents = parents[order]
    distinct = np.r_[True, (h[1:] != h[:-1]) | (parents[1:] != parents[:-1])]
    h = h[distinct]
    parents = parents[distinct]
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(parents, minlength=n_docs), out=indptr[1:])
    return h, indptr


def batched_pair_jaccard(grams: np.ndarray, indptr: np.ndarray,
                         ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Exact Jaccard for candidate doc pairs ``(ii[k], jj[k])`` over CSR
    gram sets from :func:`doc_distinct_grams` — fully vectorized, no
    per-pair Python (round-3 verdict item #3).

    Shape: gather both sides' gram rows tagged with the pair index, one
    lexsort, count adjacent (pair, gram) duplicates — each side's grams are
    distinct within a doc, so a duplicate IS an intersection element. Work
    and memory are O(sum of pair set sizes), the same total the scalar
    per-pair loop touched, minus the interpreter.
    """
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    if len(ii) == 0:
        return np.empty(0, dtype=np.float64)

    # dictionary-encode the (deduped-per-doc) gram hashes ONCE on the
    # CSR (doc-level rows), so the per-pair gathers below move small int64
    # codes and the (pair, gram) key packs into ONE int64 — a single-key
    # np.sort is ~2x a two-key lexsort on the u64 hashes, and the encode
    # cost is O(total grams), not O(total pair rows). This stage is
    # sort/bandwidth-bound on long docs (CJK-scale profiling).
    uniq = np.unique(grams)
    code_csr = np.searchsorted(uniq, grams)
    n_codes = np.int64(len(uniq) + 1)

    def take(docs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cnt = indptr[docs + 1] - indptr[docs]
        tot = int(cnt.sum())
        idx = (np.arange(tot)
               - np.repeat(np.cumsum(cnt) - cnt, cnt)
               + np.repeat(indptr[docs], cnt))
        pid = np.repeat(np.arange(len(docs), dtype=np.int64), cnt)
        return code_csr[idx], pid, cnt

    va, pia, ca = take(ii)
    vb, pib, cb = take(jj)
    codes = np.concatenate([va, vb])
    pids = np.concatenate([pia, pib])
    if len(ii) * int(n_codes) < (1 << 62):
        key = pids * n_codes + codes
        key.sort()
        dup = key[1:] == key[:-1]
        dup_pids = key[1:][dup] // n_codes
    else:  # overflow guard: fall back to the two-key sort
        order = np.lexsort((codes, pids))
        v = codes[order]
        p = pids[order]
        dup = (v[1:] == v[:-1]) & (p[1:] == p[:-1])
        dup_pids = p[1:][dup]
    inter = np.bincount(dup_pids, minlength=len(ii)).astype(np.int64)
    union = ca + cb - inter
    # every doc holds >= 1 gram (whole-text fallback), so union >= 1
    return inter / union


def simhash64(text: pa.Array, *, ngram: int = 4, chunk: int = 1 << 16) -> np.ndarray:
    """64-bit SimHash per string over char n-gram features.

    Bit j of the output is the sign of the sum over features of
    (+1 if feature-hash bit j else -1); near-duplicate texts land within a
    small Hamming distance. Vectorized: unpack feature-hash bits to a
    (features, 64) matrix in chunks, scatter-add per doc.
    """
    h, parents = char_ngram_hashes(text, n=ngram)
    n = len(text)
    votes = np.zeros((n, 64), dtype=np.int32)
    for lo in range(0, len(h), chunk):
        hh = h[lo:lo + chunk]
        pp = parents[lo:lo + chunk]
        bits = np.unpackbits(
            hh.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        ).astype(np.int32)  # (chunk, 64)
        np.add.at(votes, pp, 2 * bits - 1)
    bools = (votes > 0)
    packed = np.packbits(bools, axis=1, bitorder="little")
    out = packed.view(np.uint64).ravel()
    # docs with ZERO n-gram features (shorter than the shingle width) have
    # all-zero votes and would all collapse to hash 0 — every distinct
    # short doc a mutual "exact duplicate" at hamming 0. Fall back to the
    # whole text as the single feature (the simhash of one feature IS that
    # feature's hash), mirroring minhash's _fill_short_doc_signatures and
    # the exact kernels' whole-text-shingle fallback: identical short texts
    # still collide at hamming 0, distinct ones sit ~32 bits apart.
    has_grams = np.zeros(n, dtype=bool)
    has_grams[parents] = True
    missing = np.flatnonzero(~has_grams)
    if len(missing):
        t = text
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        out[missing] = hashing.hash_arrow_binary(
            t.take(pa.array(missing)), "fnv1a_mix")
    return out


def hamming_distance_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 arrays (SWAR popcount)."""
    x = (a ^ b).astype(np.uint64)
    m1 = _U64(0x5555555555555555)
    m2 = _U64(0x3333333333333333)
    m4 = _U64(0x0F0F0F0F0F0F0F0F)
    h01 = _U64(0x0101010101010101)
    x = x - ((x >> _U64(1)) & m1)
    x = (x & m2) + ((x >> _U64(2)) & m2)
    x = (x + (x >> _U64(4))) & m4
    return ((x * h01) >> _U64(56)).astype(np.int64)


def collapse_identical_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group identical rows of a (k, p) matrix.

    Returns ``(order, starts, counts)``: ``order`` is a stable lexicographic
    permutation of row indices, ``starts[i]:starts[i]+counts[i]`` slices
    ``order`` into the i-th identical-row group. Stability means the FIRST
    element of each group slice is the earliest original row (= the min-id
    member when rows arrive id-sorted), which callers use as the group
    representative.
    """
    if mat.ndim == 1:
        mat = mat[:, None]
    order = np.lexsort(mat.T[::-1]).astype(np.int64)
    ss = mat[order]
    if len(ss) == 0:
        return order, np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.any(ss[1:] != ss[:-1], axis=1)
    starts = np.r_[0, np.flatnonzero(change) + 1].astype(np.int64)
    counts = np.diff(np.r_[starts, len(ss)]).astype(np.int64)
    return order, starts, counts


def pairwise_candidates_est(U: np.ndarray, min_est: float,
                            row_chunk: int = 128
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All upper-triangle pairs (i, j, est) of a unique-signature matrix
    ``U`` (m, p) with MinHash Jaccard estimate >= min_est. Chunked over rows
    so peak memory is row_chunk × m × p bool."""
    m = U.shape[0]
    ii_out: list[np.ndarray] = []
    jj_out: list[np.ndarray] = []
    est_out: list[np.ndarray] = []
    col = np.arange(m)
    for lo in range(0, m, row_chunk):
        hi = min(lo + row_chunk, m)
        est = (U[lo:hi, None, :] == U[None, :, :]).mean(axis=2)
        keep = (est >= min_est) & (col[None, :] > np.arange(lo, hi)[:, None])
        ci, cj = np.nonzero(keep)
        ii_out.append(ci + lo)
        jj_out.append(cj)
        est_out.append(est[ci, cj])
    return (np.concatenate(ii_out) if ii_out else np.empty(0, np.int64),
            np.concatenate(jj_out) if jj_out else np.empty(0, np.int64),
            np.concatenate(est_out) if est_out else np.empty(0))


def windowed_candidates_est(U: np.ndarray, min_est: float, window: int
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degenerate-bucket cap: sort unique signatures by their first
    component and compare each row only against its next ``window``
    neighbors — O(m·window) instead of O(m²). Near-identical signatures sort
    adjacently, so recall for true near-dups survives; union-find downstream
    restores full clusters through chain connectivity."""
    m = U.shape[0]
    order = np.argsort(U[:, 0], kind="stable")
    Us = U[order]
    ii_out, jj_out, est_out = [], [], []
    for off in range(1, min(window, m - 1) + 1):
        est = (Us[:-off] == Us[off:]).mean(axis=1)
        keep = np.flatnonzero(est >= min_est)
        ii_out.append(order[keep])
        jj_out.append(order[keep + off])
        est_out.append(est[keep])
    if not ii_out:
        return (np.empty(0, np.int64),) * 2 + (np.empty(0),)
    return (np.concatenate(ii_out), np.concatenate(jj_out),
            np.concatenate(est_out))


def pairwise_candidates_hamming(h: np.ndarray, max_d: int,
                                row_chunk: int = 512
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pairs (i, j, dist) of a uint64 SimHash array with
    Hamming distance <= max_d, chunked broadcast + SWAR popcount."""
    m = len(h)
    ii_out, jj_out, d_out = [], [], []
    col = np.arange(m)
    for lo in range(0, m, row_chunk):
        hi = min(lo + row_chunk, m)
        d = hamming_distance_u64(
            np.repeat(h[lo:hi], m).reshape(-1),
            np.tile(h, hi - lo)).reshape(hi - lo, m)
        keep = (d <= max_d) & (col[None, :] > np.arange(lo, hi)[:, None])
        ci, cj = np.nonzero(keep)
        ii_out.append(ci + lo)
        jj_out.append(cj)
        d_out.append(d[ci, cj])
    return (np.concatenate(ii_out) if ii_out else np.empty(0, np.int64),
            np.concatenate(jj_out) if jj_out else np.empty(0, np.int64),
            np.concatenate(d_out) if d_out else np.empty(0, np.int64))


def windowed_candidates_hamming(h: np.ndarray, max_d: int, window: int
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degenerate-bucket cap for SimHash: sort by the full 64-bit hash and
    compare each entry against its next ``window`` neighbors (numerically
    close hashes share high bits, so low-Hamming pairs sort nearby)."""
    m = len(h)
    order = np.argsort(h, kind="stable")
    hs = h[order]
    ii_out, jj_out, d_out = [], [], []
    for off in range(1, min(window, m - 1) + 1):
        d = hamming_distance_u64(hs[:-off], hs[off:])
        keep = np.flatnonzero(d <= max_d)
        ii_out.append(order[keep])
        jj_out.append(order[keep + off])
        d_out.append(d[keep])
    if not ii_out:
        return (np.empty(0, np.int64),) * 3
    return (np.concatenate(ii_out), np.concatenate(jj_out),
            np.concatenate(d_out))


def simhash_bands(sim: np.ndarray, num_bands: int = 4) -> np.ndarray:
    """(n, num_bands) band keys: 64/num_bands-bit slices. Two hashes within
    Hamming distance < num_bands share at least one identical band
    (pigeonhole), so banding is a lossless candidate generator for
    distance <= num_bands - 1."""
    width = 64 // num_bands
    mask = _U64((1 << width) - 1)
    return np.stack(
        [(sim >> _U64(b * width)) & mask for b in range(num_bands)], axis=1)
