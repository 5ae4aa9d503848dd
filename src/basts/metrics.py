"""Text-generation metrics: sentence/corpus BLEU, ROUGE-1/2/L, METEOR.

Everything operates on pre-tokenized word lists and is case-folded. The
METEOR here is exact-match only (no stem/synonym/paraphrase tables), so
its absolute values are not comparable to implementations that ship
those resources; the harmonic mean and fragmentation penalty follow the
standard formulation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields


def _fold(words) -> list[str]:
    return [w.lower() for w in words]


def _ngrams(words: list[str], n: int) -> Counter:
    return Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


def _clipped_overlap(hyp_grams: Counter, ref_grams: Counter) -> int:
    return sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())


def _bleu_counts(hyp: list[str], ref: list[str], max_n: int) -> tuple[list[int], list[int]]:
    """Clipped n-gram matches and hypothesis n-gram totals, orders 1..max_n."""
    matches, totals = [], []
    for n in range(1, max_n + 1):
        matches.append(_clipped_overlap(_ngrams(hyp, n), _ngrams(ref, n)))
        totals.append(max(len(hyp) - n + 1, 0))
    return matches, totals


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    return min(1.0, math.exp(1.0 - ref_len / hyp_len))


def sentence_bleu(hyp, ref, max_n: int = 4, smoothing: bool = True) -> float:
    """Sentence BLEU with brevity penalty and clipped n-gram precision.

    With smoothing on, whenever some order 2..max_n has zero matches the
    counts at those orders switch to (matches+1)/(total+1); unigram
    precision is never smoothed. An empty hypothesis scores 0.
    """
    hyp, ref = _fold(hyp), _fold(ref)
    if not hyp:
        return 0.0
    matches, totals = _bleu_counts(hyp, ref, max_n)
    smooth = smoothing and any(m == 0 for m in matches[1:])
    log_sum = 0.0
    for n, (m, t) in enumerate(zip(matches, totals), start=1):
        if smooth and n >= 2:
            p = (m + 1.0) / (t + 1.0)
        else:
            p = m / t if t else 0.0
        if p == 0.0:
            return 0.0
        log_sum += math.log(p)
    return _brevity_penalty(len(hyp), len(ref)) * math.exp(log_sum / max_n)


def corpus_bleu(pairs, max_n: int = 4) -> float:
    """BLEU over match/total counts pooled across the corpus, unsmoothed.

    Orders where the pooled corpus has no hypothesis n-grams at all are
    skipped, so short identical corpora still score 1. Lengths are summed
    for the brevity penalty.
    """
    if not pairs:
        raise ValueError("corpus_bleu needs at least one pair")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        hyp, ref = _fold(hyp), _fold(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        m, t = _bleu_counts(hyp, ref, max_n)
        matches = [a + b for a, b in zip(matches, m)]
        totals = [a + b for a, b in zip(totals, t)]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    levels = 0  # ends at 1 or more: a corpus with words has unigrams
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        levels += 1
        log_sum += math.log(m / t)
    return _brevity_penalty(hyp_len, ref_len) * math.exp(log_sum / levels)


def _f_score(recall: float, precision: float) -> float:
    if recall + precision == 0.0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


def rouge_n(hyp, ref, n: int) -> float:
    """N-gram overlap F score (clipped multiset overlap)."""
    hyp, ref = _fold(hyp), _fold(ref)
    hg, rg = _ngrams(hyp, n), _ngrams(ref, n)
    hyp_count, ref_count = sum(hg.values()), sum(rg.values())
    if hyp_count == 0 or ref_count == 0:
        return 0.0
    overlap = _clipped_overlap(hg, rg)
    return _f_score(overlap / ref_count, overlap / hyp_count)


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(hyp, ref) -> float:
    """Longest-common-subsequence F score over sequence lengths."""
    hyp, ref = _fold(hyp), _fold(ref)
    if not hyp or not ref:
        return 0.0
    lcs = _lcs_length(hyp, ref)
    return _f_score(lcs / len(ref), lcs / len(hyp))


def _align_fragments(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """Greedy longest-fragment unigram alignment.

    Repeatedly matches the longest common run of unmatched positions
    (ties: earliest in hyp, then ref), so total matches equal the
    per-word clipped count while contiguous runs stay together. Returns
    (matches, chunks).
    """
    hyp_free = [True] * len(hyp)
    ref_free = [True] * len(ref)
    matches = chunks = 0
    while True:
        best_len, best = 0, None
        for i in range(len(hyp)):
            if not hyp_free[i]:
                continue
            for j in range(len(ref)):
                if not ref_free[j] or hyp[i] != ref[j]:
                    continue
                length = 0
                while (
                    i + length < len(hyp)
                    and j + length < len(ref)
                    and hyp_free[i + length]
                    and ref_free[j + length]
                    and hyp[i + length] == ref[j + length]
                ):
                    length += 1
                if length > best_len:
                    best_len, best = length, (i, j)
        if best is None:
            return matches, chunks
        i, j = best
        for k in range(best_len):
            hyp_free[i + k] = ref_free[j + k] = False
        matches += best_len
        chunks += 1


def meteor_lite(hyp, ref) -> float:
    """Exact-match METEOR: recall-weighted harmonic mean with chunk penalty."""
    hyp, ref = _fold(hyp), _fold(ref)
    if not hyp or not ref:
        return 0.0
    matches, chunks = _align_fragments(hyp, ref)
    if matches == 0:
        return 0.0
    precision = matches / len(hyp)
    recall = matches / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


@dataclass
class EvalReport:
    """All scores in [0, 1]; the CLI prints them scaled by 100."""

    s_bleu: float
    c_bleu: float
    meteor: float
    rouge1_f: float
    rouge2_f: float
    rougeL_f: float

    def scaled(self) -> dict[str, float]:
        return {f.name: round(getattr(self, f.name) * 100.0, 2) for f in fields(self)}


def evaluate_corpus(pairs, bleu_smoothing: bool = True) -> EvalReport:
    """Score hypothesis/reference word-list pairs; means over the corpus."""
    if not pairs:
        raise ValueError("evaluate_corpus needs at least one pair")
    n = len(pairs)
    return EvalReport(
        s_bleu=sum(sentence_bleu(h, r, smoothing=bleu_smoothing) for h, r in pairs) / n,
        c_bleu=corpus_bleu(pairs),
        meteor=sum(meteor_lite(h, r) for h, r in pairs) / n,
        rouge1_f=sum(rouge_n(h, r, 1) for h, r in pairs) / n,
        rouge2_f=sum(rouge_n(h, r, 2) for h, r in pairs) / n,
        rougeL_f=sum(rouge_l(h, r) for h, r in pairs) / n,
    )
