"""Answer checks behind ``failed``: every returned top-k is validated
against the raw data, independently of the engine that produced it.

A query's answer is wrong when any of these fails:

- every returned id satisfies the query's template (the same match sets
  the exhaustive ground truth filters by);
- no id repeats;
- rows are ordered by ``(score, id)``;
- the length is ``min(k, #matches)`` at full probe; at a tuned nprobe it
  is at most that, since an IVF scan whose probed lists hold fewer than k
  matching tuples legitimately returns a short answer (counted by
  ``short_answers`` and, as missed neighbours, by recall);
- every score equals the score recomputed from the raw vectors, within a
  relative tolerance of ``SCORE_RTOL`` of the operands' magnitude (the
  engine's L2 uses the ``|q|^2 - 2 q.x + |x|^2`` expansion, so it is not
  bit-equal to the direct difference).
"""
from __future__ import annotations

import numpy as np

SCORE_RTOL = 1e-9


class AnswerChecker:
    """Precomputes each template's match set once per dataset."""

    def __init__(self, dataset, workload, k: int):
        self.k = k
        self.metric = dataset.metric
        self.vecs = dataset.vecs()
        ids = dataset.ids()
        self._id_order = np.argsort(ids, kind="stable")
        self._ids_sorted = ids[self._id_order]
        self._sqnorm = (self.vecs**2).sum(axis=1)
        tids = sorted(workload.templates)
        self._tidx = {t: i for i, t in enumerate(tids)}
        self.matches = np.stack([workload.templates[t].mask(dataset.pdf) for t in tids])
        self.n_matches = self.matches.sum(axis=1)

    def _rows_of(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.searchsorted(self._ids_sorted, ids)
        pos = np.minimum(pos, len(self._ids_sorted) - 1)
        found = self._ids_sorted[pos] == ids
        return self._id_order[pos], found

    def failed(self, result, workload, *, full_probe: bool) -> np.ndarray:
        """Boolean per query position of ``workload``: the answer is wrong."""
        return np.logical_or.reduce(
            list(self.check(result, workload, full_probe=full_probe).values())
        )

    def short_answers(self, result, workload) -> int:
        """Queries answered with fewer than ``min(k, #matches)`` ids."""
        lens = np.array([len(result.ids_by_qid.get(int(q), ())) for q in workload.qids])
        return int((lens < self._expected_len(workload)).sum())

    def _expected_len(self, workload) -> np.ndarray:
        tidx = np.array([self._tidx[int(t)] for t in workload.qtemplates])
        return np.minimum(self.k, self.n_matches[tidx])

    def check(
        self, result, workload, *, full_probe: bool, chunk: int = 1024
    ) -> dict[str, np.ndarray]:
        """Per check, a boolean per query position: the check failed."""
        k, nq = self.k, workload.nq
        bad = {
            name: np.zeros(nq, dtype=bool)
            for name in ("shape", "length", "template", "duplicate", "order", "score")
        }
        ids = np.full((nq, k), -1, dtype=np.int64)
        scores = np.full((nq, k), np.nan)
        lens = np.zeros(nq, dtype=np.int64)
        for p, qid in enumerate(workload.qids):
            r_ids = result.ids_by_qid.get(int(qid))
            r_sc = result.scores_by_qid.get(int(qid))
            if r_ids is None or r_sc is None or len(r_ids) != len(r_sc) or len(r_ids) > k:
                bad["shape"][p] = True
                continue
            lens[p] = len(r_ids)
            ids[p, : len(r_ids)] = r_ids
            scores[p, : len(r_sc)] = r_sc
        tidx = np.array([self._tidx[int(t)] for t in workload.qtemplates])
        expected = self._expected_len(workload)
        bad["length"] |= (lens != expected) if full_probe else (lens > expected)
        valid = np.arange(k)[None, :] < lens[:, None]

        rows, found = self._rows_of(ids)
        in_template = found & self.matches[tidx[:, None], rows]
        bad["template"] |= (valid & ~in_template).any(axis=1)

        # Duplicates: invalid slots get distinct negative fillers.
        filled = np.where(valid, ids, -1 - np.arange(k)[None, :])
        srt = np.sort(filled, axis=1)
        bad["duplicate"] |= (srt[:, 1:] == srt[:, :-1]).any(axis=1)

        both = valid[:, 1:]  # slot j+1 valid implies slot j valid
        s0, s1 = scores[:, :-1], scores[:, 1:]
        in_order = (s0 < s1) | ((s0 == s1) & (ids[:, :-1] < ids[:, 1:]))
        bad["order"] |= (both & ~in_order).any(axis=1)

        qv = workload.qvecs
        for start in range(0, nq, chunk):
            sl = slice(start, start + chunk)
            r = np.where(valid[sl], rows[sl], 0)
            x = self.vecs[r]  # (c, k, d)
            q = qv[sl][:, None, :]
            if self.metric == "l2":
                ref = ((q - x) ** 2).sum(axis=2)
                scale = (q**2).sum(axis=2) + self._sqnorm[r]
            else:
                ref = -(q * x).sum(axis=2)
                scale = np.sqrt((q**2).sum(axis=2) * self._sqnorm[r])
            off = np.abs(scores[sl] - ref) > SCORE_RTOL * np.maximum(scale, 1.0)
            bad["score"][sl] |= (valid[sl] & (off | np.isnan(scores[sl]))).any(axis=1)
        return bad


def mismatched(a, b, workload) -> np.ndarray:
    """Per query position: ids or scores of ``a`` and ``b`` differ in any
    bit (a query missing from either side counts as a difference)."""
    out = np.zeros(workload.nq, dtype=bool)
    for p, qid in enumerate(workload.qids):
        qid = int(qid)
        ia, ib = a.ids_by_qid.get(qid), b.ids_by_qid.get(qid)
        sa, sb = a.scores_by_qid.get(qid), b.scores_by_qid.get(qid)
        if ia is None or ib is None or sa is None or sb is None:
            out[p] = True
        else:
            out[p] = not np.array_equal(ia, ib) or (
                np.asarray(sa, np.float64).tobytes()
                != np.asarray(sb, np.float64).tobytes()
            )
    return out


def ids_mismatched(result, gt, workload) -> np.ndarray:
    """Per query position: the returned ids differ from the ground truth."""
    return np.array(
        [
            not np.array_equal(
                result.ids_by_qid.get(int(q), np.empty(0, np.int64)),
                gt.ids_by_qid[int(q)],
            )
            for q in workload.qids
        ],
        dtype=bool,
    )


def counters(result) -> dict[int, tuple[int, int]]:
    """Per-template (tuples_scanned, distance_computations)."""
    return {
        int(t): (s.tuples_scanned, s.distance_computations)
        for t, s in result.stats_by_tid.items()
    }
