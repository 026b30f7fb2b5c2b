package repro.select

import repro.sketch.SketchSet

/** Total order on (score, vertex) pairs used by every selector:
  * higher score wins, ties broken toward the smaller vertex id. A score
  * is the exact integer Σ_r δ_r of [[repro.sketch.SketchSet.marginal]]
  * (R × the paper's Marginal), so equal gains are equal keys with no
  * rounding. Using one strict total order everywhere makes CELF, P-tree
  * and Win-Tree select *identical* seed sets (the paper assumes no ties;
  * we make the assumption true by construction), which tests assert.
  */
object Key {
  @inline def better(s1: Long, id1: Int, s2: Long, id2: Int): Boolean =
    s1 > s2 || (s1 == s2 && id1 < id2)
}

/** Result of a full k-seed selection.
  *
  * @param seeds        selected seeds in selection order
  * @param evaluations  number of marginal-gain re-evaluations, each one
  *                     GetCenter `marginal` call (Tab. 5's metric; the
  *                     initial scoring of all n vertices is memoized during
  *                     sketch construction and not counted, matching the
  *                     paper's counts that are below n). Bulk refreshes are
  *                     not evaluations, so visits per evaluation stays the
  *                     Thm 3.1 metric.
  * @param structBytes  bytes of the priority structure itself
  * @param refreshes    rounds that recomputed every marginal in one
  *                     `SketchSet.refresh` pass (only Win-Tree does)
  */
final case class SelectionResult(seeds: Array[Int], evaluations: Long, structBytes: Long,
                                 refreshes: Int = 0)

/** A seed-selection strategy: repeatedly find arg-max marginal gain
  * (NextSeed) and commit it (MarkSeed) — the Step-2 loop of Alg. 1.
  * Implementations: [[CelfSelector]] (sequential baseline, Alg. 2),
  * [[PTreeSelector]] (Alg. 4), [[WinTreeSelector]] (Alg. 5).
  */
trait Selector {
  def name: String

  /** Select k seeds, mutating `sk` via markSeed between rounds. */
  def select(sk: SketchSet, k: Int): SelectionResult
}
