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
  * @param structBytes  bytes of the selector's own structure: the tree's
  *                     ids plus any per-vertex state of its own (the scores
  *                     it keys on belong to the sketch set)
  * @param refreshes    rounds that recomputed every marginal in one
  *                     `SketchSet.refresh` pass. Only Win-Tree refreshes,
  *                     and where a round can reach its draw budget, whether
  *                     it does depends on thread timing, as its evaluation
  *                     count does ([[WinTreeSelector]]); at α = 1 and on
  *                     graphs without edges it is always 0.
  */
final case class SelectionResult(seeds: Array[Int], evaluations: Long, structBytes: Long,
                                 refreshes: Int = 0)

/** A seed-selection strategy: repeatedly find arg-max marginal gain
  * (NextSeed) and commit it (MarkSeed) — the Step-2 loop of Alg. 1, which
  * every implementation runs through [[Selector.rounds]] with its own
  * FindMax: [[CelfSelector]] (sequential baseline, Alg. 2),
  * [[PTreeSelector]] (Alg. 4), [[WinTreeSelector]] (Alg. 5).
  */
trait Selector {
  def name: String

  /** Select k seeds, mutating `sk` via markSeed between rounds. */
  def select(sk: SketchSet, k: Int): SelectionResult
}

object Selector {

  /** Alg. 1 step 2, once for every selector: min(k, n) rounds, each of
    * which leaves the best vertex at `tree`'s root (NextSeed), then takes
    * it out of the tree and marks it as a seed (MarkSeed). `tree` keys on
    * `sk.scores` and starts with every vertex in it.
    *
    * Round 0's scores are the build's exact ones (S = ∅), so its root wins
    * unevaluated (MixGreedy's first-seed observation), and so does a last
    * live vertex. Every other round calls `findMax(round)`, which may lower
    * `sk.scores` entries (each one stays an upper bound of its vertex's
    * marginal) and must leave the vertex with the best true score at the
    * root. The result counts the evaluations and refreshes made on `sk`
    * while the loop runs, and `tree.bytes + extraBytes` of structure.
    */
  def rounds(sk: SketchSet, k: Int, tree: TournamentTree, extraBytes: Long = 0L)(
      findMax: Int => Unit): SelectionResult = {
    require(k >= 0, s"k=$k must be non-negative")
    val evals0 = sk.evalCounter.sum()
    val refreshes0 = sk.refreshes
    val seeds = new Array[Int](math.min(k, sk.g.n))
    var round = 0
    while (round < seeds.length) {
      if (round > 0 && tree.size > 1) findMax(round)
      val s = tree.top
      tree.remove(s)
      sk.markSeed(s)
      seeds(round) = s
      round += 1
    }
    SelectionResult(seeds, sk.evalCounter.sum() - evals0, tree.bytes + extraBytes, sk.refreshes - refreshes0)
  }
}
