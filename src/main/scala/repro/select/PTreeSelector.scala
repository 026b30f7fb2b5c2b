package repro.select

import repro.sketch.SketchSet
import repro.util.Par

/** P-tree–based parallel seed selection (Alg. 4).
  *
  * Per round: take the top-scoring batch of size 1, 2, 4, … (prefix
  * doubling) out of the tree, re-evaluate each batch *in parallel*, and
  * stop once the best true score beats the tree's best stale score —
  * then the un-chosen evaluated vertices go back with their new scores.
  * A batch is cut at the first vertex whose stale score fails to beat
  * the round's best true score so far, so P-tree evaluates no vertex that
  * cannot win.
  * The paper keeps the stale scores in a P-tree; Alg. 4 needs only its
  * SplitTop, BatchInsert and Max, which the [[TournamentTree]] provides.
  *
  * Guarantees (tested): selects exactly CELF's seeds (Thm. 4.1) with at
  * most 2× CELF's evaluations (Thm. 4.2).
  */
final class PTreeSelector extends Selector {
  override def name: String = "P-tree"

  override def select(sk: SketchSet, k: Int): SelectionResult = {
    require(k >= 0, s"k=$k must be non-negative")
    val n = sk.g.n
    val stale = sk.initScores.clone()
    val tree = new TournamentTree(stale)

    val seeds = new Array[Int](math.min(k, n))
    var evals = 0L
    var round = 0
    while (round < seeds.length) {
      var best = -1
      def beatsBest(v: Int): Boolean = best < 0 || Key.better(stale(v), v, stale(best), best)
      val pending = Array.newBuilder[Int] // evaluated, not selected
      var batchSize = 1
      // Round 0's scores are true scores, and a last remaining vertex
      // wins unevaluated (as CELF's does): take the max directly.
      var stop = round == 0 || tree.size == 1
      if (stop) { best = tree.top; tree.remove(best) }
      while (!stop) {
        // Stale scores bound true ones: once the top fails to beat the
        // best true score so far, no vertex left can win, so the batch
        // ends there (and with it the round).
        val split = Array.newBuilder[Int]
        while (split.length < batchSize && tree.size > 0 && beatsBest(tree.top)) {
          val v = tree.top
          tree.remove(v)
          split += v
        }
        val batch = split.result()
        Par.parFor(batch.length)(i => stale(batch(i)) = sk.marginal(batch(i)))
        evals += batch.length
        batch.foreach { v =>
          if (beatsBest(v)) {
            if (best >= 0) pending += best
            best = v
          } else pending += v
        }
        stop = tree.size == 0 || !beatsBest(tree.top)
        batchSize <<= 1
      }
      pending.result().foreach(tree.insert)
      seeds(round) = best
      sk.markSeed(best)
      round += 1
    }
    // Tree ids + stale scores: 4(2L-1) + 8n, as Win-Tree's.
    SelectionResult(seeds, evals, tree.bytes + 8L * n)
  }
}
