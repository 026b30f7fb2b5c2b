package repro.select

import repro.sketch.SketchSet
import repro.util.Par

/** P-tree–based parallel seed selection (Alg. 4).
  *
  * Per round: extract the top-scoring batch of size 1, 2, 4, … (prefix
  * doubling) from the tree, re-evaluate each batch *in parallel*, and
  * stop once the best true score beats the tree's best stale score —
  * then the un-chosen evaluated vertices go back with their new scores.
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
    var tree = PTree.build(n, stale(_))
    val structBytes = PTree.bytes(tree) + 8L * n

    val seeds = new Array[Int](math.min(k, n))
    var evals = 0L
    var round = 0
    while (round < seeds.length) {
      var best = -1
      val pending = Array.newBuilder[Int] // evaluated, not selected
      var batchSize = 1
      var stop = false
      // Round 0's scores are true scores, and a last remaining vertex
      // wins unevaluated (as CELF's does): take the max directly.
      if (round == 0 || PTree.size(tree) == 1) {
        val (ids, rest) = PTree.splitAndRemove(tree, 1)
        tree = rest
        best = ids(0)
        stop = true
      }
      while (!stop) {
        val (batch, rest) = PTree.splitAndRemove(tree, batchSize)
        tree = rest
        Par.parFor(batch.length)(i => stale(batch(i)) = sk.marginal(batch(i)))
        evals += batch.length
        var i = 0
        while (i < batch.length) {
          val v = batch(i)
          if (best < 0 || Key.better(stale(v), v, stale(best), best)) {
            if (best >= 0) pending += best
            best = v
          } else pending += v
          i += 1
        }
        stop = tree == null ||
          Key.better(stale(best), best, PTree.maxScore(tree), PTree.maxId(tree))
        batchSize <<= 1
      }
      tree = PTree.batchInsert(tree, pending.result(), stale(_))
      seeds(round) = best
      sk.markSeed(best)
      round += 1
    }
    SelectionResult(seeds, evals, structBytes)
  }
}
