package repro.select

import repro.sketch.SketchSet
import repro.util.Par

/** P-tree–based parallel seed selection (Alg. 4).
  *
  * FindMax takes the top-scoring batch of size 1, 2, 4, … (prefix
  * doubling) out of the tree, re-evaluates the batch *in parallel* and
  * puts it back under the true scores, until the root is the best vertex
  * evaluated in the round: its true score beats every stale one left.
  * A batch is cut at the root once the round's best true score is there,
  * so P-tree evaluates no vertex that cannot win.
  * The paper keeps the stale scores in a P-tree; Alg. 4 needs only its
  * SplitTop, BatchInsert and Max, which the [[TournamentTree]] provides.
  *
  * Guarantees (tested): selects exactly CELF's seeds (Thm. 4.1) with at
  * most 2× CELF's evaluations (Thm. 4.2).
  */
final class PTreeSelector extends Selector {
  override def name: String = "P-tree"

  override def select(sk: SketchSet, k: Int): SelectionResult = {
    val scores = sk.scores
    val tree = new TournamentTree(scores)
    Selector.rounds(sk, k, tree) { _ =>
      // The best vertex evaluated in this round, -1 before the first batch.
      // Every other vertex evaluated is back in the tree below it, so a
      // root that is not `best` is an unevaluated vertex whose stale score
      // beats the best true score so far.
      var best = -1
      var batchSize = 1
      while (tree.top != best) {
        val split = Array.newBuilder[Int]
        while (split.length < batchSize && tree.top != best) {
          val v = tree.top
          tree.remove(v)
          split += v
        }
        val batch = split.result()
        Par.parFor(batch.length)(i => scores(batch(i)) = sk.marginal(batch(i)))
        batch.foreach { v =>
          tree.insert(v)
          if (best < 0 || Key.better(scores(v), v, scores(best), best)) best = v
        }
        batchSize <<= 1
      }
    }
  }
}
