package repro.select

import repro.sketch.SketchSet

/** Sequential CELF seed selection (Alg. 2) — the baseline both parallel
  * structures are measured against, and the strategy of the InfuserMG
  * baseline and of StaticGreedy (PaC-IM at α = 0 with this selector).
  *
  * The [[TournamentTree]] holds each live vertex once, keyed by its
  * stale score. FindMax re-evaluates a top not yet re-evaluated in the
  * current round and re-keys it in place, until the top is one that is
  * (the standard CELF freshness flag): the round's seed.
  * As in the systems the paper describes (Sec. 4: "existing parallel
  * implementations only parallelize the evaluation function MARGINAL"),
  * the only parallelism is inside `marginal` (over the R sketches).
  */
final class CelfSelector extends Selector {
  override def name: String = "CELF"

  override def select(sk: SketchSet, k: Int): SelectionResult = {
    val scores = sk.scores
    val tree = new TournamentTree(scores)
    // The round in which each vertex was last evaluated. Round 0 takes the
    // exact build scores without evaluating, so every vertex starts fresh.
    val lastEvalRound = new Array[Int](sk.g.n)
    // Round flags: 4n bytes beyond the tree's ids.
    Selector.rounds(sk, k, tree, extraBytes = 4L * sk.g.n) { round =>
      var top = tree.top
      while (lastEvalRound(top) != round) {
        scores(top) = sk.marginal(top, parallel = true)
        lastEvalRound(top) = round
        tree.update(top)
        top = tree.top
      }
    }
  }
}
