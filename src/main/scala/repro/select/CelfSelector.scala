package repro.select

import repro.sketch.SketchSet

/** Sequential CELF seed selection (Alg. 2) — the baseline both parallel
  * structures are measured against, and the strategy of the InfuserMG
  * baseline and of StaticGreedy (PaC-IM at α = 0 with this selector).
  *
  * The [[TournamentTree]] holds each live vertex once, keyed by its
  * stale score. A top not yet re-evaluated in the current round is
  * re-evaluated and re-keyed in place; a top that is (the standard CELF
  * freshness flag) is the round's seed.
  * As in the systems the paper describes (Sec. 4: "existing parallel
  * implementations only parallelize the evaluation function MARGINAL"),
  * the only parallelism is inside `marginal` (over the R sketches).
  */
final class CelfSelector extends Selector {
  override def name: String = "CELF"

  override def select(sk: SketchSet, k: Int): SelectionResult = {
    require(k >= 0, s"k=$k must be non-negative")
    val n = sk.g.n
    val stale = sk.initScores.clone()
    val tree = new TournamentTree(stale)
    // Round-0 scores are true scores (S = ∅), so the whole population
    // starts "fresh": the first seed costs zero re-evaluations, exactly
    // MixGreedy's first-seed-from-memoization observation.
    val lastEvalRound = Array.fill(n)(0)

    val seeds = new Array[Int](math.min(k, n))
    var evals = 0L
    var round = 0
    while (round < seeds.length) {
      var top = tree.top
      while (lastEvalRound(top) != round && tree.size > 1) {
        stale(top) = sk.marginal(top, parallel = true)
        lastEvalRound(top) = round
        evals += 1
        tree.update(top)
        top = tree.top
      }
      tree.remove(top)
      seeds(round) = top
      sk.markSeed(top)
      round += 1
    }
    // Tree ids + stale scores + round flags: 4(2L-1) + 8n + 4n.
    SelectionResult(seeds, evals, tree.bytes + 12L * n)
  }
}
