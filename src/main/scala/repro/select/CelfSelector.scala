package repro.select

import repro.sketch.SketchSet

/** Sequential CELF seed selection (Alg. 2) — the baseline both parallel
  * structures are measured against, and the strategy of the InfuserMG
  * baseline and of StaticGreedy (PaC-IM at α = 0 with this selector).
  *
  * The [[IdHeap]] holds each live vertex once, keyed by its stale
  * score. A vertex already re-evaluated in the current round is selected
  * on pop without another evaluation (the standard CELF freshness flag).
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
    // Round-0 scores are true scores (S = ∅), so the whole population
    // starts "fresh": the first seed costs zero re-evaluations, exactly
    // MixGreedy's first-seed-from-memoization observation.
    val lastEvalRound = Array.fill(n)(0)
    val heap = new IdHeap(stale)

    val seeds = new Array[Int](math.min(k, n))
    var evals = 0L
    var round = 0
    while (round < seeds.length) {
      var chosen = -1
      while (chosen < 0) {
        val top = heap.pop()
        if (lastEvalRound(top) == round || heap.size == 0) {
          chosen = top
        } else {
          stale(top) = sk.marginal(top, parallel = true)
          lastEvalRound(top) = round
          evals += 1
          val nxt = heap.top
          if (Key.better(stale(top), top, stale(nxt), nxt)) chosen = top
          else heap.push(top)
        }
      }
      seeds(round) = chosen
      sk.markSeed(chosen)
      round += 1
    }
    // Heap ids + stale scores + round flags: 4n + 8n + 4n.
    SelectionResult(seeds, evals, 16L * n)
  }
}
