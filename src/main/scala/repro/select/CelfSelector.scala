package repro.select

import repro.sketch.SketchSet

/** Sequential CELF seed selection (Alg. 2) — the baseline both parallel
  * structures are measured against, and the strategy of the InfuserMG /
  * StaticGreedy baselines.
  *
  * The priority queue holds each live vertex once, keyed by its stale
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
    // Max-PQ on (stale score, id) under Key.better.
    val ord = new Ordering[Int] {
      override def compare(a: Int, b: Int): Int =
        if (a == b) 0 else if (Key.better(stale(a), a, stale(b), b)) 1 else -1
    }
    // Scores mutate after insertion only via pop-reinsert, so the heap
    // invariant is maintained by reinserting with the updated key.
    val pq = new scala.collection.mutable.PriorityQueue[Int]()(ord)
    var v = 0
    while (v < n) { pq.enqueue(v); v += 1 }

    val seeds = new Array[Int](math.min(k, n))
    var evals = 0L
    var round = 0
    while (round < seeds.length) {
      var chosen = -1
      while (chosen < 0) {
        val top = pq.dequeue()
        if (lastEvalRound(top) == round || pq.isEmpty) {
          chosen = top
        } else {
          stale(top) = sk.marginal(top, parallel = true)
          lastEvalRound(top) = round
          evals += 1
          val nxt = pq.head
          if (Key.better(stale(top), top, stale(nxt), nxt)) chosen = top
          else pq.enqueue(top)
        }
      }
      seeds(round) = chosen
      sk.markSeed(chosen)
      round += 1
    }
    // PQ of boxed ints on a heap array + stale/flag arrays: ~4n + 8n + 4n.
    SelectionResult(seeds, evals, 16L * n)
  }
}
