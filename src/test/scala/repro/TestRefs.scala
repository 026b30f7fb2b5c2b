package repro

import repro.graph.CSRGraph
import repro.sample.EdgeSampler

/** Brute-force reference implementations the real code is checked
  * against. Everything here is deliberately simple and slow.
  */
object TestRefs {

  /** Canonical CC labels (min vertex id per component) of sampled graph
    * r via plain BFS; r < 0 means all edges.
    */
  def bfsCC(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val label = Array.fill(g.n)(-1)
    var v = 0
    while (v < g.n) {
      if (label(v) == -1) {
        var frontier = List(v)
        label(v) = v
        while (frontier.nonEmpty) {
          val u = frontier.head
          frontier = frontier.tail
          g.foreachNeighbor(u) { w =>
            if (label(w) == -1 && (r < 0 || sampler.sample(u, w, r))) {
              label(w) = v
              frontier = w :: frontier
            }
          }
        }
      }
      v += 1
    }
    label
  }

  /** R × the sketch-estimated influence σ̂(S): the total over the R
    * sampled graphs of the number of vertices in components touched by S
    * (exact, like `SketchSet.marginal`).
    */
  def sketchSigma(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                  seeds: Seq[Int]): Long = {
    var total = 0L
    var r = 0
    while (r < numSketches) {
      val cc = bfsCC(g, sampler, r)
      val seedLabels = seeds.map(cc).toSet
      total += (0 until g.n).count(v => seedLabels.contains(cc(v)))
      r += 1
    }
    total
  }

  /** Exhaustive greedy on σ̂ with (gain, id) tie-break — the semantics
    * every selector must reproduce exactly.
    */
  def bruteGreedy(g: CSRGraph, sampler: EdgeSampler, numSketches: Int, k: Int): Array[Int] = {
    val seeds = scala.collection.mutable.ArrayBuffer.empty[Int]
    while (seeds.length < math.min(k, g.n)) {
      val base = if (seeds.isEmpty) 0L else sketchSigma(g, sampler, numSketches, seeds.toSeq)
      var best = -1
      var bestGain = -1L
      var v = 0
      while (v < g.n) {
        if (!seeds.contains(v)) {
          val gain = sketchSigma(g, sampler, numSketches, seeds.toSeq :+ v) - base
          if (gain > bestGain) { bestGain = gain; best = v }
        }
        v += 1
      }
      seeds += best
    }
    seeds.toArray
  }
}
