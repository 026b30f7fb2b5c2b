package repro.baseline

import repro.core.InfluenceEval
import repro.graph.CSRGraph
import repro.prob.ProbModel

/** GeneralGreedy [43] (Tab. 2 row 1): the original greedy algorithm that
  * estimates every σ(S ∪ {v}) with fresh Monte-Carlo experiments and
  * evaluates ALL vertices each round — O(n·R'·T) work per seed. Only
  * viable on tiny graphs; tests use it as an independent quality oracle
  * for the sketch-based systems.
  */
object GeneralGreedy {

  def run(g: CSRGraph, model: ProbModel, k: Int, mcRounds: Int = 200): Array[Int] = {
    val seeds = scala.collection.mutable.ArrayBuffer.empty[Int]
    val inSeeds = new Array[Boolean](g.n)

    def sigma(s: Array[Int]): Double = InfluenceEval.estimate(g, s, model, mcRounds)

    var round = 0
    while (round < math.min(k, g.n)) {
      val base = if (seeds.isEmpty) 0.0 else sigma(seeds.toArray)
      var best = -1
      var bestGain = Double.NegativeInfinity
      var v = 0
      while (v < g.n) {
        if (!inSeeds(v)) {
          val gain = sigma((seeds :+ v).toArray) - base
          if (gain > bestGain) { bestGain = gain; best = v }
        }
        v += 1
      }
      seeds += best
      inSeeds(best) = true
      round += 1
    }
    seeds.toArray
  }
}
