package repro.core

import org.apache.spark.sql.SparkSession

import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.util.{Par, Scratch}

/** Monte-Carlo estimation of the influence spread σ(S): the expected
  * number of vertices activated by seed set S under the IC model —
  * the "Influence" columns of Tab. 3/4/6/7.
  *
  * One simulation = one BFS from all seeds over a freshly sampled graph
  * (deterministic fusion sampling with the evaluation salt, independent
  * of the sketch salt). Offered in two engines with identical results:
  * local fork-join ([[estimate]]) and Spark ([[sparkEstimate]], the
  * simulations distributed over the cluster with a broadcast CSR —
  * the task's dataflow layer for the spread measurements).
  */
object InfluenceEval {

  /** One IC diffusion simulation; returns #activated (including seeds). */
  def simulate(g: CSRGraph, seeds: Array[Int], sampler: EdgeSampler, sim: Int): Int = {
    val s = Scratch.local(g.n)
    s.reset()
    var tail = 0
    var i = 0
    while (i < seeds.length) {
      val v = seeds(i)
      if (!s.visited(v)) { s.visit(v); s.queue(tail) = v; tail += 1 }
      i += 1
    }
    val rs = sampler.saltOf(sim)
    val off = g.offsets; val adj = g.adj
    var head = 0
    while (head < tail) {
      val u = s.queue(head); head += 1
      var j = off(u)
      val end = off(u + 1)
      while (j < end) {
        val w = adj(j)
        if (!s.visited(w) && sampler.sampleSalted(u, w, rs)) {
          s.visit(w); s.queue(tail) = w; tail += 1
        }
        j += 1
      }
    }
    tail
  }

  /** Local parallel estimate over `sims` simulations. */
  def estimate(g: CSRGraph, seeds: Array[Int], model: ProbModel, sims: Int): Double = {
    val sampler = EdgeSampler.forEval(model)
    Par.parSumL(sims)(sim => simulate(g, seeds, sampler, sim).toLong).toDouble / sims
  }

  /** Spark-distributed estimate: simulations are partitioned over the
    * cluster; each task replays its share against the broadcast graph.
    * Bit-identical to [[estimate]] (same deterministic sampler).
    */
  def sparkEstimate(spark: SparkSession, g: CSRGraph, seeds: Array[Int],
                    model: ProbModel, sims: Int): Double = {
    val sc = spark.sparkContext
    val bcOffsets = sc.broadcast(g.offsets)
    val bcAdj = sc.broadcast(g.adj)
    val bcSeeds = sc.broadcast(seeds)
    val bcModel = sc.broadcast(model)
    val n = g.n
    try {
      val total = sc.range(0, sims, numSlices = math.min(sims, 64)).mapPartitions { it =>
        val gg = CSRGraph.wrap(n, bcOffsets.value, bcAdj.value)
        val sampler = EdgeSampler.forEval(bcModel.value)
        var sum = 0L
        it.foreach(sim => sum += simulate(gg, bcSeeds.value, sampler, sim.toInt))
        Iterator.single(sum)
      }.sum()
      total / sims
    } finally {
      bcOffsets.destroy(); bcAdj.destroy(); bcSeeds.destroy(); bcModel.destroy()
    }
  }
}
