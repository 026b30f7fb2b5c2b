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
  * of the sketch salt). The simulations run in blocks of up to 64 through
  * one kernel, [[simulateBlock]], which does the whole block as a single
  * bit-parallel BFS (MS-BFS, Then et al., PVLDB 2014) and hashes each arc
  * it draws once for the block (Infuser's fusing across samples). Offered
  * in two engines with identical results: local fork-join ([[estimate]])
  * and Spark ([[sparkEstimate]], the blocks distributed over the cluster
  * with a broadcast CSR — the task's dataflow layer for the spread
  * measurements).
  */
object InfluenceEval {

  /** Total number of vertices activated (seeds included) over the b
    * simulations s0 until s0 + b, 1 <= b <= 64, run as one BFS on the
    * caller's scratch `s` (the calling thread's own).
    *
    * Bit j of `seen(v)` says that simulation s0 + j has reached v; bit j
    * of `pending(v)` that v's expansion in that simulation is still to
    * come. A vertex is queued exactly when its pending mask is non-zero,
    * so at most n vertices are queued at once and `s.queue` serves as a
    * ring. Expanding u tests an arc (u, w) only for the simulations in
    * `pending(u) & ~seen(w)`, all at once by [[EdgeSampler.sampleBlock]]:
    * the same draw as `sampleSalted(u, w, saltOf(s0 + j))` for each.
    *
    * Each simulation's bits spread from its seeds along exactly the arcs
    * present in its sampled graph, so bit j ends up set on exactly the
    * vertices reachable in simulation s0 + j, whatever order the queue
    * runs in. The total is therefore Σ_j of what a separate BFS per
    * simulation counts. `seen` is cleared on entry (O(n)); `pending` is
    * all zero whenever the queue is empty.
    */
  def simulateBlock(g: CSRGraph, seeds: Array[Int], sampler: EdgeSampler,
                    s0: Int, b: Int, s: Scratch): Long = {
    require(b >= 1 && b <= MaxBlock, s"block of $b simulations")
    val n = g.n
    val seen = s.seen; val pending = s.pending; val ring = s.queue
    java.util.Arrays.fill(seen, 0, n, 0L)
    val full = -1L >>> (64 - b)
    var total = 0L
    var head = 0; var queued = 0
    var i = 0
    while (i < seeds.length) {
      val v = seeds(i)
      if (seen(v) == 0L) {
        seen(v) = full; pending(v) = full
        ring(queued) = v; queued += 1
        total += b
      }
      i += 1
    }
    val salts = sampler.saltsOf(s0, b)
    val off = g.offsets; val adj = g.adj
    while (queued > 0) {
      val u = ring(head)
      head += 1; if (head == n) head = 0
      queued -= 1
      val pu = pending(u)
      pending(u) = 0L
      var a = off(u)
      val end = off(u + 1)
      while (a < end) {
        val w = adj(a)
        val cand = pu & ~seen(w)
        if (cand != 0L) {
          val hit = sampler.sampleBlock(u, w, salts, cand)
          if (hit != 0L) {
            seen(w) |= hit
            total += java.lang.Long.bitCount(hit)
            if (pending(w) == 0L) { ring(ringTail(head, queued, n)) = w; queued += 1 }
            pending(w) |= hit
          }
        }
        a += 1
      }
    }
    total
  }

  /** The ring slot after the `queued` entries that start at `head`:
    * (head + queued) mod n, for 0 <= head < n and 0 <= queued < n, without
    * the Int overflow of head + queued once n > 2^30.
    */
  @inline private[core] def ringTail(head: Int, queued: Int, n: Int): Int =
    if (queued >= n - head) queued - (n - head) else head + queued

  /** Simulations per block: ceil(sims / threads), so that every thread
    * gets a block, at most 64 (one bit per simulation in a `Long` mask).
    * Always at least 1.
    */
  def blockSize(sims: Int, threads: Int): Int =
    math.max(1, math.min(MaxBlock.toLong, (sims.toLong + threads - 1) / threads).toInt)

  private final val MaxBlock = 64

  private def blocks(sims: Int, b: Int): Int = ((sims.toLong + b - 1) / b).toInt

  // Simulations k·b until min((k+1)·b, sims): block k of `sims`.
  private def runBlock(g: CSRGraph, seeds: Array[Int], sampler: EdgeSampler,
                       sims: Int, b: Int, k: Int): Long = {
    val s0 = k * b
    simulateBlock(g, seeds, sampler, s0, math.min(b, sims - s0), Scratch.local(g.n))
  }

  /** Local parallel estimate over `sims` > 0 simulations, one block per
    * fork-join task.
    */
  def estimate(g: CSRGraph, seeds: Array[Int], model: ProbModel, sims: Int): Double = {
    require(sims > 0, s"sims=$sims must be positive")
    val sampler = EdgeSampler.forEval(model)
    val b = blockSize(sims, Par.threads)
    Par.parSumL(blocks(sims, b))(runBlock(g, seeds, sampler, sims, b, _)).toDouble / sims
  }

  /** Spark-distributed estimate over `sims` > 0 simulations: the blocks
    * are partitioned over the cluster; each task runs its share against
    * the broadcast graph. Bit-identical to [[estimate]] (same
    * deterministic sampler, and an exact integer total).
    */
  def sparkEstimate(spark: SparkSession, g: CSRGraph, seeds: Array[Int],
                    model: ProbModel, sims: Int): Double = {
    require(sims > 0, s"sims=$sims must be positive")
    val sc = spark.sparkContext
    val b = blockSize(sims, sc.defaultParallelism)
    val numBlocks = blocks(sims, b)
    val total = CSRGraph.broadcasting(sc, g, (seeds, model)) { shipped =>
      sc.range(0, numBlocks, numSlices = math.min(numBlocks, 64)).mapPartitions { it =>
        val (gg, (ss, m)) = shipped()
        val sampler = EdgeSampler.forEval(m)
        var sum = 0L
        it.foreach(k => sum += runBlock(gg, ss, sampler, sims, b, k.toInt))
        Iterator.single(sum)
      }.sum()
    }
    total / sims
  }
}
