package imbench

import repro.prob.{Constant, ProbModel}

/** splitmix64 stream. The benchmark owns its generator so that its inputs
  * stay fixed for a given seed whatever the program's own PRNG does.
  */
final class SplitMix(seed: Long) {
  private var state = seed
  def nextLong(): Long = {
    state += 0x9e3779b97f4a7c15L
    var z = state
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
  def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16
  def nextInt(bound: Int): Int = ((nextLong() >>> 1) % bound).toInt
}

/** One IM query's parameters and the recipe for its edge keys.
  *
  * @param inputs edge-key arrays made from the workload seed; query i reads
  *               `inputs(i % inputs.length)`, and all describe one graph
  * @param alpha  center fraction of the compressed sketches (1 = full memoization)
  * @param lossless check every answer against the same query at α=1
  */
final case class Workload(
    name: String,
    n: Int,
    inputs: Long => IndexedSeq[Array[Long]],
    model: ProbModel,
    alpha: Double,
    sketches: Int,
    k: Int,
    sims: Int,
    lossless: Boolean = false,
)

object Workload {

  /** Undirected edge key in the packing `CSRGraph.fromPackedEdges` reads:
    * smaller endpoint in the high word.
    */
  def key(u: Int, v: Int): Long = (math.min(u, v).toLong << 32) | math.max(u, v).toLong

  /** `draws` R-MAT edge draws with the standard skew (0.57, 0.19, 0.19,
    * 0.05); duplicates and self-loops are left for the program to drop.
    */
  def rmat(n: Int, draws: Int)(seed: Long): IndexedSeq[Array[Long]] = {
    val levels = 32 - Integer.numberOfLeadingZeros(n - 1)
    val rng = new SplitMix(seed)
    IndexedSeq(Array.fill(draws) {
      var u = 0; var v = 0; var l = 0
      while (l < levels) {
        val r = rng.nextDouble()
        u = (u << 1) | (if (r < 0.76) 0 else 1)
        v = (v << 1) | (if (r < 0.57 || (r >= 0.76 && r < 0.95)) 0 else 1)
        l += 1
      }
      key(u % n, v % n)
    })
  }

  /** rows × cols 4-neighbour lattice in `orders` key orders shuffled from
    * the seed. Build time depends on the order, so queries rotate through
    * several of them.
    */
  def lattice(rows: Int, cols: Int, orders: Int)(seed: Long): IndexedSeq[Array[Long]] = {
    val keys = Array.newBuilder[Long]
    for (r <- 0 until rows; c <- 0 until cols) {
      val v = r * cols + c
      if (c + 1 < cols) keys += key(v, v + 1)
      if (r + 1 < rows) keys += key(v, v + cols)
    }
    val sorted = keys.result()
    val rng = new SplitMix(seed)
    IndexedSeq.fill(orders) {
      val a = sorted.clone()
      var i = a.length - 1
      while (i > 0) {
        val j = rng.nextInt(i + 1)
        val t = a(i); a(i) = a(j); a(j) = t
        i -= 1
      }
      a
    }
  }

  val all: Seq[Workload] = Seq(
    Workload("sf-compressed", 32768, rmat(32768, 340000), Constant(0.02), alpha = 0.1,
             sketches = 256, k = 100, sims = 256, lossless = true),
    Workload("sf-full", 32768, rmat(32768, 340000), Constant(0.02), alpha = 1.0,
             sketches = 256, k = 100, sims = 256),
    Workload("road", 120 * 120, lattice(120, 120, orders = 4), Constant(0.2), alpha = 0.1,
             sketches = 256, k = 100, sims = 256),
  )
}
