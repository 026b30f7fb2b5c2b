package repro.sketch

import java.util.concurrent.atomic.LongAdder

import repro.graph.CSRGraph
import repro.sample.EdgeSampler
import repro.util.{Par, Scratch}

/** The compressed sketches of PaC-IM (Sec. 3, Alg. 3).
  *
  * A sketch Φ_r is the triple (r, label[1..ρ], size[1..ρ]) for ρ = αn
  * uniformly random *centers*. The sampled graph G'_r itself is implicit:
  * it is fully determined by (sampler, r) and re-hashed on the fly.
  *
  *  - `labels(r)(i)`: the smallest center index j such that center j is in
  *    the same component as center i on G'_r (centers are sorted by vertex
  *    id, so "smallest index" == the paper's "smallest center id").
  *  - `sizes(r)(j)`: for a representative j (labels(r)(j) == j), the
  *    influence of that component — its size initially, 0 once any vertex
  *    of the component has been chosen as a seed (MarkSeed).
  *
  * Scores are exact integers: `marginal(v)` and `initScores(v)` are
  * Σ_r δ_r, i.e. R × the paper's Marginal (an average over the R
  * sketches). Dividing by the constant R never changes an arg-max, and
  * the integer sum makes equal gains compare equal without rounding.
  *
  * With α = 1 this degenerates to InfuserMG's full memoization (every
  * GetCenter terminates at its first vertex); with α = 0 to StaticGreedy's
  * pure simulation. The marginal-gain *values* are identical for every α —
  * only the evaluation cost changes (Thm. 3.1) — which tests assert.
  *
  * Thread safety: `marginal` is read-only and safe to call from many
  * threads; `markSeed` must be called from one thread at a time (between
  * selection rounds), which is how Alg. 1 uses it.
  */
final class SketchSet(
    val g: CSRGraph,
    val sampler: EdgeSampler,
    val R: Int,
    val centers: Array[Int],
    val centerIndex: Array[Int], // n entries: vertex -> center index, or -1
    val labels: Array[Array[Int]], // R × ρ
    val sizes: Array[Array[Int]], // R × ρ
    val initScores: Array[Long], // Σ_r δ_r on S = ∅, memoized at build time
) {
  require(labels.length == R && sizes.length == R)

  val rho: Int = centers.length
  private val isSeed = new Array[Boolean](g.n)

  /** Total vertices visited by all GetCenter BFS — the Thm-3.1 metric. */
  val visitCounter = new LongAdder

  /** Fresh copy with independent `sizes` (for running several selectors
    * against identical sketches) and seed state.
    */
  def copy(): SketchSet =
    new SketchSet(g, sampler, R, centers, centerIndex, labels, sizes.map(_.clone()), initScores)

  /** Auxiliary sketch bytes (Tab. 2's O((1+αR)n) term, measured):
    * R·ρ ints of labels + R·ρ ints of sizes + n ints of centerIndex.
    */
  def sketchBytes: Long = 8L * R * rho + 4L * g.n

  /** Alg. 3 GetCenter: (δ, l) where δ is v's marginal influence on sketch
    * r and l the representative center index of v's component (-1 if the
    * component has no center). BFS over the implicit G'_r; stops at the
    * first center or the first seed (either determines the answer).
    */
  def getCenter(r: Int, v: Int): (Int, Int) = {
    if (isSeed(v)) return (0, -1)
    val ci = centerIndex(v)
    if (ci >= 0) {
      visitCounter.increment()
      val l = labels(r)(ci)
      return (sizes(r)(l), l)
    }
    val s = Scratch.local(g.n)
    s.reset()
    s.visit(v)
    s.queue(0) = v
    var head = 0; var tail = 1
    var visited = 1
    while (head < tail) {
      val u = s.queue(head); head += 1
      var found = -1
      g.foreachNeighbor(u) { w =>
        if (found < 0 && !s.visited(w) && sampler.sample(u, w, r)) {
          val cw = centerIndex(w)
          if (cw >= 0) found = cw
          else if (isSeed(w)) found = -2
          else {
            s.visit(w); s.queue(tail) = w; tail += 1
            visited += 1
          }
        }
      }
      if (found == -2) { visitCounter.add(visited.toLong); return (0, -1) }
      if (found >= 0) {
        visitCounter.add(visited.toLong + 1)
        val l = labels(r)(found)
        return (sizes(r)(l), l)
      }
    }
    visitCounter.add(visited.toLong)
    (visited, -1)
  }

  /** Alg. 3 Marginal times R: the exact sum of δ_r over all R sketches
    * (< R·n, so it cannot overflow a Long).
    */
  def marginal(v: Int, parallel: Boolean = false): Long = {
    if (parallel) {
      Par.parSumL(R)(r => getCenter(r, v)._1.toLong)
    } else {
      var sum = 0L
      var r = 0
      while (r < R) { sum += getCenter(r, v)._1; r += 1 }
      sum
    }
  }

  /** Alg. 3 MarkSeed: zero the influence of v's component on every
    * sketch where that component is represented by a center.
    */
  def markSeed(v: Int): Unit = {
    Par.parFor(R) { r =>
      val (_, l) = getCenter(r, v)
      if (l >= 0) sizes(r)(l) = 0
    }
    isSeed(v) = true
  }

  def seeded(v: Int): Boolean = isSeed(v)
}
