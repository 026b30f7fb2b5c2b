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
  * Scores are exact integers: `marginal(v)` and `scores(v)` are
  * Σ_r δ_r, i.e. R × the paper's Marginal (an average over the R
  * sketches). Dividing by the constant R never changes an arg-max, and
  * the integer sum makes equal gains compare equal without rounding.
  *
  * A selection runs on one sketch set and changes only what the set owns:
  * the component sizes (`markSeed`), the per-vertex `scores` (the
  * selector's stale keys, lowered in place) and the counters of what it
  * paid (`evalCounter`, `refreshes`, `visitCounter`, `drawCounter`).
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
    val scores: Array[Long], // Σ_r δ_r: exact on S = ∅ at build time, then stale upper bounds
) {
  require(labels.length == R && sizes.length == R && scores.length == g.n)

  val rho: Int = centers.length
  private val isSeed = new Array[Boolean](g.n)

  /** Total vertices visited by the GetCenter BFS of `marginal` calls —
    * the Thm-3.1 metric. MarkSeed's searches are not counted: they are not
    * evaluations.
    */
  val visitCounter = new LongAdder

  /** Total arcs drawn (`sampleSalted` calls) by the GetCenter BFS of
    * `marginal` calls, the evaluation cost that [[refresh]]'s R·m draws
    * are weighed against. A search from a center draws nothing, so at
    * α = 1 this stays 0. MarkSeed's draws are not counted.
    */
  val drawCounter = new LongAdder

  /** `marginal` calls made on this set: a selection's evaluations (Tab. 5).
    * A parallel call counts once.
    */
  val evalCounter = new LongAdder

  private var refreshPasses = 0

  /** [[refresh]] passes made on this set. */
  def refreshes: Int = refreshPasses

  /** Fresh copy with independent `sizes` and `scores` (for running several
    * selectors against identical sketches), seed state and counters.
    */
  def copy(): SketchSet =
    new SketchSet(g, sampler, R, centers, centerIndex, labels, sizes.map(_.clone()), scores.clone())

  /** Auxiliary sketch bytes (Tab. 2's O((1+αR)n) term, measured):
    * R·ρ ints of labels + R·ρ ints of sizes + n ints of centerIndex.
    */
  def sketchBytes: Long = 8L * R * rho + 4L * g.n

  /** Alg. 3 GetCenter, packed: `(δ << 32) | (l & 0xffffffffL)`, where δ
    * is v's marginal influence on sketch r and l the representative center
    * index of v's component (-1 if the component has no center); read them
    * back with [[SketchSet.delta]] and [[SketchSet.center]].
    *
    * BFS over the implicit G'_r, with r's salt derived once; stops at the
    * first center or the first seed (either determines the answer). Uses
    * the caller's scratch `s` (the calling thread's own) and adds the
    * vertices it visits to `s.visits` and the arcs it draws to `s.draws`;
    * it allocates nothing and writes no shared state.
    */
  def getCenter(r: Int, v: Int, s: Scratch): Long = {
    if (isSeed(v)) return SketchSet.NoGain
    val ci = centerIndex(v)
    if (ci >= 0) {
      s.visits += 1
      val l = labels(r)(ci)
      return SketchSet.pack(sizes(r)(l), l)
    }
    search(r, v, s)
  }

  // GetCenter's BFS from a non-center, non-seed v, kept out of getCenter so
  // that the center path (every call at α = 1) stays small enough to inline.
  private def search(r: Int, v: Int, s: Scratch): Long = {
    val rs = sampler.saltOf(r)
    val off = g.offsets; val adj = g.adj
    s.reset()
    s.visit(v)
    s.queue(0) = v
    var head = 0; var tail = 1
    var draws = 0L
    while (head < tail) {
      val u = s.queue(head); head += 1
      var i = off(u)
      val end = off(u + 1)
      while (i < end) {
        val w = adj(i)
        if (!s.visited(w)) {
          draws += 1
          if (sampler.sampleSalted(u, w, rs)) {
            val cw = centerIndex(w)
            if (cw >= 0) {
              s.visits += tail + 1; s.draws += draws
              val l = labels(r)(cw)
              return SketchSet.pack(sizes(r)(l), l)
            }
            if (isSeed(w)) { s.visits += tail; s.draws += draws; return SketchSet.NoGain }
            s.visit(w); s.queue(tail) = w; tail += 1
          }
        }
        i += 1
      }
    }
    s.visits += tail; s.draws += draws
    SketchSet.pack(tail, -1)
  }

  /** Alg. 3 Marginal times R: the exact sum of δ_r over all R sketches
    * (< R·n, so it cannot overflow a Long). Counts the call in
    * `evalCounter`, and adds the GetCenter visits to `visitCounter` and its
    * draws to `drawCounter` once per call (once per range when `parallel`).
    */
  def marginal(v: Int, parallel: Boolean = false): Long = {
    evalCounter.increment()
    if (parallel) {
      val pieces = math.min(R, Par.threads)
      val gains = new Array[Long](pieces)
      Par.parRanges(R, pieces) { (c, lo, hi) => gains(c) = marginalOver(v, lo, hi) }
      gains.sum
    } else marginalOver(v, 0, R)
  }

  private def marginalOver(v: Int, lo: Int, hi: Int): Long = {
    val s = Scratch.local(g.n)
    val visits0 = s.visits
    val draws0 = s.draws
    var sum = 0L
    var r = lo
    while (r < hi) { sum += SketchSet.delta(getCenter(r, v, s)); r += 1 }
    visitCounter.add(s.visits - visits0)
    drawCounter.add(s.draws - draws0)
    sum
  }

  /** Every exact marginal at once: writes Σ_r δ_r, what `marginal(v)`
    * returns, into `scores(v)` for every non-seed v, and leaves the seeds'
    * entries as they are. This is NewGreedy's round (Chen, Wang & Yang,
    * "Efficient Influence Maximization in Social Networks", KDD'09): the
    * build's blocked union–find pass over all R sampled graphs
    * ([[SketchBuilder.componentSums]]), with every component that holds a
    * seed counted as 0. It draws each edge once per sampled graph, R·m
    * draws in all, whatever α is, and holds the build's transient
    * per-thread state (n·B ints of forests, n longs of sums) only while
    * it runs. It neither reads nor changes the sketches, counts no
    * evaluations, visits or draws, and counts one pass in `refreshes`.
    * Like `markSeed`, call it between rounds.
    */
  def refresh(): Unit = {
    val seeds = Array.range(0, g.n).filter(isSeed(_))
    val sums = SketchBuilder.componentSums(g, sampler, R, seeds)
    var v = 0
    while (v < g.n) { if (!isSeed(v)) scores(v) = sums(v); v += 1 }
    refreshPasses += 1
  }

  /** Alg. 3 MarkSeed: zero the influence of v's component on every
    * sketch where that component is represented by a center. For a
    * center v each GetCenter is two array reads, and one loop over the R
    * sketches costs less than forking it. Otherwise the R sketches are
    * split into one contiguous range per thread, as in
    * `marginal(parallel = true)`, each with the thread's own scratch.
    */
  def markSeed(v: Int): Unit = {
    if (centerIndex(v) >= 0) markRange(v, 0, R)
    else Par.parRanges(R, math.min(R, Par.threads)) { (_, lo, hi) => markRange(v, lo, hi) }
    isSeed(v) = true
  }

  private def markRange(v: Int, lo: Int, hi: Int): Unit = {
    val s = Scratch.local(g.n)
    var r = lo
    while (r < hi) {
      val l = SketchSet.center(getCenter(r, v, s))
      if (l >= 0) sizes(r)(l) = 0
      r += 1
    }
  }
}

object SketchSet {
  /** GetCenter's answer for a vertex whose component holds a seed. */
  private final val NoGain = 0xffffffffL // pack(0, -1)

  @inline private def pack(delta: Int, l: Int): Long = (delta.toLong << 32) | (l & 0xffffffffL)

  /** δ of a packed GetCenter answer. */
  @inline def delta(packed: Long): Int = (packed >> 32).toInt

  /** Representative center index of a packed GetCenter answer, or -1. */
  @inline def center(packed: Long): Int = packed.toInt
}
