package repro.sketch

import repro.connectivity.LocalCC
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.util.{Par, Rand}

/** Parallel sketch construction — Alg. 1 step 1 / Alg. 3 Sketch(G, r).
  *
  * Builds all R sketches in parallel (one task per sketch, each running
  * a sequential CC over the implicitly sampled graph). The CC algorithm
  * is pluggable:
  *  - [[CCAlgo.UnionFind]] — PaC-IM's choice (ConnectIt stand-in);
  *  - [[CCAlgo.Coloring]] — min-label propagation, the algorithm the
  *    paper attributes to InfuserMG's sketch phase; same output, pays a
  *    factor of the sampled-component diameter.
  */
object SketchBuilder {

  sealed trait CCAlgo
  object CCAlgo {
    case object UnionFind extends CCAlgo
    case object Coloring extends CCAlgo
  }

  /** Uniformly random ρ = round(αn) centers (sorted by vertex id),
    * deterministic in `seed` — Sec. 3's uniform center selection.
    */
  def chooseCenters(n: Int, alpha: Double, seed: Long = 0xce57e5L): Array[Int] = {
    require(alpha >= 0 && alpha <= 1, s"alpha=$alpha out of [0,1]")
    val rho = math.round(alpha * n).toInt
    if (rho == 0) return Array.empty
    if (rho == n) return Array.tabulate(n)(identity)
    // Partial Fisher–Yates over [0, n).
    val perm = Array.tabulate(n)(identity)
    val rng = new Rand.Pcg(seed)
    var i = 0
    while (i < rho) {
      val j = i + rng.nextInt(n - i)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i += 1
    }
    val c = java.util.Arrays.copyOf(perm, rho)
    java.util.Arrays.sort(c)
    c
  }

  /** Build a SketchSet from per-sketch canonical CC labelings.
    * `ccOf(r)` must return, for sketch r, an n-array mapping each vertex
    * to the minimum vertex id of its component in G'_r.
    *
    * The R sketches are split into at most `Par.threads` contiguous
    * ranges, built in parallel. Each range keeps plain partial sums of
    * the initial scores (n longs) and a representative array indexed by
    * CC label; the partial sums are merged once, in parallel, into the
    * first. No atomic or boxed operation is made per vertex, and the sums
    * take at most `Par.threads`·8n bytes, the result included.
    */
  def fromCCLabels(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                   centers: Array[Int])(ccOf: Int => Array[Int]): SketchSet = {
    require(numSketches > 0, s"numSketches=$numSketches must be positive")
    val n = g.n
    val rho = centers.length
    val centerIndex = Array.fill(n)(-1)
    var i = 0
    while (i < rho) { centerIndex(centers(i)) = i; i += 1 }

    val labels = new Array[Array[Int]](numSketches)
    val sizes = new Array[Array[Int]](numSketches)
    // Marginal(∅, v) comes free during construction (every vertex's CC
    // size is in hand before compression discards it) — the MixGreedy
    // first-seed observation; it also means selection counts only
    // RE-evaluations, as in the paper's Tab. 5.
    val pieces = math.min(numSketches, Par.threads)
    val partial = new Array[Array[Long]](pieces)
    Par.parRanges(numSketches, pieces) { (c, lo, hi) =>
      val sum = new Array[Long](n)
      // Representative center index per component label, -1 if none yet.
      val rep = Array.fill(n)(-1)
      var r = lo
      while (r < hi) {
        val cc = ccOf(r)
        val sizeByLabel = LocalCC.sizesOf(cc)
        var v = 0
        while (v < n) { sum(v) += sizeByLabel(cc(v)); v += 1 }
        // Representative = the smallest center index whose center lies in
        // the component (centers are sorted by vertex id, so a forward scan
        // fills each component's rep first); only it holds the size.
        val lab = new Array[Int](rho)
        val siz = new Array[Int](rho)
        var j = 0
        while (j < rho) {
          val l = cc(centers(j))
          if (rep(l) < 0) { rep(l) = j; lab(j) = j; siz(j) = sizeByLabel(l) }
          else lab(j) = rep(l)
          j += 1
        }
        j = 0
        while (j < rho) { rep(cc(centers(j))) = -1; j += 1 }
        labels(r) = lab
        sizes(r) = siz
        r += 1
      }
      partial(c) = sum
    }
    val initScores = partial(0)
    Par.parRanges(n, Par.threads) { (_, lo, hi) =>
      var c = 1
      while (c < pieces) {
        val part = partial(c)
        var v = lo
        while (v < hi) { initScores(v) += part(v); v += 1 }
        c += 1
      }
    }
    new SketchSet(g, sampler, numSketches, centers, centerIndex, labels, sizes, initScores)
  }

  /** Local parallel build (what the benches use). */
  def build(g: CSRGraph, model: ProbModel, numSketches: Int, alpha: Double,
            ccAlgo: CCAlgo = CCAlgo.UnionFind, centerSeed: Long = 0xce57e5L): SketchSet = {
    val sampler = EdgeSampler.forSketches(model)
    val centers = chooseCenters(g.n, alpha, centerSeed)
    fromCCLabels(g, sampler, numSketches, centers) { r =>
      ccAlgo match {
        case CCAlgo.UnionFind => LocalCC.byUnionFind(g, sampler, r)
        case CCAlgo.Coloring => LocalCC.byColoring(g, sampler, r)
      }
    }
  }
}
