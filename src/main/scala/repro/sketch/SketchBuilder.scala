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
    val initSums = new java.util.concurrent.atomic.AtomicLongArray(n)
    Par.parFor(numSketches) { r =>
      val cc = ccOf(r)
      val sizeByLabel = LocalCC.sizesOf(cc)
      var v = 0
      while (v < n) { initSums.addAndGet(v, sizeByLabel(cc(v)).toLong); v += 1 }
      // Representative center index per component = the smallest center
      // index whose center lies in that component (centers are sorted by
      // vertex id, so a forward scan fills each component's rep first).
      val rep = new java.util.HashMap[Integer, Integer]()
      val lab = new Array[Int](rho)
      val siz = new Array[Int](rho)
      var j = 0
      while (j < rho) {
        val l = cc(centers(j))
        val prev = rep.putIfAbsent(Int.box(l), Int.box(j))
        lab(j) = if (prev == null) j else prev.intValue()
        j += 1
      }
      j = 0
      while (j < rho) {
        siz(j) = if (lab(j) == j) sizeByLabel(cc(centers(j))) else 0
        j += 1
      }
      labels(r) = lab
      sizes(r) = siz
    }
    val initScores = Array.tabulate(n)(initSums.get)
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
