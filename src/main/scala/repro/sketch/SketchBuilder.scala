package repro.sketch

import repro.connectivity.LocalCC
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.util.{Par, Rand}

/** Parallel sketch construction — Alg. 1 step 1 / Alg. 3 Sketch(G, r).
  *
  * The CC algorithm is pluggable:
  *  - [[CCAlgo.UnionFind]] — PaC-IM's choice (ConnectIt stand-in). The R
  *    sketches run in blocks of [[blockSize]] sampled graphs, the blocks
  *    split into one contiguous range per thread. Each block runs one
  *    [[LocalCC.uniteBlock]], which hashes every edge once for the whole
  *    block, and each of its sketches is assembled right after (labels,
  *    sizes, representative centers, partial initial scores) into
  *    per-thread arrays, so no n-array is allocated per sketch;
  *  - [[CCAlgo.Coloring]] — min-label propagation, the algorithm the
  *    paper attributes to InfuserMG's sketch phase; one sketch at a time
  *    through [[fromCCLabels]]. Same output, pays a factor of the
  *    sampled-component diameter.
  * Both assemble each sketch with the same routine ([[Assembly]]).
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

  /** Sketches per block of the union–find build: ceil(R / threads), so
    * that every thread gets a block, at most 16 (B = 8 and B = 32 were no
    * faster for R = 256 on 4 cores), and small enough that the block's n·B
    * forest entries fit in one array (n·B <= Int.MaxValue). Always at
    * least 1.
    */
  def blockSize(n: Int, numSketches: Int, threads: Int): Int = {
    val perThread = (numSketches.toLong + threads - 1) / threads
    val fits = if (n == 0) MaxBlock else Int.MaxValue / n
    math.max(1, math.min(perThread, math.min(MaxBlock, fits).toLong).toInt)
  }

  private final val MaxBlock = 16

  /** Build a SketchSet from per-sketch canonical CC labelings.
    * `ccOf(r)` must return, for sketch r, an n-array mapping each vertex
    * to the minimum vertex id of its component in G'_r.
    */
  def fromCCLabels(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                   centers: Array[Int])(ccOf: Int => Array[Int]): SketchSet =
    assemble(g, sampler, numSketches, centers, numSketches) { (lo, hi, asm) =>
      var r = lo
      while (r < hi) { asm.add(r, ccOf(r)); r += 1 }
    }

  /** Local parallel build (what the benches use). */
  def build(g: CSRGraph, model: ProbModel, numSketches: Int, alpha: Double,
            ccAlgo: CCAlgo = CCAlgo.UnionFind, centerSeed: Long = 0xce57e5L): SketchSet = {
    val sampler = EdgeSampler.forSketches(model)
    val centers = chooseCenters(g.n, alpha, centerSeed)
    ccAlgo match {
      case CCAlgo.UnionFind => byBlocks(g, sampler, numSketches, centers)
      case CCAlgo.Coloring =>
        fromCCLabels(g, sampler, numSketches, centers)(LocalCC.byColoring(g, sampler, _))
    }
  }

  // The sketches in blocks of [[blockSize]]: one blocked union–find per
  // block, then each of its sketches is labelled into one reused n-array
  // and assembled at once. A range of blocks holds B·4n + 4n bytes of CC
  // state, allocated here and dropped with the range.
  private def byBlocks(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                       centers: Array[Int]): SketchSet = {
    val n = g.n
    val b = blockSize(n, numSketches, Par.threads)
    val blocks = ((numSketches.toLong + b - 1) / b).toInt
    assemble(g, sampler, numSketches, centers, blocks) { (lo, hi, asm) =>
      val par = new Array[Int](n * b)
      val cc = new Array[Int](n)
      var k = lo
      while (k < hi) {
        val r0 = k * b
        val bk = math.min(b, numSketches - r0)
        LocalCC.uniteBlock(g, sampler, r0, bk, par)
        var j = 0
        while (j < bk) {
          LocalCC.labelOf(par, bk, j, cc)
          asm.add(r0 + j, cc)
          j += 1
        }
        k += 1
      }
    }
  }

  /** The parallel skeleton of both builds. `units` (sketches or blocks)
    * are split into at most `Par.threads` contiguous ranges, built in
    * parallel; `body(lo, hi, asm)` feeds the range's sketches to its own
    * [[Assembly]]. Each assembly keeps plain partial sums of the initial
    * scores (n longs); they are merged once, in parallel, into the first.
    * No atomic or boxed operation is made per vertex, and the sums take at
    * most `Par.threads`·8n bytes, the result included.
    */
  private def assemble(g: CSRGraph, sampler: EdgeSampler, numSketches: Int, centers: Array[Int],
                       units: Int)(body: (Int, Int, Assembly) => Unit): SketchSet = {
    require(numSketches > 0, s"numSketches=$numSketches must be positive")
    val n = g.n
    val centerIndex = Array.fill(n)(-1)
    var i = 0
    while (i < centers.length) { centerIndex(centers(i)) = i; i += 1 }

    val labels = new Array[Array[Int]](numSketches)
    val sizes = new Array[Array[Int]](numSketches)
    val pieces = math.min(units, Par.threads)
    val partial = new Array[Array[Long]](pieces)
    Par.parRanges(units, pieces) { (c, lo, hi) =>
      val asm = new Assembly(n, centers, labels, sizes)
      body(lo, hi, asm)
      partial(c) = asm.sum
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

  /** Assembles sketches one at a time on one thread: compresses sketch
    * r's canonical labels to (labels(r), sizes(r)) over the ρ centers and
    * adds every vertex's component size to `sum`. Its n-arrays are reused
    * across sketches.
    */
  private final class Assembly(n: Int, centers: Array[Int],
                               labels: Array[Array[Int]], sizes: Array[Array[Int]]) {
    // Marginal(∅, v) comes free during construction (every vertex's CC
    // size is in hand before compression discards it) — the MixGreedy
    // first-seed observation; it also means selection counts only
    // RE-evaluations, as in the paper's Tab. 5.
    val sum = new Array[Long](n)
    // Component size per CC label; all zero between sketches.
    private val sizeByLabel = new Array[Int](n)
    // Representative center index per component label, -1 if none yet.
    private val rep = Array.fill(n)(-1)

    /** Adds sketch r, whose canonical labels are `cc` (not kept). */
    def add(r: Int, cc: Array[Int]): Unit = {
      LocalCC.sizesOf(cc, sizeByLabel)
      var v = 0
      while (v < n) { sum(v) += sizeByLabel(cc(v)); v += 1 }
      // Representative = the smallest center index whose center lies in
      // the component (centers are sorted by vertex id, so a forward scan
      // fills each component's rep first); only it holds the size.
      val rho = centers.length
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
      java.util.Arrays.fill(sizeByLabel, 0)
      labels(r) = lab
      sizes(r) = siz
    }
  }
}
