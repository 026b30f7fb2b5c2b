package repro.sketch

import repro.connectivity.LocalCC
import repro.graph.{CSRGraph, Engine}
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.util.{Par, Rand}

/** Parallel sketch construction — Alg. 1 step 1 / Alg. 3 Sketch(G, r).
  *
  * [[build]] runs PaC-IM's blocked union–find (ConnectIt stand-in). The R
  * sketches run in blocks of [[blockSize]] sampled graphs, the blocks
  * split into one contiguous range per thread ([[buildOn]], on either
  * [[repro.graph.Engine]]). Each block runs one
  * [[LocalCC.uniteBlock]], which draws its edges in chunks, each chunk in
  * all of the block's graphs at once by one vectorized kernel
  * (`EdgeSampler.sampleChunk`). Each of the block's sketches is assembled
  * right after (labels, sizes, representative centers, partial initial
  * scores) into per-range arrays, so no n-array is allocated per sketch.
  * The Spark build ([[SparkSketchBuilder]]) is the same code with its
  * ranges in Spark tasks. [[fromCCLabels]] assembles
  * sketches from any per-sketch CC labeling with the same routine
  * ([[Assembly]]); the InfuserMG baseline feeds it coloring CC.
  * `SketchSet.refresh` reruns the union–find pass with a seed mask and
  * keeps only the sums ([[componentSums]]), so it draws with the same
  * kernel.
  */
object SketchBuilder {

  /** Uniformly random ρ = round(αn) centers (sorted by vertex id),
    * deterministic in n and α — Sec. 3's uniform center selection.
    */
  def chooseCenters(n: Int, alpha: Double): Array[Int] = {
    require(alpha >= 0 && alpha <= 1, s"alpha=$alpha out of [0,1]")
    val rho = math.round(alpha * n).toInt
    if (rho == 0) return Array.empty
    if (rho == n) return Array.tabulate(n)(identity)
    // Partial Fisher–Yates over [0, n).
    val perm = Array.tabulate(n)(identity)
    val rng = new Rand.Pcg(CenterSeed)
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
    * that every thread gets a block, at most 16, and small enough that the
    * block's n·B forest entries fit in one array (n·B <= Int.MaxValue).
    * Always at least 1. The cap was measured again with the vectorized
    * draws, as imbench `im_s` on `sf-full` (R = 256, 4 cores; medians of
    * 3 alternating pairs against B = 16): B = 8 was slower (0.1140 →
    * 0.1339 s), B = 32 and B = 64 no faster (0.1128 → 0.1120 s, 0.1117 →
    * 0.1111 s), and B = 32 on `sf-compressed` read 0.2046 → 0.2101 s.
    */
  def blockSize(n: Int, numSketches: Int, threads: Int): Int = {
    val perThread = (numSketches.toLong + threads - 1) / threads
    val fits = if (n == 0) MaxBlock else Int.MaxValue / n
    math.max(1, math.min(perThread, math.min(MaxBlock, fits).toLong).toInt)
  }

  private final val MaxBlock = 16
  private final val CenterSeed = 0xce57e5L

  /** Build a SketchSet from per-sketch canonical CC labelings.
    * `ccOf(r)` must return, for sketch r, an n-array mapping each vertex
    * to the minimum vertex id of its component in G'_r.
    */
  def fromCCLabels(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                   centers: Array[Int])(ccOf: Int => Array[Int]): SketchSet = {
    require(numSketches > 0, s"numSketches=$numSketches must be positive")
    sketchSet(g, sampler, centers, Engine.Local.ranges(g, centers, numSketches) { (gg, cs, lo, hi) =>
      val asm = new Assembly(gg.n, cs, lo, hi)
      var r = lo
      while (r < hi) { asm.add(r, ccOf(r)); r += 1 }
      asm.part
    })
  }

  /** Local parallel build (what the benches use). */
  def build(g: CSRGraph, model: ProbModel, numSketches: Int, alpha: Double): SketchSet =
    buildOn(Engine.Local, g, model, numSketches, alpha)

  /** The union–find build on `engine`: the blocks of [[blockSize]]
    * sketches are split into one contiguous range per thread or task, and
    * each range runs [[buildBlocks]] into its own [[Assembly]], whose part
    * [[sketchSet]] concatenates and merges. The sampler hash is a pure
    * function and the initial scores are exact integer sums, so both
    * engines give bit-identical sketch sets (tests assert it).
    */
  private[repro] def buildOn(engine: Engine, g: CSRGraph, model: ProbModel, numSketches: Int,
                             alpha: Double): SketchSet = {
    require(numSketches > 0, s"numSketches=$numSketches must be positive")
    val sampler = EdgeSampler.forSketches(model)
    val centers = chooseCenters(g.n, alpha)
    val b = blockSize(g.n, numSketches, engine.parallelism)
    val parts = engine.ranges(g, (sampler, centers), blocks(numSketches, b)) { case (gg, (sm, cs), lo, hi) =>
      val asm = new Assembly(gg.n, cs, lo * b, math.min(hi * b, numSketches))
      buildBlocks(gg, sm, numSketches, b, lo, hi, asm)
      asm.part
    }
    sketchSet(g, sampler, centers, parts)
  }

  /** Blocks of b sketches that hold `numSketches`. */
  private def blocks(numSketches: Int, b: Int): Int = ((numSketches.toLong + b - 1) / b).toInt

  /** The union–find build of blocks lo until hi, where block k holds
    * sketches k·b until min((k+1)·b, numSketches), on the calling thread:
    * one blocked union–find per block, then each of its sketches is
    * labelled into one reused n-array and added to `asm` at once. It holds
    * b·4n + 4n bytes of CC state, allocated here and dropped on return.
    */
  private def buildBlocks(g: CSRGraph, sampler: EdgeSampler, numSketches: Int, b: Int,
                          lo: Int, hi: Int, asm: Assembly): Unit = {
    val n = g.n
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

  /** Σ over the R sampled graphs of each vertex's component size, where a
    * component that holds one of `seeds` counts as 0: every vertex's
    * marginal after `seeds` (a seed's own is 0). The union–find build's
    * pass ([[buildBlocks]]) on [[Engine.Local]], with a seed mask and no
    * sketch kept, so it holds only the build's transient per-thread state.
    */
  private[sketch] def componentSums(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                                    seeds: Array[Int]): Array[Long] = {
    val b = blockSize(g.n, numSketches, Engine.Local.parallelism)
    merged(g.n, Engine.Local.ranges(g, seeds, blocks(numSketches, b)) { (gg, ss, lo, hi) =>
      val asm = new Assembly(gg.n, ss)
      buildBlocks(gg, sampler, numSketches, b, lo, hi, asm)
      asm.part.sum
    })
  }

  /** The SketchSet of assembled sketches: the parts' sketches, which
    * cover 0 until R in ascending ranges, concatenated, and their initial
    * score sums (n longs each) merged.
    */
  private def sketchSet(g: CSRGraph, sampler: EdgeSampler, centers: Array[Int],
                        parts: Array[Part]): SketchSet = {
    val n = g.n
    val centerIndex = Array.fill(n)(-1)
    var i = 0
    while (i < centers.length) { centerIndex(centers(i)) = i; i += 1 }
    val labels = parts.flatMap(_.labels)
    new SketchSet(g, sampler, labels.length, centers, centerIndex, labels, parts.flatMap(_.sizes),
                  merged(n, parts.map(_.sum)))
  }

  /** Partial sums (n longs each, at least one) merged once, in parallel,
    * into the first, which is returned. No atomic or boxed operation is
    * made per vertex.
    */
  private def merged(n: Int, partial: Array[Array[Long]]): Array[Long] = {
    val total = partial(0)
    Par.parRanges(n, Par.threads) { (lo, hi) =>
      var c = 1
      while (c < partial.length) {
        val part = partial(c)
        var v = lo
        while (v < hi) { total(v) += part(v); v += 1 }
        c += 1
      }
    }
    total
  }

  /** What one [[Assembly]] made: the labels and sizes of its sketches
    * (none in the scoring form) and its partial initial scores.
    */
  private[sketch] final case class Part(labels: Array[Array[Int]], sizes: Array[Array[Int]],
                                        sum: Array[Long])

  /** Assembles sketches one at a time on one thread: compresses the
    * canonical labels of sketch r, r0 <= r < r1, to its (labels, sizes)
    * over the ρ centers and adds every vertex's component size to the
    * partial sums; [[part]] returns all three. The scoring form (the
    * second constructor) keeps no sketch (its part's labels and sizes are
    * null) and counts the components that hold one of its seeds as 0. Its
    * n-arrays are reused across sketches.
    */
  private[sketch] final class Assembly private (n: Int, centers: Array[Int], r0: Int,
                                                labels: Array[Array[Int]], sizes: Array[Array[Int]],
                                                seeds: Array[Int]) {
    def this(n: Int, centers: Array[Int], r0: Int, r1: Int) =
      this(n, centers, r0, new Array[Array[Int]](r1 - r0), new Array[Array[Int]](r1 - r0),
           Array.emptyIntArray)

    /** Sums only, with the components of `seeds` counted as 0. */
    def this(n: Int, seeds: Array[Int]) = this(n, Array.emptyIntArray, 0, null, null, seeds)

    // Marginal(∅, v) comes free during construction (every vertex's CC
    // size is in hand before compression discards it) — the MixGreedy
    // first-seed observation; it also means selection counts only
    // RE-evaluations, as in the paper's Tab. 5.
    private val sum = new Array[Long](n)
    // Component size per CC label; all zero between sketches.
    private val sizeByLabel = new Array[Int](n)
    // Representative center index per component label, -1 if none yet
    // (only for compression).
    private val rep = Array.fill(if (labels == null) 0 else n)(-1)

    /** Adds sketch r, whose canonical labels are `cc` (not kept). */
    def add(r: Int, cc: Array[Int]): Unit = {
      LocalCC.sizesOf(cc, sizeByLabel)
      var i = 0
      while (i < seeds.length) { sizeByLabel(cc(seeds(i))) = 0; i += 1 }
      var v = 0
      while (v < n) { sum(v) += sizeByLabel(cc(v)); v += 1 }
      if (labels != null) compress(r, cc)
      java.util.Arrays.fill(sizeByLabel, 0)
    }

    def part: Part = Part(labels, sizes, sum)

    private def compress(r: Int, cc: Array[Int]): Unit = {
      // Representative = the smallest center index whose center lies in
      // the component (a forward scan fills each component's rep first);
      // only it holds the size. No branch on whether rep(l) is set yet:
      // it mispredicts often (DESIGN.md, "Branch-free root tests").
      val rho = centers.length
      val lab = new Array[Int](rho)
      val siz = new Array[Int](rho)
      var j = 0
      while (j < rho) {
        val l = cc(centers(j))
        val nr = Assembly.repAfter(rep(l), j)
        rep(l) = nr; lab(j) = nr
        siz(j) = sizeByLabel(l) & Assembly.ownerMask(nr, j)
        j += 1
      }
      j = 0
      while (j < rho) { rep(cc(centers(j))) = -1; j += 1 }
      labels(r - r0) = lab
      sizes(r - r0) = siz
    }
  }

  private[sketch] object Assembly {
    /** A component's representative once center j, which lies in it, is
      * scanned: `r` if it has one (r >= 0), else j (r = -1). Valid for
      * every r in [-1, Int.MaxValue) and j in [0, Int.MaxValue).
      */
    @inline def repAfter(r: Int, j: Int): Int = r + ((r >> 31) & (j - r))

    /** All ones if center j represents its component (nr = j), else 0,
      * for nr and j in [0, Int.MaxValue).
      */
    @inline def ownerMask(nr: Int, j: Int): Int = ((nr ^ j) - 1) >> 31
  }
}
