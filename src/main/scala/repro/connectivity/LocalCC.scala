package repro.connectivity

import repro.graph.CSRGraph
import repro.sample.EdgeSampler
import repro.util.Rand

/** Connected components of (implicitly) sampled graphs, computed two ways:
  *
  *  - [[uniteBlock]] — what PaC-IM's sketch builder uses (ConnectIt
  *    stand-in): union–find over a *block* of sampled graphs at once.
  *    Each arc's edge hash and threshold are computed once per block, and
  *    each sampled graph of the block adds one splitmix round and an
  *    integer compare (Infuser's fused sampling, with the edge's half of
  *    the hash shared across sketches). [[byUnionFind]] is the same kernel
  *    on a block of one;
  *  - [[byColoring]] — iterative min-label propagation, the "standard
  *    coloring idea" the paper attributes to InfuserMG's sketch phase
  *    (Sec. 5.2). Same output, different cost profile: O(#iterations · m)
  *    where #iterations is the max sampled-component diameter.
  *
  * Both return the canonical labeling: label(v) = min vertex id in v's
  * component of the sampled graph `G'_r`. (A whole graph is the sampled
  * graph of p = 1: its threshold 2^53 is above every 53-bit hash.)
  */
object LocalCC {

  /** Union–find over the b sampled graphs r0 until r0 + b, in b forests
    * interleaved vertex-major: `par(v·b + j)` is v's parent in the forest
    * of graph r0 + j, so the b finds of one endpoint share cache lines.
    * `par` needs n·b entries; its old contents are ignored.
    *
    * A union links the larger root under the smaller, so every root is the
    * minimum vertex id of its component and par(v) < v for every non-root
    * (path halving keeps both); [[labelOf]] relies on it.
    */
  def uniteBlock(g: CSRGraph, sampler: EdgeSampler, r0: Int, b: Int, par: Array[Int]): Unit = {
    require(b >= 1, s"block of $b sampled graphs")
    val n = g.n
    require(par.length.toLong >= n.toLong * b, s"par has ${par.length} < n·b = ${n.toLong * b} entries")
    var x = 0
    var v = 0
    while (v < n) {
      val end = x + b
      while (x < end) { par(x) = v; x += 1 }
      v += 1
    }
    val salts = Array.tabulate(b)(j => sampler.saltOf(r0 + j))
    val model = sampler.model
    val off = g.offsets; val adj = g.adj
    var u = 0
    while (u < n) {
      var i = off(u)
      val end = off(u + 1)
      while (i < end) {
        val w = adj(i)
        if (u < w) {
          // sampleSalted(u, w, salts(j)) with the r-independent half hoisted:
          // mix2(key, s) = mix64(mix64(key) ^ s).
          val h0 = Rand.mix64(Rand.edgeKey(u, w))
          val t = model.threshold(u, w)
          var j = 0
          while (j < b) {
            if ((Rand.mix64(h0 ^ salts(j)) >>> 11) <= t) link(par, b, j, u, w)
            j += 1
          }
        }
        i += 1
      }
      u += 1
    }
  }

  // Root of x in forest j, halving the path on the way.
  @inline private def find(par: Array[Int], b: Int, j: Int, x0: Int): Int = {
    var x = x0
    var p = par(x * b + j)
    while (p != x) {
      val gp = par(p * b + j)
      par(x * b + j) = gp
      x = gp
      p = par(x * b + j)
    }
    x
  }

  @inline private def link(par: Array[Int], b: Int, j: Int, u: Int, w: Int): Unit = {
    val ru = find(par, b, j, u)
    val rw = find(par, b, j, w)
    if (ru < rw) par(rw * b + j) = ru
    else if (rw < ru) par(ru * b + j) = rw
  }

  /** Writes forest j's canonical labels into `out` (n entries) in one
    * ascending pass: par(v) < v for a non-root, so its label is already
    * final. `out` may be `par` itself when b = 1.
    */
  def labelOf(par: Array[Int], b: Int, j: Int, out: Array[Int]): Unit = {
    var v = 0
    while (v < out.length) {
      val p = par(v * b + j)
      out(v) = if (p == v) v else out(p)
      v += 1
    }
  }

  /** Canonical labels of sampled graph r: the blocked kernel on a block of
    * one sketch.
    */
  def byUnionFind(g: CSRGraph, sampler: EdgeSampler, r: Int): Array[Int] = {
    val par = new Array[Int](g.n)
    uniteBlock(g, sampler, r, 1, par)
    labelOf(par, 1, 0, par)
    par
  }

  def byColoring(g: CSRGraph, sampler: EdgeSampler, r: Int): Array[Int] = {
    val label = Array.tabulate(g.n)(identity)
    val rs = sampler.saltOf(r)
    val off = g.offsets; val adj = g.adj
    var changed = true
    while (changed) {
      changed = false
      var u = 0
      while (u < g.n) {
        var i = off(u)
        val end = off(u + 1)
        while (i < end) {
          val v = adj(i)
          if (u < v && sampler.sampleSalted(u, v, rs)) {
            val lu = label(u); val lv = label(v)
            if (lu < lv) { label(v) = lu; changed = true }
            else if (lv < lu) { label(u) = lv; changed = true }
          }
          i += 1
        }
        u += 1
      }
    }
    // Propagation by increasing u already reaches a fixpoint of canonical
    // labels: min labels flow along edges until no edge is bichromatic.
    label
  }

  /** Sizes keyed by canonical label (only entries for label==vertex id). */
  def sizesOf(labels: Array[Int]): Array[Int] = sizesOf(labels, new Array[Int](labels.length))

  /** [[sizesOf]] added into `size`, which must start all zero. */
  def sizesOf(labels: Array[Int], size: Array[Int]): Array[Int] = {
    var v = 0
    while (v < labels.length) { size(labels(v)) += 1; v += 1 }
    size
  }
}
