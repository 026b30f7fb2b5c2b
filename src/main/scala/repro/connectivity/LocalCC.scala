package repro.connectivity

import repro.graph.CSRGraph
import repro.sample.EdgeSampler

/** Connected components of (implicitly) sampled graphs, computed two ways:
  *
  *  - [[uniteBlock]] — what PaC-IM's sketch builder uses (ConnectIt
  *    stand-in): Rem's union–find with splicing, the sequential form of
  *    ConnectIt's UniteRem, over a *block* of sampled graphs at once.
  *    The scan collects the u < w arcs into chunks, and
  *    [[EdgeSampler.sampleChunk]] draws each chunk in every graph of the
  *    block at once (Infuser's fused sampling: each edge's half of the hash
  *    is shared across sketches, and the draws run in vector lanes).
  *    [[byUnionFind]] is the same kernel on a block of one;
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
    * of graph r0 + j, so the b entries of one vertex share cache lines.
    * `par` needs n·b entries; its old contents are ignored.
    *
    * A union is Rem's union–find with splicing, oriented to minimum ids:
    * a node only ever gets a smaller parent, so par(v) < v for every
    * non-root and every root is the minimum vertex id of its component;
    * [[labelOf]] relies on it. 1 <= b <= 64.
    *
    * The u < w arcs are drawn in chunks of [[EdgeSampler.ChunkSize]]
    * ([[EdgeSampler.sampleChunk]]) and linked in scan order, so the
    * forests do not depend on the chunk size.
    */
  def uniteBlock(g: CSRGraph, sampler: EdgeSampler, r0: Int, b: Int, par: Array[Int]): Unit = {
    require(b >= 1 && b <= 64, s"block of $b sampled graphs")
    val n = g.n
    require(par.length.toLong >= n.toLong * b, s"par has ${par.length} < n·b = ${n.toLong * b} entries")
    var x = 0
    var v = 0
    while (v < n) {
      val end = x + b
      while (x < end) { par(x) = v; x += 1 }
      v += 1
    }
    val salts = sampler.saltsOf(r0, b)
    val chunk = new EdgeSampler.Chunk
    val off = g.offsets; val adj = g.adj
    var u = 0
    while (u < n) {
      var i = off(u)
      val end = off(u + 1)
      while (i < end) {
        val w = adj(i)
        if (u < w) {
          chunk.add(u, w)
          if (chunk.full) linkChunk(sampler, salts, chunk, par, b)
        }
        i += 1
      }
      u += 1
    }
    linkChunk(sampler, salts, chunk, par, b)
  }

  // Draws the chunk's edges in the block's graphs, then links each edge in
  // the forests of the graphs that keep it, edge by edge in chunk order and
  // each edge's forests in ascending order: the links of a scan that drew
  // one edge at a time. Empties the chunk.
  private def linkChunk(sampler: EdgeSampler, salts: Array[Long], c: EdgeSampler.Chunk,
                        par: Array[Int], b: Int): Unit = {
    sampler.sampleChunk(c, salts)
    var i = 0
    while (i < c.len) {
      var hit = c.mask(i)
      while (hit != 0L) {
        link(par, b, java.lang.Long.numberOfTrailingZeros(hit), c.u(i), c.w(i))
        hit &= hit - 1
      }
      i += 1
    }
    c.len = 0
  }

  // Rem's union–find with splicing in forest j (Patwary, Blair & Manne,
  // SEA'10): climbs from u and w at once, always from the side whose
  // parent is larger, and hangs that node under the other side's parent,
  // until the parents agree or a root has been hung (the link).
  @inline private def link(par: Array[Int], b: Int, j: Int, u: Int, w: Int): Unit = {
    var x = u; var y = w
    var px = par(x * b + j); var py = par(y * b + j)
    while (px != py) {
      if (px > py) {
        par(x * b + j) = py
        if (x == px) return
        x = px; px = par(x * b + j)
      } else {
        par(y * b + j) = px
        if (y == py) return
        y = py; py = par(y * b + j)
      }
    }
  }

  /** Writes forest j's canonical labels into `out` (n entries) in one
    * ascending pass: par(v) < v for a non-root, so its label is already
    * final, and a root (p = v) reads the id just written: no root test
    * (DESIGN.md, "Branch-free root tests"). `out` may be `par` when b = 1.
    */
  def labelOf(par: Array[Int], b: Int, j: Int, out: Array[Int]): Unit = {
    var v = 0
    while (v < out.length) {
      val p = par(v * b + j)
      out(v) = v
      out(v) = out(p)
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

  /** Component sizes keyed by canonical label (only entries for
    * label == vertex id), added into `size`, which must start all zero.
    */
  def sizesOf(labels: Array[Int], size: Array[Int]): Array[Int] = {
    var v = 0
    while (v < labels.length) { size(labels(v)) += 1; v += 1 }
    size
  }
}
