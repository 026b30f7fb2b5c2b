package repro.connectivity

import repro.graph.CSRGraph
import repro.sample.EdgeSampler

/** Connected components of an (implicitly) sampled graph, computed two
  * ways:
  *
  *  - [[byUnionFind]] — what PaC-IM's sketch builder uses (ConnectIt
  *    stand-in);
  *  - [[byColoring]] — iterative min-label propagation, the "standard
  *    coloring idea" the paper attributes to InfuserMG's sketch phase
  *    (Sec. 5.2). Same output, different cost profile: O(#iterations · m)
  *    where #iterations is the max sampled-component diameter.
  *
  * Both return the canonical labeling: label(v) = min vertex id in v's
  * component of the sampled graph `G'_r` (r < 0 means "use all edges").
  */
object LocalCC {

  // Both scan `g.offsets`/`g.adj` directly and derive the sampled graph's
  // salt once (`all` = every edge is kept).

  def byUnionFind(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val uf = new UnionFind(g.n)
    val all = r < 0
    val rs = if (all) 0L else sampler.saltOf(r)
    val off = g.offsets; val adj = g.adj
    var u = 0
    while (u < g.n) {
      var i = off(u)
      val end = off(u + 1)
      while (i < end) {
        val v = adj(i)
        if (u < v && (all || sampler.sampleSalted(u, v, rs))) uf.union(u, v)
        i += 1
      }
      u += 1
    }
    uf.labels
  }

  def byColoring(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val label = Array.tabulate(g.n)(identity)
    val all = r < 0
    val rs = if (all) 0L else sampler.saltOf(r)
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
          if (u < v && (all || sampler.sampleSalted(u, v, rs))) {
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
  def sizesOf(labels: Array[Int]): Array[Int] = {
    val size = new Array[Int](labels.length)
    var v = 0
    while (v < labels.length) { size(labels(v)) += 1; v += 1 }
    size
  }
}
