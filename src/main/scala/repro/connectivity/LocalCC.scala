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

  @inline private def keep(sampler: EdgeSampler, u: Int, v: Int, r: Int): Boolean =
    r < 0 || sampler.sample(u, v, r)

  def byUnionFind(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val uf = new UnionFind(g.n)
    var u = 0
    while (u < g.n) {
      g.foreachNeighbor(u) { v =>
        if (u < v && keep(sampler, u, v, r)) uf.union(u, v)
      }
      u += 1
    }
    uf.labels
  }

  def byColoring(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val label = Array.tabulate(g.n)(identity)
    var changed = true
    while (changed) {
      changed = false
      var u = 0
      while (u < g.n) {
        g.foreachNeighbor(u) { v =>
          if (u < v && keep(sampler, u, v, r)) {
            val lu = label(u); val lv = label(v)
            if (lu < lv) { label(v) = lu; changed = true }
            else if (lv < lu) { label(u) = lv; changed = true }
          }
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
