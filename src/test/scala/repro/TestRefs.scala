package repro

import repro.TestGens.GraphOps
import repro.core.InfluenceEval
import repro.graph.CSRGraph
import repro.prob.{Constant, ProbModel}
import repro.sample.EdgeSampler
import repro.util.Rand

/** Brute-force reference implementations the real code is checked
  * against. Everything here is deliberately simple and slow.
  */
object TestRefs {

  /** Is {u, v} in sampled graph r? The sampling formula written out on its
    * own: a 53-bit hash of the edge key and the graph's salt, scaled to
    * [0, 1) as a double and compared with p_e. It shares no code with
    * `EdgeSampler`'s salt or threshold path.
    */
  def sampleRef(sampler: EdgeSampler, u: Int, v: Int, r: Int): Boolean =
    Rand.hash01(Rand.edgeKey(u, v), Rand.mix2(sampler.salt, r.toLong)) <= sampler.model.prob(u, v)

  /** Keeps every edge in every sampled graph: p = 1 gives the threshold
    * 2^53, above every 53-bit hash. The real CC code labels a whole graph
    * as sketch 0 of this sampler.
    */
  val allEdges: EdgeSampler = EdgeSampler.forSketches(Constant(1.0))

  /** Canonical CC labels (min vertex id per component) of sampled graph
    * r via plain BFS; r < 0 means all edges.
    */
  def bfsCC(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val label = Array.fill(g.n)(-1)
    var v = 0
    while (v < g.n) {
      if (label(v) == -1) {
        var frontier = List(v)
        label(v) = v
        while (frontier.nonEmpty) {
          val u = frontier.head
          frontier = frontier.tail
          g.foreachNeighbor(u) { w =>
            if (label(w) == -1 && (r < 0 || sampleRef(sampler, u, w, r))) {
              label(w) = v
              frontier = w :: frontier
            }
          }
        }
      }
      v += 1
    }
    label
  }

  /** Vertices activated in IC simulation `sim` (the sampler's sampled
    * graph `sim`) from `seeds`, seeds included: a plain FIFO BFS, one
    * simulation at a time.
    */
  def simulateRef(g: CSRGraph, sampler: EdgeSampler, seeds: Seq[Int], sim: Int): Int = {
    val seen = scala.collection.mutable.Set.empty[Int]
    val queue = scala.collection.mutable.Queue.empty[Int]
    seeds.foreach(v => if (seen.add(v)) queue.enqueue(v))
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      g.foreachNeighbor(u) { w =>
        if (!seen(w) && sampleRef(sampler, u, w, sim)) { seen += w; queue.enqueue(w) }
      }
    }
    seen.size
  }

  /** Vertices GetCenter visits for v on sampled graph r: a FIFO BFS over
    * neighbors in ascending order that stops at the first sampled neighbor
    * that is a center (counted) or a seed (not counted); a center v costs
    * one visit, a seed v none.
    */
  def getCenterVisits(g: CSRGraph, sampler: EdgeSampler, r: Int, v: Int,
                      isCenter: Int => Boolean, isSeed: Int => Boolean): Long = {
    if (isSeed(v)) return 0L
    if (isCenter(v)) return 1L
    val seen = scala.collection.mutable.Set(v)
    val queue = scala.collection.mutable.Queue(v)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      val it = g.neighbors(u).iterator.filter(w => !seen(w) && sampleRef(sampler, u, w, r))
      while (it.hasNext) {
        val w = it.next()
        if (isCenter(w)) return seen.size + 1L
        if (isSeed(w)) return seen.size.toLong
        seen += w
        queue.enqueue(w)
      }
    }
    seen.size.toLong
  }

  /** Sketch assembly the plain way, one sketch at a time with a HashMap
    * from CC label to representative center index: (labels, sizes,
    * scores) as `SketchBuilder.fromCCLabels` must produce them.
    */
  def assembleRef(n: Int, centers: Array[Int],
                  ccs: Seq[Array[Int]]): (Seq[Seq[Int]], Seq[Seq[Int]], Seq[Long]) = {
    val init = new Array[Long](n)
    val perSketch = ccs.map { cc =>
      val size = cc.groupBy(identity).view.mapValues(_.length).toMap
      (0 until n).foreach(v => init(v) += size(cc(v)))
      val rep = scala.collection.mutable.HashMap.empty[Int, Int]
      val lab = centers.indices.map(j => rep.getOrElseUpdate(cc(centers(j)), j))
      val siz = centers.indices.map(j => if (lab(j) == j) size(cc(centers(j))) else 0)
      (lab, siz)
    }
    (perSketch.map(_._1), perSketch.map(_._2), init.toSeq)
  }

  /** R × the sketch-estimated influence σ̂(S): the total over the R
    * sampled graphs of the number of vertices in components touched by S
    * (exact, like `SketchSet.marginal`).
    */
  def sketchSigma(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                  seeds: Seq[Int]): Long = {
    var total = 0L
    var r = 0
    while (r < numSketches) {
      val cc = bfsCC(g, sampler, r)
      val seedLabels = seeds.map(cc).toSet
      total += (0 until g.n).count(v => seedLabels.contains(cc(v)))
      r += 1
    }
    total
  }

  /** Exhaustive greedy on σ̂ with (gain, id) tie-break — the semantics
    * every selector must reproduce exactly.
    */
  def bruteGreedy(g: CSRGraph, sampler: EdgeSampler, numSketches: Int, k: Int): Array[Int] = {
    val seeds = scala.collection.mutable.ArrayBuffer.empty[Int]
    while (seeds.length < math.min(k, g.n)) {
      val base = if (seeds.isEmpty) 0L else sketchSigma(g, sampler, numSketches, seeds.toSeq)
      var best = -1
      var bestGain = -1L
      var v = 0
      while (v < g.n) {
        if (!seeds.contains(v)) {
          val gain = sketchSigma(g, sampler, numSketches, seeds.toSeq :+ v) - base
          if (gain > bestGain) { bestGain = gain; best = v }
        }
        v += 1
      }
      seeds += best
    }
    seeds.toArray
  }

  /** GeneralGreedy [43] (Tab. 2 row 1): the original greedy algorithm,
    * which estimates every σ(S ∪ {v}) with fresh Monte-Carlo simulations
    * and evaluates all vertices each round, O(n·R'·T) work per seed. An
    * independent quality oracle for the sketch-based systems on tiny
    * graphs.
    */
  def generalGreedy(g: CSRGraph, model: ProbModel, k: Int, mcRounds: Int): Array[Int] =
    (0 until math.min(k, g.n)).foldLeft(Vector.empty[Int]) { (seeds, _) =>
      // σ(S ∪ {v}) has the arg-max of the gain σ(S ∪ {v}) − σ(S); ties go to the smaller id.
      seeds :+ (0 until g.n).filterNot(seeds.contains)
        .maxBy(v => InfluenceEval.estimate(g, (seeds :+ v).toArray, model, mcRounds))
    }.toArray
}
