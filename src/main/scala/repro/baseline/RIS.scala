package repro.baseline

import java.util.concurrent.atomic.LongAdder

import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.select.TournamentTree
import repro.util.{Par, Rand, Scratch}

/** Ripples-style baseline [56, 57]: Reverse Influence Sampling.
  *
  * On an undirected graph under IC, the reverse-reachable (RR) set of a
  * uniformly random target t on a sampled graph is exactly t's connected
  * component there; k seeds are then a greedy maximum coverage of the RR
  * sets. θ follows the TIM/IMM recipe the Ripples family uses:
  * θ = λ(ε) / OPT̂ with λ(ε) = (8+2ε)·n·(ln n + ln C(n,k) + ln 2)/ε² and
  * OPT̂ a lower bound estimated from a pilot batch (KPT-style).
  *
  * The paper runs Ripples at ε = 0.5 (fastest setting, quality ≥ 93%).
  * Substitution note (DESIGN.md): RR storage is capped at `maxStoredInts`
  * (the paper's machine has 1.5TB; ours doesn't) — when the cap binds,
  * `cappedTheta < requiredTheta` is reported so the table can show it,
  * mirroring how Ripples runs out of memory/time on the larger graphs.
  */
object RIS {

  /** @param bytes modeled memory: the RR sets and their inverted index (4
    *              bytes per entry each) plus max coverage's working arrays
    *              ([[Cover]]`.bytes`)
    */
  final case class Result(
      seeds: Array[Int],
      theta: Long,
      requiredTheta: Long,
      bytes: Long,
      genTimeMs: Long,
      coverTimeMs: Long,
      capped: Boolean,
  ) {
    def totalTimeMs: Long = genTimeMs + coverTimeMs
  }

  /** One RR set: the component of a random target on sampled graph `idx`. */
  private def rrSet(g: CSRGraph, sampler: EdgeSampler, idx: Int): Array[Int] = {
    val t = ((Rand.mix2(0x7a26e7L, idx.toLong) >>> 1) % g.n).toInt
    val s = Scratch.local(g.n)
    s.reset()
    s.visit(t)
    s.queue(0) = t
    val rs = sampler.saltOf(idx)
    val off = g.offsets; val adj = g.adj
    var head = 0; var tail = 1
    while (head < tail) {
      val u = s.queue(head); head += 1
      var i = off(u)
      val end = off(u + 1)
      while (i < end) {
        val w = adj(i)
        if (!s.visited(w) && sampler.sampleSalted(u, w, rs)) {
          s.visit(w); s.queue(tail) = w; tail += 1
        }
        i += 1
      }
    }
    java.util.Arrays.copyOf(s.queue, tail)
  }

  /** ln C(n, k). */
  private def lnChoose(n: Long, k: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < k) { s += math.log((n - i).toDouble / (i + 1)); i += 1 }
    s
  }

  /** Seeds of a max coverage, the number of sets they cover, and the bytes
    * of its working arrays besides the inverted index: `deg`, `off`, `cur`
    * and `counts` (4n each), `snap` (8n), the tournament tree (4(2L − 1))
    * and `covered` (one byte per set).
    */
  private[baseline] final case class Cover(seeds: Array[Int], covered: Int, bytes: Long)

  /** Greedy max coverage (lazy/CELF-accelerated) of the RR sets: k times
    * the vertex in the most uncovered sets, the smaller id on ties. Rejects
    * n above the tree's limit before allocating anything.
    */
  private[baseline] def maxCover(n: Int, sets: Array[Array[Int]], k: Int): Cover = {
    TournamentTree.leafCount(n)
    // Inverted index: vertex -> RR-set ids containing it.
    val deg = new Array[Int](n)
    sets.foreach(_.foreach(v => deg(v) += 1))
    val off = new Array[Int](n + 1)
    var v = 0
    while (v < n) { off(v + 1) = off(v) + deg(v); v += 1 }
    val inv = new Array[Int](off(n))
    val cur = off.clone()
    var si = 0
    while (si < sets.length) {
      sets(si).foreach { u => inv(cur(u)) = si; cur(u) += 1 }
      si += 1
    }
    val counts = deg.clone()
    val covered = new Array[Boolean](sets.length)
    var coveredSets = 0
    // Lazy greedy (CELF-style): coverage counts only decrease, so the tree
    // orders vertices by a snapshot of their count, and a top whose
    // snapshot is stale is re-keyed in place with its current count.
    val snap = Array.tabulate(n)(counts(_).toLong)
    val tree = new TournamentTree(snap)
    val seeds = new Array[Int](math.min(k, n))
    var s = 0
    while (s < seeds.length) {
      var top = tree.top
      while (counts(top) != snap(top)) {
        snap(top) = counts(top)
        tree.update(top)
        top = tree.top
      }
      tree.remove(top)
      seeds(s) = top
      var i = off(top)
      while (i < off(top + 1)) {
        val set = inv(i)
        if (!covered(set)) {
          covered(set) = true
          coveredSets += 1
          sets(set).foreach(u => counts(u) -= 1)
        }
        i += 1
      }
      s += 1
    }
    Cover(seeds, coveredSets, 24L * n + tree.bytes + sets.length)
  }

  /** k seeds for g. With no vertex or no seed to pick, returns no seeds
    * at once, with θ = 0 and nothing capped.
    */
  def run(g: CSRGraph, model: ProbModel, k: Int, eps: Double = 0.5,
          maxStoredInts: Long = 50000000L, maxSets: Long = 4000000L,
          pilot: Int = 1024): Result = {
    require(k >= 0, s"k=$k must be non-negative")
    val n = g.n
    if (n == 0 || k == 0) return Result(Array.emptyIntArray, 0L, 0L, 0L, 0L, 0L, capped = false)
    val sampler = EdgeSampler.forRis(model)
    val t0 = System.nanoTime()

    // --- Pilot: estimate an OPT lower bound from a small batch. ---
    val pilotSets = Par.parTabulate(pilot)(i => rrSet(g, sampler, Int.MaxValue - i))
    val frac = maxCover(n, pilotSets, k).covered.toDouble / pilot
    val optHat = math.max(k.toDouble, frac * n / (1.0 + eps))

    // --- θ from the IMM bound, capped by the storage budget. ---
    val lambda = (8 + 2 * eps) * n * (math.log(n) + lnChoose(n, k) + math.log(2)) / (eps * eps)
    val requiredTheta = math.ceil(lambda / optHat).toLong
    // Estimate per-set size from the pilot to honor the int budget.
    val meanSize = math.max(1.0, pilotSets.iterator.map(_.length.toLong).sum.toDouble / pilot)
    val affordable =
      math.max(pilot.toLong, math.min(maxSets, (maxStoredInts / meanSize).toLong))
    val theta = math.min(requiredTheta, affordable)
    val capped = theta < requiredTheta

    // --- Generate θ RR sets and greedily cover. ---
    val stored = new LongAdder
    val sets = Par.parTabulate(theta.toInt) { i =>
      val rr = rrSet(g, sampler, i)
      stored.add(rr.length.toLong)
      rr
    }
    val t1 = System.nanoTime()
    val cover = maxCover(n, sets, k)
    val t2 = System.nanoTime()

    Result(
      seeds = cover.seeds,
      theta = theta,
      requiredTheta = requiredTheta,
      bytes = 8L * stored.sum() + cover.bytes,
      genTimeMs = (t1 - t0) / 1000000,
      coverTimeMs = (t2 - t1) / 1000000,
      capped = capped,
    )
  }
}
