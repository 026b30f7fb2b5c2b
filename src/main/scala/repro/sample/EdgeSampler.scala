package repro.sample

import repro.prob.ProbModel
import repro.util.Rand

/** Deterministic ("fusion") edge sampling — Alg. 3, lines 8–10.
  *
  * Whether edge e = {u, v} is present in sampled graph r is a pure
  * function of (e, r): `hash01(edgeKey(u,v), saltOf(r)) <= p_e`. A sampled
  * graph is therefore never materialized; BFS over it re-hashes edges on
  * the fly, and any process (test, Spark executor, oracle) reconstructs
  * the identical graph from the sketch id r.
  *
  * `salt` decouples families of draws: sketches, Monte-Carlo influence
  * simulations, and RR-set sampling each use their own salt so they are
  * independent experiments. Within a family, graph r has its own salt
  * `saltOf(r)`. This class is the only place that draws an edge, in two
  * forms:
  *  - [[sampleSalted]]: one edge in one sampled graph, for a loop that
  *    derives its graph's salt once. It costs one splitmix round pair and
  *    an integer compare against [[ProbModel.threshold]];
  *  - [[sampleBlock]]: one edge in up to 64 sampled graphs at once, for the
  *    blocked kernels. The edge's half of the hash and its threshold are
  *    computed once, and each graph adds one splitmix round and an integer
  *    compare (`mix2(key, s) = mix64(mix64(key) ^ s)`).
  * Both give the same answer for the same (edge, salt).
  */
final class EdgeSampler(val model: ProbModel, val salt: Long) extends Serializable {

  /** The salt of sampled graph r: constant over all of r's edges. */
  @inline def saltOf(r: Int): Long = Rand.mix2(salt, r.toLong)

  /** The salts of the b sampled graphs r0 until r0 + b, for [[sampleBlock]]. */
  def saltsOf(r0: Int, b: Int): Array[Long] = Array.tabulate(b)(j => saltOf(r0 + j))

  /** Is {u, v} present in the sampled graph whose salt is `rs` (=
    * `saltOf(r)`)? The top 53 bits of the edge hash, compared with
    * floor(p_e · 2^53), give the same answer as `hash01(…) <= p_e` (see
    * [[ProbModel.threshold]]). Symmetric in (u, v).
    */
  @inline def sampleSalted(u: Int, v: Int, rs: Long): Boolean =
    present(Rand.mix64(Rand.edgeKey(u, v)), rs, model.threshold(u, v))

  /** The graphs of `cand` in which {u, v} is present: bit j is set exactly
    * when bit j of `cand` is set and `sampleSalted(u, v, salts(j))` holds.
    * `cand` must have no bit at or above `salts.length`. Symmetric in (u, v).
    */
  @inline def sampleBlock(u: Int, v: Int, salts: Array[Long], cand: Long): Long = {
    val h0 = Rand.mix64(Rand.edgeKey(u, v))
    val t = model.threshold(u, v)
    var rest = cand
    var hit = 0L
    while (rest != 0L) {
      val bit = rest & -rest
      if (present(h0, salts(java.lang.Long.numberOfTrailingZeros(bit)), t)) hit |= bit
      rest ^= bit
    }
    hit
  }

  /** Is {u, v} present in sampled graph r? Symmetric in (u, v). */
  @inline def sample(u: Int, v: Int, r: Int): Boolean = sampleSalted(u, v, saltOf(r))

  // The draw: the edge's hashed key h0 = mix64(edgeKey) finished with the
  // graph's salt, its top 53 bits compared with the edge's threshold t.
  @inline private def present(h0: Long, rs: Long, t: Long): Boolean =
    (Rand.mix64(h0 ^ rs) >>> 11) <= t
}

object EdgeSampler {
  /** Salt for the R sketches (Alg. 1 step 1). */
  val SketchSalt = 0x51e7c4afL
  /** Salt for Monte-Carlo influence estimation (Tab. 3/4 "Influence"). */
  val EvalSalt = 0x0e7a1bbcL
  /** Salt for reverse-reachable sampling in the Ripples-style baseline. */
  val RisSalt = 0x7157a9d3L

  def forSketches(model: ProbModel) = new EdgeSampler(model, SketchSalt)
  def forEval(model: ProbModel) = new EdgeSampler(model, EvalSalt)
  def forRis(model: ProbModel) = new EdgeSampler(model, RisSalt)
}
