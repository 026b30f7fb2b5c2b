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
  * `saltOf(r)`; a loop that draws many edges of one sampled graph derives
  * it once and calls [[sampleSalted]], which costs one splitmix round pair
  * and an integer compare against [[ProbModel.threshold]] per edge.
  */
final class EdgeSampler(val model: ProbModel, val salt: Long) extends Serializable {

  /** The salt of sampled graph r: constant over all of r's edges. */
  @inline def saltOf(r: Int): Long = Rand.mix2(salt, r.toLong)

  /** Is {u, v} present in the sampled graph whose salt is `rs` (=
    * `saltOf(r)`)? The top 53 bits of the edge hash, compared with
    * floor(p_e · 2^53), give the same answer as `hash01(…) <= p_e` (see
    * [[ProbModel.threshold]]). Symmetric in (u, v).
    */
  @inline def sampleSalted(u: Int, v: Int, rs: Long): Boolean =
    (Rand.mix2(Rand.edgeKey(u, v), rs) >>> 11) <= model.threshold(u, v)

  /** Is {u, v} present in sampled graph r? Symmetric in (u, v). */
  @inline def sample(u: Int, v: Int, r: Int): Boolean = sampleSalted(u, v, saltOf(r))
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
