package repro.prob

import repro.graph.CSRGraph
import repro.util.Rand

/** IC edge-activation probability p_e.
  *
  * The three assignments evaluated by the paper:
  *  - [[Constant]] — the main-body "Consistent" setting (p = 0.02 on
  *    scale-free graphs, 0.2 on sparse graphs);
  *  - [[UniformHash]] — Appendix A "Uniform": p_e ~ U(lo, hi), drawn
  *    deterministically from a hash of the (undirected) edge so every
  *    component of the pipeline sees the same probability;
  *  - [[WIC]] — Appendix A "WIC": p_uv = 2 / (d_u + d_v).
  */
sealed trait ProbModel extends Serializable {
  /** Activation probability of undirected edge {u, v}. */
  def prob(u: Int, v: Int): Double

  /** floor(p · 2^53) for p = `prob(u, v)`: the integer form of the test
    * `h · 2^-53 <= p` that [[repro.sample.EdgeSampler]] applies to a 53-bit
    * hash h. The two tests agree for every integer 0 <= h < 2^53:
    *  - h · 2^-53 is exact in a double (h has at most 53 bits, and scaling
    *    by a power of two only moves the exponent), and so is p · 2^53
    *    (likewise, for any p in [0, 1], subnormals included);
    *  - so `h · 2^-53 <= p` holds exactly when h <= p · 2^53 as reals,
    *    which for an integer h is h <= floor(p · 2^53);
    *  - p · 2^53 is a non-negative double of at most 2^53, so `toLong`
    *    truncates it to that floor exactly.
    * The draw is therefore unchanged; only its cost drops (no int-to-double
    * conversion and multiply per edge).
    */
  def threshold(u: Int, v: Int): Long = ProbModel.threshold(prob(u, v))

  /** Short label used by bench tables. */
  def label: String
}

object ProbModel {
  /** floor(p · 2^53), the integer threshold of probability p. */
  def threshold(p: Double): Long = (p * 9007199254740992.0).toLong // 2^53
}

/** Fixed probability for every edge. */
final case class Constant(p: Double) extends ProbModel {
  require(p >= 0 && p <= 1, s"p=$p out of [0,1]")
  private val t = ProbModel.threshold(p)
  override def prob(u: Int, v: Int): Double = p
  override def threshold(u: Int, v: Int): Long = t
  override def label: String = s"const($p)"
}

/** Per-edge uniform draw from [lo, hi), hashed from the edge key. */
final case class UniformHash(lo: Double, hi: Double) extends ProbModel {
  require(lo >= 0 && hi <= 1 && lo <= hi)
  override def prob(u: Int, v: Int): Double =
    lo + (hi - lo) * Rand.hash01(Rand.edgeKey(u, v), 0x5eedL) // a salt apart from every sampler's
  override def label: String = s"U($lo,$hi)"
}

/** Weighted-IC analog for undirected graphs: p_uv = 2/(d_u + d_v). */
final case class WIC(degrees: Array[Int]) extends ProbModel {
  override def prob(u: Int, v: Int): Double = {
    val d = degrees(u) + degrees(v)
    if (d == 0) 0.0 else math.min(1.0, 2.0 / d)
  }
  override def label: String = "WIC"
}

object WIC {
  def of(g: CSRGraph): WIC = WIC(Array.tabulate(g.n)(g.degree))
}
