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
  * `saltOf(r)`. This class is the only place that draws an edge, in three
  * forms:
  *  - [[sampleSalted]]: one edge in one sampled graph, for a loop that
  *    derives its graph's salt once. It costs one splitmix round pair and
  *    an integer compare against [[ProbModel.threshold]];
  *  - [[sampleBlock]]: one edge in the candidate graphs of a block of up
  *    to 64, for the blocked Monte-Carlo kernel, whose candidates differ
  *    per arc. The edge's half of the hash and its threshold are computed
  *    once, and each candidate graph adds one splitmix round and an integer
  *    compare (`mix2(key, s) = mix64(mix64(key) ^ s)`);
  *  - [[sampleChunk]]: a chunk of up to [[EdgeSampler.ChunkSize]] edges in
  *    every graph of a block of up to 64, for the blocked union–find. Each
  *    edge's half of the hash and its threshold are computed once; then
  *    each graph runs two counted loops without branches over the chunk,
  *    which C2's SuperWord pass compiles to 64-bit vector code, so that
  *    several edges are drawn per instruction (DESIGN.md, "Vectorized edge
  *    draws").
  * All three give the same answer for the same (edge, salt).
  */
final class EdgeSampler(val model: ProbModel, val salt: Long) extends Serializable {

  /** The salt of sampled graph r: constant over all of r's edges. */
  @inline def saltOf(r: Int): Long = Rand.mix2(salt, r.toLong)

  /** The salts of the b sampled graphs r0 until r0 + b, for [[sampleBlock]]
    * and [[sampleChunk]].
    */
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

  /** Draws the `c.len` edges of chunk `c` in the b = `salts.length` graphs
    * of a block, 1 <= b <= 64: afterwards bit j of `c.mask(i)` is set
    * exactly when `sampleSalted(c.u(i), c.w(i), salts(j))` holds, and no
    * bit at or above b is set.
    */
  def sampleChunk(c: EdgeSampler.Chunk, salts: Array[Long]): Unit = {
    val b = salts.length
    require(b >= 1 && b <= 64, s"block of $b sampled graphs")
    val len = c.len
    val edge = c.edge; val key = c.key; val thr = c.thr; val d = c.d; val mask = c.mask
    var i = 0
    while (i < len) { key(i) = Rand.mix64(edge(i)); i += 1 }
    i = 0
    while (i < len) { thr(i) = model.threshold(c.u(i), c.w(i)); i += 1 }
    java.util.Arrays.fill(mask, 0, len, 0L)
    var j = 0
    while (j < b) { drawLane(key, thr, d, mask, len, salts(j), j); j += 1 }
  }

  // Graph j of a chunk: sets bit j of mask(i) when edge i is present. The
  // bit is `present` without a branch: with h = mix64(key ^ rs) >>> 11 and
  // t both in [0, 2^53], d = t - h is negative exactly when h > t, so the
  // flipped sign bit of d is the draw. Each of the two loops is a counted
  // loop over arrays of longs with no call left after inlining, small
  // enough for C2 to unroll and SuperWord to vectorize it; a single loop
  // holding the whole draw is too large to be unrolled in some inlining
  // contexts (DESIGN.md, "Vectorized edge draws").
  private def drawLane(key: Array[Long], thr: Array[Long], d: Array[Long], mask: Array[Long],
                       len: Int, rs: Long, j: Int): Unit = {
    var i = 0
    while (i < len) { d(i) = thr(i) - (Rand.mix64(key(i) ^ rs) >>> 11); i += 1 }
    i = 0
    while (i < len) { mask(i) |= (~d(i) >>> 63) << j; i += 1 }
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

  /** Edges per [[Chunk]]: its five arrays take 20 KiB, so a chunk stays in
    * L1 while each of a block's graphs runs its loops over it.
    */
  final val ChunkSize = 512

  /** A buffer of up to [[ChunkSize]] edges for [[EdgeSampler.sampleChunk]].
    * The caller appends edges with [[add]], which stores each as its
    * `Rand.edgeKey`, and resets `len` to reuse the chunk; `sampleChunk`
    * writes `mask(i)`.
    */
  final class Chunk {
    val mask = new Array[Long](ChunkSize)
    var len = 0
    private[sample] val edge = new Array[Long](ChunkSize)
    private[sample] val key = new Array[Long](ChunkSize)
    private[sample] val thr = new Array[Long](ChunkSize)
    private[sample] val d = new Array[Long](ChunkSize)

    /** Appends edge {a, b}; the chunk must not be full. */
    @inline def add(a: Int, b: Int): Unit = { edge(len) = Rand.edgeKey(a, b); len += 1 }

    @inline def full: Boolean = len == ChunkSize

    /** Edge i's smaller and larger endpoint. */
    @inline def u(i: Int): Int = (edge(i) >>> 32).toInt
    @inline def w(i: Int): Int = edge(i).toInt
  }

  def forSketches(model: ProbModel) = new EdgeSampler(model, SketchSalt)
  def forEval(model: ProbModel) = new EdgeSampler(model, EvalSalt)
  def forRis(model: ProbModel) = new EdgeSampler(model, RisSalt)
}
