package repro.util

/** Deterministic 64-bit hashing used everywhere randomness must be
  * reproducible from a compact key (the "fusion" idea of Infuser [32]:
  * a sampled graph is fully determined by the sketch id, so it never
  * needs to be materialized).
  *
  * All draws are pure functions of their arguments; re-running any
  * component of the pipeline (or running it on Spark executors) sees the
  * identical sample.
  */
object Rand {

  /** splitmix64 finalizer — a high-quality 64-bit mix. */
  @inline def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine two 64-bit values into one hash. */
  @inline def mix2(a: Long, b: Long): Long = mix64(mix64(a) ^ b)

  /** Uniform double in [0, 1) from two keys. */
  @inline def hash01(a: Long, b: Long): Double =
    (mix2(a, b) >>> 11) * 1.1102230246251565e-16 // 2^-53

  /** Canonical undirected-edge key: symmetric in (u, v). */
  @inline def edgeKey(u: Int, v: Int): Long = {
    val lo = math.min(u, v).toLong
    val hi = math.max(u, v).toLong
    (lo << 32) | hi
  }

  /** A tiny deterministic sequential PRNG for generators (not sampling). */
  final class Pcg(seed: Long) {
    private var state: Long = mix64(seed)
    def nextLong(): Long = { state = mix64(state); state }
    def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16
    /** Uniform int in [0, n). */
    def nextInt(n: Int): Int = {
      require(n > 0, s"nextInt bound must be positive, got $n")
      ((nextLong() >>> 1) % n).toInt
    }
    def nextGaussian(): Double = {
      // Box–Muller; fine for synthetic point clouds.
      val u1 = math.max(nextDouble(), 1e-300)
      val u2 = nextDouble()
      math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
    }
  }
}
