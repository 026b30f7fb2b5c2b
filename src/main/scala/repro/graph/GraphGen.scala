package repro.graph

import repro.util.Rand
import repro.util.Rand.Pcg

/** Deterministic synthetic graph generators.
  *
  * These are the stand-ins for the paper's 17 real-world graphs (Tab. 3):
  *  - [[rmat]]: recursive-matrix graphs with heavy-tailed degrees — the
  *    scale-free regime of the paper's social/web graphs, where sampled
  *    graphs at p=0.02 percolate into giant components;
  *  - [[grid]]: 2-D lattices — the road-network regime (degree ≤ 4,
  *    huge diameter, tiny sampled components at p=0.2);
  *  - [[knn]]: k-nearest-neighbor graphs over random or clustered 2-D
  *    points — the paper's k-NN graph class (GeoGraph-style).
  *
  * All generators are pure functions of their arguments (seeded).
  */
object GraphGen {

  /** R-MAT generator (Chakrabarti et al.) with standard skew
    * (a,b,c,d) = (0.57, 0.19, 0.19, 0.05). `n` is rounded up to a power
    * of two internally for quadrant recursion; ids are then taken mod n.
    * Produces ~`mTarget` distinct undirected edges (duplicates merged).
    */
  def rmat(n: Int, mTarget: Int, seed: Long = 42): CSRGraph = {
    require(n > 1 && mTarget > 0)
    val levels = 32 - Integer.numberOfLeadingZeros(n - 1) // ceil(log2 n)
    val rng = new Pcg(seed)
    // Oversample to compensate for duplicate/self-loop loss.
    val attempts = (mTarget * 1.35).toInt + 16
    val packed = new Array[Long](attempts)
    var i = 0
    while (i < attempts) {
      var u = 0; var v = 0
      var l = 0
      while (l < levels) {
        // Quadrant 0..3 = (a, b, c, d): its high bit goes to u, its low bit to v.
        val r = rng.nextDouble()
        val q = if (r < A) 0 else if (r < A + B) 1 else if (r < A + B + C) 2 else 3
        u = (u << 1) | (q >> 1)
        v = (v << 1) | (q & 1)
        l += 1
      }
      u %= n; v %= n
      packed(i) = Rand.edgeKey(u, v)
      i += 1
    }
    CSRGraph.fromPackedEdges(n, packed)
  }

  // R-MAT's quadrant probabilities a, b, c (d = 1 - a - b - c).
  private final val A = 0.57
  private final val B = 0.19
  private final val C = 0.19

  /** rows × cols 4-neighbor lattice (road-network stand-in). */
  def grid(rows: Int, cols: Int): CSRGraph = {
    val edges = Array.newBuilder[Long]
    edges.sizeHint(2 * rows * cols)
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) {
        val v = r * cols + c
        if (c + 1 < cols) edges += Rand.edgeKey(v, v + 1)
        if (r + 1 < rows) edges += Rand.edgeKey(v, v + cols)
        c += 1
      }
      r += 1
    }
    CSRGraph.fromPackedEdges(rows * cols, edges.result())
  }

  /** k-NN graph over n 2-D points; `clusters <= 0` means uniform points,
    * otherwise Gaussian blobs around `clusters` random centers (the
    * paper's CHEM-like clustered k-NN inputs). Exact k-NN via uniform
    * grid bucketing with expanding ring search.
    */
  def knn(n: Int, k: Int, seed: Long = 7, clusters: Int = 0): CSRGraph = {
    require(n > k && k >= 1)
    val rng = new Pcg(seed)
    val xs = new Array[Double](n); val ys = new Array[Double](n)
    if (clusters <= 0) {
      var i = 0
      while (i < n) { xs(i) = rng.nextDouble(); ys(i) = rng.nextDouble(); i += 1 }
    } else {
      val cx = Array.fill(clusters)(rng.nextDouble())
      val cy = Array.fill(clusters)(rng.nextDouble())
      val sigma = 0.35 / math.sqrt(clusters.toDouble)
      var i = 0
      while (i < n) {
        val c = rng.nextInt(clusters)
        xs(i) = cx(c) + rng.nextGaussian() * sigma
        ys(i) = cy(c) + rng.nextGaussian() * sigma
        i += 1
      }
    }
    // Clustered draws can fall outside [0,1)²: normalize them back in.
    // Uniform draws are already in range and are left untouched so the
    // metric is exactly the draw-space metric (tests rely on this).
    if (clusters > 0) {
      val minX = xs.min; val maxX = xs.max + 1e-9
      val minY = ys.min; val maxY = ys.max + 1e-9
      var i = 0
      while (i < n) {
        xs(i) = (xs(i) - minX) / (maxX - minX)
        ys(i) = (ys(i) - minY) / (maxY - minY)
        i += 1
      }
    }
    // Bucket grid with ~2 points per cell on average.
    val cells = math.max(1, math.sqrt(n / 2.0).toInt)
    val cellOf = (x: Double) => math.min(cells - 1, (x * cells).toInt)
    val bucketHead = Array.fill(cells * cells)(-1)
    val bucketNext = new Array[Int](n)
    var i = 0
    while (i < n) {
      val b = cellOf(ys(i)) * cells + cellOf(xs(i))
      bucketNext(i) = bucketHead(b); bucketHead(b) = i
      i += 1
    }
    val edges = Array.newBuilder[Long]
    edges.sizeHint(n * k)
    val candD = new Array[Double](k)
    val candI = new Array[Int](k)
    var p = 0
    while (p < n) {
      var have = 0
      var worst = Double.MaxValue
      val pcx = cellOf(xs(p)); val pcy = cellOf(ys(p))
      var ring = 0
      var done = false
      while (!done) {
        // Scan cells at Chebyshev distance `ring` from (pcx, pcy).
        var cy = math.max(0, pcy - ring)
        val cyEnd = math.min(cells - 1, pcy + ring)
        while (cy <= cyEnd) {
          var cx = math.max(0, pcx - ring)
          val cxEnd = math.min(cells - 1, pcx + ring)
          while (cx <= cxEnd) {
            if (math.max(math.abs(cx - pcx), math.abs(cy - pcy)) == ring) {
              var q = bucketHead(cy * cells + cx)
              while (q >= 0) {
                if (q != p) {
                  val dx = xs(q) - xs(p); val dy = ys(q) - ys(p)
                  val d = dx * dx + dy * dy
                  if (have < k) {
                    candD(have) = d; candI(have) = q; have += 1
                    if (have == k) { worst = candD.max }
                  } else if (d < worst) {
                    // Replace current worst.
                    var w = 0; var wi = 0; var wd = -1.0
                    while (w < k) { if (candD(w) > wd) { wd = candD(w); wi = w }; w += 1 }
                    candD(wi) = d; candI(wi) = q
                    worst = candD.max
                  }
                }
                q = bucketNext(q)
              }
            }
            cx += 1
          }
          cy += 1
        }
        // Stop once the ring boundary is farther than the kth distance.
        val ringDist = (ring.toDouble / cells) // lower bound on dist to next ring
        done = (have == k && ringDist * ringDist > worst) || ring > 2 * cells
        ring += 1
      }
      var j = 0
      while (j < have) { edges += Rand.edgeKey(p, candI(j)); j += 1 }
      p += 1
    }
    CSRGraph.fromPackedEdges(n, edges.result())
  }
}
