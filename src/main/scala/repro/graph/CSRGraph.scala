package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Compact undirected graph in Compressed Sparse Row form.
  *
  * Vertices are `0 until n`. Every undirected edge {u, v} is stored as two
  * arcs. `offsets` has n+1 entries; the neighbors of v are
  * `adj(offsets(v) until offsets(v+1))`, strictly ascending (the builder
  * fills them in that order; see [[CSRGraph.fromPackedEdges]]).
  *
  * This is the paper's input representation (its "CSR" space column is
  * 8 bytes per vertex and per arc; ours is 4 since vertex ids are Int).
  */
final class CSRGraph private (val n: Int, val offsets: Array[Int], val adj: Array[Int]) {

  /** Number of undirected edges. */
  def m: Long = adj.length / 2L

  /** Number of stored arcs (2m). */
  def arcs: Int = adj.length

  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Iterate neighbors of v without allocation. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(adj(i)); i += 1 }
  }

  /** Bytes of the CSR arrays (the paper's "CSR" reference column). */
  def csrBytes: Long = 4L * (n + 1) + 4L * adj.length

  /** Distinct undirected edges as canonical (u < v) pairs. */
  def edgeList: Array[(Int, Int)] = {
    val out = Array.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      foreachNeighbor(u)(v => if (u < v) out += ((u, v)))
      u += 1
    }
    out.result()
  }

  /** Edge table as a DataFrame of (src, dst) canonical pairs — the
    * dataflow-side view used by Spark CC and oracle tests.
    */
  def edgeDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.createDataset(edgeList.toSeq).toDF("src", "dst")
  }
}

object CSRGraph {

  /** Build from undirected edges packed as `(u << 32) | v` longs, in
    * either orientation (so `edgeKey(u, v)` or its reverse) and any order.
    * Self-loops are dropped; duplicates, including the two orientations of
    * one edge, are merged; both arcs are stored. `packed` is not modified.
    *
    * Primitive sort + linear dedupe: the canonical `(min << 32) | max` keys
    * are sorted, then scattered in key order. Vertex x receives its smaller
    * neighbors (keys `(u, x)`, u < x) before its larger ones (keys `(x, v)`),
    * each group ascending, so every list comes out sorted by construction.
    *
    * n must lie in [0, Int.MaxValue), since `offsets` has n + 1 entries;
    * any other n is rejected before anything is allocated.
    */
  def fromPackedEdges(n: Int, packed: Array[Long]): CSRGraph = {
    checkN(n)
    val keys = new Array[Long](packed.length)
    var i = 0
    while (i < keys.length) {
      val k = packed(i)
      val a = (k >>> 32).toInt; val b = k.toInt
      keys(i) = if (a <= b) k else (b.toLong << 32) | (a & 0xffffffffL)
      i += 1
    }
    java.util.Arrays.parallelSort(keys)
    // Compact the distinct non-loop keys to the front, counting degrees.
    // `prev` starts at -1L, the key of the self-loop (-1, -1): never kept.
    val offsets = new Array[Int](n + 1)
    var m = 0
    var prev = -1L
    i = 0
    while (i < keys.length) {
      val k = keys(i)
      val u = (k >>> 32).toInt; val v = k.toInt
      if (u != v && k != prev) {
        require(u >= 0 && v < n, s"edge ($u,$v) out of range for n=$n")
        offsets(u + 1) += 1; offsets(v + 1) += 1
        keys(m) = k; m += 1
      }
      prev = k
      i += 1
    }
    var v = 0
    while (v < n) { offsets(v + 1) += offsets(v); v += 1 }
    val adj = new Array[Int](2 * m)
    val cursor = java.util.Arrays.copyOf(offsets, n)
    i = 0
    while (i < m) {
      val k = keys(i)
      val u = (k >>> 32).toInt; val w = k.toInt
      adj(cursor(u)) = w; cursor(u) += 1
      adj(cursor(w)) = u; cursor(w) += 1
      i += 1
    }
    new CSRGraph(n, offsets, adj)
  }

  /** Wrap pre-validated CSR arrays without copying (used to rebuild a
    * graph view around broadcast arrays in Spark tasks, [[Engine.OnSpark]]).
    */
  def wrap(n: Int, offsets: Array[Int], adj: Array[Int]): CSRGraph = {
    checkN(n)
    require(offsets.length == n + 1 && offsets(n) == adj.length,
            s"CSR arrays of ${offsets.length} offsets and ${adj.length} arcs do not fit n=$n")
    new CSRGraph(n, offsets, adj)
  }

  private def checkN(n: Int): Unit =
    require(n >= 0 && n < Int.MaxValue, s"n=$n out of [0, Int.MaxValue)")
}
