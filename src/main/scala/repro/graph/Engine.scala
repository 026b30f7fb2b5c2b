package repro.graph

import scala.reflect.ClassTag

import org.apache.spark.sql.SparkSession

import repro.util.Par

/** Where a range kernel runs. The paper's kernels are fork-join loops over
  * ranges; the sketch build and the Monte-Carlo estimate are each written
  * once against this trait and run on either engine with identical
  * results.
  */
sealed trait Engine {

  /** Ranges that a call to [[ranges]] uses at most. */
  def parallelism: Int

  /** Runs `f(g, extra, lo, hi)` on min(units, parallelism) contiguous
    * ranges that split [0, units) as evenly as possible ([[Par.cut]]), and
    * returns the results in range order. `f` must reach g and `extra` only
    * through its arguments: on Spark it runs in a task, against copies.
    */
  def ranges[T: ClassTag, R: ClassTag](g: CSRGraph, extra: T, units: Int)
                                      (f: (CSRGraph, T, Int, Int) => R): Array[R]
}

object Engine {

  /** Fork-join threads of the common pool, via [[Par.parRanges]]. */
  object Local extends Engine {
    def parallelism: Int = Par.threads

    def ranges[T: ClassTag, R: ClassTag](g: CSRGraph, extra: T, units: Int)
                                        (f: (CSRGraph, T, Int, Int) => R): Array[R] =
      Par.parRanges(units, math.min(units, parallelism))(f(g, extra, _, _))
  }

  /** One Spark job with a task per range. g's CSR arrays and `extra` are
    * broadcast, and each task wraps g around the broadcast arrays without
    * copying them; the broadcasts are destroyed when the job returns.
    */
  final case class OnSpark(spark: SparkSession) extends Engine {
    def parallelism: Int = spark.sparkContext.defaultParallelism

    def ranges[T: ClassTag, R: ClassTag](g: CSRGraph, extra: T, units: Int)
                                        (f: (CSRGraph, T, Int, Int) => R): Array[R] = {
      val sc = spark.sparkContext
      val pieces = math.min(units, parallelism)
      val n = g.n
      val offsets = sc.broadcast(g.offsets)
      val adj = sc.broadcast(g.adj)
      val shipped = sc.broadcast(extra)
      try sc.parallelize(0 until pieces, math.max(pieces, 1)).map { c =>
        f(CSRGraph.wrap(n, offsets.value, adj.value), shipped.value,
          Par.cut(units, pieces, c), Par.cut(units, pieces, c + 1))
      }.collect()
      finally { offsets.destroy(); adj.destroy(); shipped.destroy() }
    }
  }
}
