package repro.connectivity

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed connected components on DataFrames (Catalyst only): the
  * alternating large-star / small-star algorithm of Kiveris et al.,
  * which converges in O(log² n) rounds regardless of graph diameter —
  * unlike plain label propagation, which needs diameter rounds and would
  * be hopeless on road-like graphs.
  *
  * Input: edges with integer columns (g, src, dst), where `g` is a group
  * id — components are computed independently per group, e.g. all R
  * sampled graphs of [[repro.sketch.SparkSketchBuilder.sampledEdges]]
  * (g = sketch id r) in one job.
  *
  * No program path runs it: the Spark sketch build runs the blocked
  * union–find in its tasks instead. It stays for the benchmark's traced
  * probe, which counts its output rows, until that probe is retired.
  *
  * Output: one row (g, v, label) per vertex that appears in some edge of
  * group g; label is the minimum vertex id of v's component. Vertices
  * isolated in a group do not appear (callers treat them as
  * singletons).
  */
object DistCC {

  private val MaxRounds = 64

  def run(spark: SparkSession, edges0: DataFrame): DataFrame = {
    // localCheckpoint truncates the per-round lineage so planning cost
    // stays flat across rounds.
    var edges = canonical(edges0).localCheckpoint(true)
    var count = edges.count()
    var round = 0
    var converged = false
    while (!converged && round < MaxRounds) {
      val afterLarge = canonical(largeStar(edges))
      val afterSmall = canonical(smallStar(afterLarge)).localCheckpoint(true)
      val newCount = afterSmall.count()
      // Both sides are distinct sets: equal size + empty one-sided
      // difference implies set equality.
      converged = newCount == count && afterSmall.exceptAll(edges).isEmpty
      edges = afterSmall
      count = newCount
      round += 1
    }
    require(converged, s"DistCC did not converge in $MaxRounds rounds")
    // At the fixpoint every edge is (root, v): label(v) = its unique
    // smaller neighbor; roots label themselves.
    val nonRoots = edges.select(col("g"), col("dst").as("v"), col("src").as("label"))
    val roots = edges.select(col("g"), col("src").as("v"), col("src").as("label")).distinct()
    val out = nonRoots.unionByName(roots)
      .groupBy("g", "v").agg(min("label").as("label"))
    out
  }

  /** Canonicalize: src < dst, no self-loops, distinct. */
  private def canonical(e: DataFrame): DataFrame =
    e.select(
      col("g"),
      least(col("src"), col("dst")).as("src"),
      greatest(col("src"), col("dst")).as("dst"),
    ).where(col("src") =!= col("dst")).distinct()

  /** Large-star: connect every strictly-larger neighbor of u to the
    * minimum of u's closed neighborhood.
    */
  private def largeStar(e: DataFrame): DataFrame = {
    val sym = e.unionByName(e.select(col("g"), col("dst").as("src"), col("src").as("dst")))
    val mins = sym.groupBy("g", "src")
      .agg(least(min(col("dst")), first(col("src"))).as("m"))
    sym.join(mins, Seq("g", "src"))
      .where(col("dst") > col("src"))
      .select(col("g"), col("dst").as("src"), col("m").as("dst"))
  }

  /** Small-star: connect every smaller-or-equal neighbor (and u itself)
    * to the minimum of that set.
    */
  private def smallStar(e: DataFrame): DataFrame = {
    // Orient high -> low: (src > dst) holds after canonical+swap.
    val hiLo = e.select(col("g"), greatest(col("src"), col("dst")).as("src"),
                        least(col("src"), col("dst")).as("dst"))
    val mins = hiLo.groupBy("g", "src").agg(min(col("dst")).as("m"))
    val nbrToMin = hiLo.join(mins, Seq("g", "src"))
      .select(col("g"), col("dst").as("src"), col("m").as("dst"))
    val selfToMin = mins.select(col("g"), col("src"), col("m").as("dst"))
    nbrToMin.unionByName(selfToMin)
  }
}
