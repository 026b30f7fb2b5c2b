package repro.sketch

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.connectivity.DistCC
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler

/** Distributed sketch construction: all R sampled graphs' connected
  * components in ONE dataflow job.
  *
  * The edge table is crossed with the sketch-id range; the fusion
  * sampler (a deterministic hash, evaluated executor-side) keeps edge
  * (u, v) in sketch r iff Sample(u, v, r); [[DistCC]] then labels the
  * resulting (r, u, v) multigraph per sketch in O(log² n) rounds.
  *
  * Output is bit-identical to [[SketchBuilder.build]] (tests assert it):
  * the sampler hash is the same pure function on driver and executors.
  */
object SparkSketchBuilder {

  /** (g, src, dst) rows of all R sampled graphs. */
  def sampledEdges(spark: SparkSession, g: CSRGraph, model: ProbModel,
                   numSketches: Int): DataFrame = {
    val sampler = EdgeSampler.forSketches(model)
    val keep = udf((u: Int, v: Int, r: Int) => sampler.sample(u, v, r))
    g.edgeDF(spark)
      .crossJoin(spark.range(numSketches).select(col("id").cast("int").as("g")))
      .where(keep(col("src"), col("dst"), col("g")))
      .select(col("g"), col("src"), col("dst"))
  }

  /** Build the SketchSet with the distributed CC. */
  def build(spark: SparkSession, g: CSRGraph, model: ProbModel, numSketches: Int,
            alpha: Double, centerSeed: Long = 0xce57e5L): SketchSet = {
    val sampler = EdgeSampler.forSketches(model)
    val centers = SketchBuilder.chooseCenters(g.n, alpha, centerSeed)
    val ccRows = DistCC.run(spark, sampledEdges(spark, g, model, numSketches))
      .collect()
      .map(r => (r.getAs[Number]("g").intValue(),
                 r.getAs[Number]("v").intValue(),
                 r.getAs[Number]("label").intValue()))
    // Assemble per-sketch canonical labelings; vertices absent from the
    // CC output are singletons (label = self).
    val perSketch = Array.fill(numSketches)(null: Array[Int])
    ccRows.groupBy(_._1).foreach { case (r, rows) =>
      val cc = Array.tabulate(g.n)(identity)
      rows.foreach { case (_, v, l) => cc(v) = l }
      perSketch(r) = cc
    }
    var r = 0
    while (r < numSketches) {
      if (perSketch(r) == null) perSketch(r) = Array.tabulate(g.n)(identity)
      r += 1
    }
    SketchBuilder.fromCCLabels(g, sampler, numSketches, centers)(perSketch(_))
  }
}
