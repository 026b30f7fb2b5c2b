package repro.sketch

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.graph.{CSRGraph, Engine}
import repro.prob.ProbModel
import repro.sample.EdgeSampler

/** Distributed sketch construction: all R sketches in ONE Spark job.
  *
  * [[build]] is [[SketchBuilder.buildOn]] on [[Engine.OnSpark]]: the CSR
  * is broadcast, the blocks of [[SketchBuilder.blockSize]] sketches are
  * split into one contiguous range per task, and each task returns its
  * sketches compressed to (labels, sizes) over the ρ centers plus one
  * partial initial-score array, which the driver sums. So the driver
  * receives R·2ρ ints and at most one n-long array per task, not a label
  * per (sketch, vertex). Output is bit-identical to [[SketchBuilder.build]]
  * (tests assert it).
  */
object SparkSketchBuilder {

  /** (g, src, dst) rows of all R sampled graphs: the dataflow view of the
    * sketches' sampled edges, which [[repro.connectivity.DistCC]] labels.
    * [[build]] does not use it.
    */
  def sampledEdges(spark: SparkSession, g: CSRGraph, model: ProbModel,
                   numSketches: Int): DataFrame = {
    val sampler = EdgeSampler.forSketches(model)
    val keep = udf((u: Int, v: Int, r: Int) => sampler.sample(u, v, r))
    g.edgeDF(spark)
      .crossJoin(spark.range(numSketches).select(col("id").cast("int").as("g")))
      .where(keep(col("src"), col("dst"), col("g")))
      .select(col("g"), col("src"), col("dst"))
  }

  /** Build the SketchSet in Spark tasks. */
  def build(spark: SparkSession, g: CSRGraph, model: ProbModel, numSketches: Int,
            alpha: Double): SketchSet =
    SketchBuilder.buildOn(Engine.OnSpark(spark), g, model, numSketches, alpha)
}
