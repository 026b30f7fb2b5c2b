package repro.sketch

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler

/** Distributed sketch construction: all R sketches in ONE Spark job that
  * runs the local builder's blocked union–find on the executors.
  *
  * The CSR is broadcast, and the ⌈R / B⌉ blocks of B =
  * [[SketchBuilder.blockSize]] sketches are split into one contiguous range
  * per task. Each task runs the local build's per-range routine
  * ([[SketchBuilder.buildBlocks]]) and returns its sketches compressed to
  * (labels, sizes) over the ρ centers, plus one partial initial-score
  * array; the driver sums those arrays. So the driver receives R·2ρ ints
  * and at most one n-long array per task, not a label per (sketch, vertex).
  *
  * Output is bit-identical to [[SketchBuilder.build]] (tests assert it):
  * the sampler hash is the same pure function on driver and executors, and
  * the initial scores are exact integer sums.
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
            alpha: Double): SketchSet = {
    require(numSketches > 0, s"numSketches=$numSketches must be positive")
    val sc = spark.sparkContext
    val centers = SketchBuilder.chooseCenters(g.n, alpha)
    val b = SketchBuilder.blockSize(g.n, numSketches, sc.defaultParallelism)
    val blocks = SketchBuilder.blocks(numSketches, b)
    val tasks = math.min(blocks, sc.defaultParallelism)
    // Per task: its sketches' labels and sizes, and its partial initial
    // scores. The tasks' sketch ranges are contiguous and ascending, so
    // their sketches concatenate in order.
    val parts = CSRGraph.broadcasting(sc, g, (model, centers)) { shipped =>
      sc.parallelize(0 until tasks, tasks).map { c =>
        val (gg, (m, cs)) = shipped()
        val lo = (blocks.toLong * c / tasks).toInt
        val hi = (blocks.toLong * (c + 1) / tasks).toInt
        val labels = new Array[Array[Int]](numSketches)
        val sizes = new Array[Array[Int]](numSketches)
        val asm = new SketchBuilder.Assembly(gg.n, cs, labels, sizes)
        SketchBuilder.buildBlocks(gg, EdgeSampler.forSketches(m), numSketches, b, lo, hi, asm)
        val (r0, r1) = (lo * b, math.min(hi * b, numSketches))
        (labels.slice(r0, r1), sizes.slice(r0, r1), asm.sum)
      }.collect()
    }
    SketchBuilder.sketchSet(g, EdgeSampler.forSketches(model), centers,
                            parts.flatMap(_._1), parts.flatMap(_._2), parts.map(_._3))
  }
}
