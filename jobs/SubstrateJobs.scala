package repro.jobs

import repro.graph.GraphGen
import repro.prob.Constant
import repro.core.{InfluenceEval, PaCIM}
import repro.sketch.SparkSketchBuilder

/** Distributed sketch construction demo: all R sketches built in one
  * Spark job (blocked union-find in the tasks), then PaC-IM seed selection
  * on the driver and a Spark-distributed influence estimate.
  * Args: [n] [m] [R] [k] [alpha].
  */
object DistributedSketchJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("pacim-distributed-sketch")
    val n = args.lift(0).map(_.toInt).getOrElse(2000)
    val m = args.lift(1).map(_.toInt).getOrElse(10000)
    val r = args.lift(2).map(_.toInt).getOrElse(32)
    val k = args.lift(3).map(_.toInt).getOrElse(20)
    val alpha = args.lift(4).map(_.toDouble).getOrElse(0.1)
    val g = GraphGen.rmat(n, m, seed = 9)
    val model = Constant(0.05)
    val sk = SparkSketchBuilder.build(spark, g, model, r, alpha)
    val sel = PaCIM.selectOn(sk, k, new repro.select.WinTreeSelector())
    val inf = InfluenceEval.sparkEstimate(spark, g, sel.seeds, model, 256)
    println(s"n=$n m=${g.m} R=$r alpha=$alpha seeds=${sel.seeds.take(10).mkString(",")}... " +
      s"evaluations=${sel.evaluations} influence=$inf")
    spark.stop()
  }
}
