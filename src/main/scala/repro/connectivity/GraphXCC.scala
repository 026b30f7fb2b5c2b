package repro.connectivity

import org.apache.spark.sql.SparkSession
import org.apache.spark.graphx.{Edge, Graph => XGraph}
import repro.graph.CSRGraph

/** Connected components via GraphX's Pregel-based implementation — the
  * RDD-layer counterpart of [[DistCC]]. Used as an independent witness
  * in tests and by the distributed jobs; the paper's substrate here is
  * ConnectIt, whose role GraphX plays on the dataflow side.
  */
object GraphXCC {

  /** Labels (min-id per component) of g, computed from its edge DataFrame. */
  def labels(spark: SparkSession, g: CSRGraph): Array[Int] = {
    val edgeRdd = g.edgeDF(spark).select("src", "dst").rdd
      .map(r => Edge(r.get(0).toString.toDouble.toLong, r.get(1).toString.toDouble.toLong, ()))
    val graph = XGraph.fromEdges(edgeRdd, ())
    val cc = graph.connectedComponents().vertices.collectAsMap()
    // GraphX labels with the min vertex id of the component already.
    Array.tabulate(g.n)(v => cc.getOrElse(v.toLong, v.toLong).toInt)
  }
}
