package repro.connectivity

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGens, TestRefs}
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.Constant
import repro.sample.EdgeSampler

class DistCCSpec extends SparkSpec {

  /** Full (v, label) table from DistCC, singletons included. */
  private def distLabels(g: CSRGraph, group: Int = 0): Array[Int] = {
    val edges = g.edgeDF(spark).withColumn("g", lit(group))
    val cc = DistCC.run(spark, edges).collect()
    val out = Array.tabulate(g.n)(identity)
    cc.foreach(r => out(r.getAs[Number]("v").intValue()) = r.getAs[Number]("label").intValue())
    out
  }

  test("DistCC matches BFS on random graphs") {
    (0 until 4).foreach { s =>
      val g = TestGens.erdosRenyi(120, 80 + 60 * s, seed = 400 + s)
      assert(distLabels(g).toSeq == TestRefs.bfsCC(g).toSeq, s"seed $s")
    }
  }

  test("DistCC handles a high-diameter path in logarithmic rounds") {
    val g = TestGens.path(400)
    assert(distLabels(g).forall(_ == 0))
  }

  test("DistCC on a disconnected forest") {
    val g = TestGens.fromEdges(12, Seq((0, 1), (2, 3), (3, 4), (6, 7), (7, 8), (8, 9)))
    val got = distLabels(g)
    assert(got.toSeq == TestRefs.bfsCC(g).toSeq)
    assert(got(5) == 5 && got(10) == 10 && got(11) == 11) // singletons
  }

  test("DistCC computes per-group components independently") {
    val g = TestGens.erdosRenyi(100, 250, seed = 404)
    val sampler = EdgeSampler.forSketches(Constant(0.4))
    // Two sampled graphs as two groups in ONE job.
    val pairs = for {
      r <- Seq(0, 1)
      (u, v) <- g.edgeList.toSeq if sampler.sample(u, v, r)
    } yield (r, u, v)
    import spark.implicits._
    val edges = spark.createDataset(pairs).toDF("g", "src", "dst")
    val rows = DistCC.run(spark, edges).collect()
    Seq(0, 1).foreach { r =>
      val got = Array.tabulate(g.n)(identity)
      rows.filter(_.getAs[Number]("g").intValue() == r)
        .foreach(x => got(x.getAs[Number]("v").intValue()) = x.getAs[Number]("label").intValue())
      assert(got.toSeq == TestRefs.bfsCC(g, sampler, r).toSeq, s"group $r")
    }
  }

  test("DistCC on an edgeless group set returns no rows (all singletons)") {
    import spark.implicits._
    val empty = spark.createDataset(Seq.empty[(Int, Int, Int)]).toDF("g", "src", "dst")
    assert(DistCC.run(spark, empty).count() == 0)
  }

  test("DistCC tolerates duplicate and reversed input edges") {
    import spark.implicits._
    val edges = spark.createDataset(Seq((0, 1, 2), (0, 2, 1), (0, 1, 2), (0, 2, 3), (0, 5, 4)))
      .toDF("g", "src", "dst")
    val rows = DistCC.run(spark, edges).collect()
      .map(r => r.getAs[Number]("v").intValue() -> r.getAs[Number]("label").intValue()).toMap
    assert(rows(1) == 1 && rows(2) == 1 && rows(3) == 1)
    assert(rows(4) == 4 && rows(5) == 4)
  }

  test("DistCC, union-find and coloring all agree") {
    val g = GraphGen.rmat(128, 500, seed = 501)
    val uf = LocalCC.byUnionFind(g, TestRefs.allEdges, 0)
    assert(LocalCC.byColoring(g, TestRefs.allEdges, 0).toSeq == uf.toSeq)
    assert(distLabels(g).toSeq == uf.toSeq)
  }

  test("DistCC agrees with a DuckDB recursive-CTE oracle") {
    val g = TestGens.erdosRenyi(60, 90, seed = 405)
    import spark.implicits._
    val labels = distLabels(g)
    val sparkDf = spark.createDataset(labels.zipWithIndex.map { case (l, v) => (v, l) }.toSeq)
      .toDF("v", "label")
    val edgesDf = g.edgeDF(spark)
    val verticesDf = spark.range(g.n).select(col("id").cast("int").as("v"))
    Oracle.assertEquivalent(
      sparkDf,
      """WITH RECURSIVE sym AS (
        |  SELECT CAST(src AS INT) AS a, CAST(dst AS INT) AS b FROM edges
        |  UNION SELECT CAST(dst AS INT), CAST(src AS INT) FROM edges
        |), reach(v, w) AS (
        |  SELECT CAST(v AS INT), CAST(v AS INT) FROM vertices
        |  UNION
        |  SELECT r.v, s.b FROM reach r JOIN sym s ON r.w = s.a
        |)
        |SELECT v, MIN(w) AS label FROM reach GROUP BY v""".stripMargin,
      "edges" -> edgesDf, "vertices" -> verticesDf)
  }
}
