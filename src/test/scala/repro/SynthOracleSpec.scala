package repro

import org.apache.spark.sql.functions._
import repro.graph.GraphGen

/** DataFrame-vs-DuckDB oracle checks for the dataflow-side queries:
  * graph degree/edge statistics used by the harness.
  */
class SynthOracleSpec extends SparkSpec {

  test("edge count and degree distribution agree with DuckDB") {
    val g = GraphGen.rmat(256, 1200, seed = 701)
    val edges = g.edgeDF(spark)
    val sparkDeg = edges.select(col("src").as("v"))
      .unionByName(edges.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).as("degree"))
    Oracle.assertEquivalent(
      sparkDeg,
      """SELECT v, COUNT(*) AS degree FROM (
        |  SELECT CAST(src AS INT) AS v FROM edges
        |  UNION ALL SELECT CAST(dst AS INT) FROM edges
        |) GROUP BY v""".stripMargin,
      "edges" -> edges)
  }

  test("degree histogram agrees with DuckDB") {
    val g = GraphGen.knn(300, 4, seed = 702)
    val edges = g.edgeDF(spark)
    val sparkHist = edges.select(col("src").as("v"))
      .unionByName(edges.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).as("d"))
      .groupBy("d").agg(count(lit(1)).as("vertices"))
    Oracle.assertEquivalent(
      sparkHist,
      """SELECT d, COUNT(*) AS vertices FROM (
        |  SELECT v, COUNT(*) AS d FROM (
        |    SELECT CAST(src AS INT) AS v FROM edges
        |    UNION ALL SELECT CAST(dst AS INT) FROM edges
        |  ) GROUP BY v
        |) GROUP BY d""".stripMargin,
      "edges" -> edges)
  }

  test("canonical edges are unique and src < dst (checked in DuckDB)") {
    val g = GraphGen.grid(8, 9)
    val edges = g.edgeDF(spark)
    val sparkBad = edges.where(col("src") >= col("dst"))
      .agg(count(lit(1)).as("bad"))
    Oracle.assertEquivalent(
      sparkBad,
      "SELECT COUNT(*) AS bad FROM edges WHERE CAST(src AS INT) >= CAST(dst AS INT)",
      "edges" -> edges)
    assert(edges.distinct().count() == g.m)
  }

  test("CSRGraph round-trips through its DataFrame view") {
    val g = GraphGen.rmat(100, 400, seed = 705)
    val pairs = g.edgeDF(spark).select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1)))
    val back = TestGens.fromEdges(g.n, pairs)
    assert(back.edgeList.toSeq == g.edgeList.toSeq)
  }
}
