package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.harness.{Tables, Workloads}

/** SparkSession bootstrap for the spark-submit entrypoint. */
object JobSession {
  def get(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .getOrCreate()
}

/** The paper's evaluation tables. Args: `3|4|5|6|7|sweep|all [R] [k] [sims]`.
  * Prints each table, then every shape gate that failed, and exits with
  * status 1 if any did. Tab. 3: graph information + influence of k PaC-IM
  * seeds; Tab. 4: time, memory and influence of all systems (Consistent p);
  * Tab. 5: #re-evaluations of CELF vs P-tree vs Win-Tree; Tab. 6/7: Tab. 4
  * under Uniform / WIC p; `sweep`: the α trade-off on EP* (Fig. 8). Only
  * Tables 3, 4, 6 and 7 (Spark-estimated influence) start a SparkSession.
  */
object TablesJob {
  def main(args: Array[String]): Unit = {
    val tabs = Seq("3", "4", "5", "6", "7", "sweep")
    val which = if (args.headOption.contains("all")) tabs else args.take(1).toSeq
    require(which.nonEmpty && which.forall(tabs.contains), s"usage: TablesJob ${tabs.mkString("|")}|all [R] [k] [sims]")
    def arg(i: Int, default: Int): Int = args.lift(i).fold(default)(_.toInt)
    val (r, k, sims) = (arg(1, Tables.DefaultR), arg(2, Tables.DefaultK), arg(3, Tables.DefaultSims))
    lazy val spark = JobSession.get("pacim-tables")

    val failures = which.flatMap { t =>
      val (title, table, failed) = t match {
        case "3" =>
          val rows = Tables.table3(spark, Workloads.all, r, k, sims)
          ("Table 3 (graph information)", Tables.formatTable3(rows), Tables.table3Gates(rows, k))
        case "4" =>
          val rows = Tables.table4(spark, Workloads.all, _.consistent, r, k, sims)
          ("Table 4 (main comparison)", Tables.formatTable4(rows),
            Tables.table4Gates(rows) ++ Tables.table4TimeGates(rows))
        case "5" =>
          val rows = Tables.table5(Workloads.all, r, k)
          ("Table 5 (#re-evaluations)", Tables.formatTable5(rows), Tables.table5Gates(rows))
        case "6" =>
          val rows = Tables.table4(spark, Workloads.appendix, _.uniform, r, k, sims)
          ("Table 6 (Uniform U(0,0.1)/U(0.1,0.3))", Tables.formatTable4(rows), Tables.table6Gates(rows))
        case "7" =>
          val rows = Tables.table4(spark, Workloads.appendix, _.wic, r, k, sims)
          ("Table 7 (WIC p=2/(du+dv))", Tables.formatTable4(rows), Tables.table7Gates(rows))
        case "sweep" =>
          val rows = Tables.sweep(Workloads.EP, r, k)
          ("Compression sweep (Fig. 8, EP analog)", Tables.formatSweep(rows), Tables.sweepGates(rows))
      }
      println(s"==== $title ====\n$table")
      failed
    }
    SparkSession.getDefaultSession.foreach(_.stop())
    failures.foreach(f => println(s"GATE FAILED: $f"))
    println(s"${failures.size} gate failure(s)")
    if (failures.nonEmpty) sys.exit(1)
  }
}
