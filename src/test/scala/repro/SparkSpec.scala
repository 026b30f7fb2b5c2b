package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. Few shuffle partitions keep the suites that still
  * run Catalyst (`DistCC`, `CSRGraph.edgeDF`) fast, and broadcast joins
  * are off so that `DistCC`'s joins take the shuffle path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def beforeAll(): Unit = {
    super.beforeAll()
    // sbt may run each suite on a pool thread created before the session
    // existed; the active-session thread-local is then unset there and
    // Datasets built on such a thread capture a null session (NPE at
    // collect). Pin the shared session to this suite's thread.
    SparkSession.setActiveSession(SparkSpec.shared)
    SparkSession.setDefaultSession(SparkSpec.shared)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output with the session's memory and parallelism.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
