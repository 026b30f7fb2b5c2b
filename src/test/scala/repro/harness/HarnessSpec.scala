package repro.harness

import repro.SparkSpec
import repro.graph.GraphGen
import repro.harness.Tables._
import repro.harness.Workload.{Knn, Road, ScaleFree}
import repro.prob.{Constant, UniformHash, WIC}

/** The table harnesses at tiny scale (the code paths `TablesJob` runs,
  * minutes cheaper), and every shape gate on the tiny rows and on
  * hand-made rows that break it.
  */
class HarnessSpec extends SparkSpec {

  // T1 is dense enough (≈4000 edges) for p = 0.02 to percolate, as on the
  // scale-free workloads. Table 4 runs at the paper's R = 256 and 256
  // simulations: at R = 16 and 32 the tiny rows' influence moves by more
  // than the quality gates' 3–5% margins.
  private val tinyWl = Seq(
    Workload("T1*", "tiny rmat", Workload.ScaleFree, () => GraphGen.rmat(256, 8000, seed = 801)),
    Workload("T2*", "tiny grid", Workload.Road, () => GraphGen.grid(30, 30)),
  )

  test("workload registry covers the paper's three graph classes") {
    assert(Workloads.all.size == 9)
    assert(Workloads.all.count(_.cls == Workload.ScaleFree) == 5)
    assert(Workloads.all.count(_.cls == Workload.Road) == 2)
    assert(Workloads.all.count(_.cls == Workload.Knn) == 2)
    assert(Workloads.appendix.forall(Workloads.all.contains))
  }

  test("probability assignments follow the paper's settings") {
    val sf = Workloads.all.find(_.cls == Workload.ScaleFree).get
    val rd = Workloads.all.find(_.cls == Workload.Road).get
    assert(sf.consistent == Constant(0.02) && rd.consistent == Constant(0.2))
    assert(sf.uniform == UniformHash(0.0, 0.1) && rd.uniform == UniformHash(0.1, 0.3))
    assert(sf.wic.isInstanceOf[WIC] && rd.wic.isInstanceOf[WIC])
  }

  test("table3 harness emits one coherent row per workload") {
    val rows = Tables.table3(spark, tinyWl, r = 16, k = 5, sims = 32)
    assert(rows.size == 2)
    rows.foreach(r => assert(r.n == r.wl.graph.n && r.m == r.wl.graph.m))
    val s = Tables.formatTable3(rows)
    assert(s.contains("T1*") && s.contains("T2*"))
    assert(Tables.table3Gates(rows, 5).isEmpty, Tables.table3Gates(rows, 5))
  }

  test("table4 harness runs all four systems and normalizes influence") {
    val rows = Tables.table4(spark, tinyWl, _.consistent, k = 5)
    rows.foreach { row =>
      assert(row.systems.map(_.system) == systems)
      assert(row.relativeInfluence.max == 1.0)
      assert(row.relativeInfluence.forall(x => x > 0 && x <= 1.0))
      assert(row.systems.forall(_.memBytes > 0))
      // Ours/InfuserMG share sketches and selection semantics here, so
      // their influence must be identical at tiny scale.
      def inf(name: String): Double = row.system(name).influence
      assert(inf(Systems.Ours1) == inf(Systems.InfuserMG), "Ours_1 vs InfuserMG influence")
      assert(inf(Systems.Ours1) == inf(Systems.Ours01), "Ours_1 vs Ours_0.1 influence (lossless compression)")
      assert(inf(Systems.Ours1) == inf(Systems.Ours01Lazy), "Ours_1 vs Ours_0.1 lazy influence")
      // Every selector keeps one tournament tree, 4(2L - 1) bytes, and n
      // stale scores: both alpha = 0.1 rows hold the same bytes, and
      // InfuserMG's CELF adds only its n round flags to Ours_1's.
      def mem(name: String): Long = row.system(name).memBytes
      assert(mem(Systems.Ours01Lazy) == mem(Systems.Ours01), "P-tree vs Win-Tree memory")
      assert(mem(Systems.InfuserMG) == mem(Systems.Ours1) + 4L * row.wl.graph.n, "CELF vs Win-Tree memory")
    }
    val s = Tables.formatTable4(rows)
    assert(s.contains("Ripples") && s.contains("geomean"))
    assert(Tables.table4Gates(rows).isEmpty, Tables.table4Gates(rows))
  }

  test("table4 harness under the appendix probability models") {
    Seq[(Workload => repro.prob.ProbModel, Seq[Table4Row] => Seq[String])](
      (_.uniform, Tables.table6Gates), (_.wic, Tables.table7Gates)).foreach { case (m, gates) =>
      val rows = Tables.table4(spark, tinyWl.take(1), m, k = 4)
      assert(rows.head.systems.map(_.system) == systems)
      assert(rows.head.relativeInfluence.forall(_ > 0))
      assert(gates(rows).isEmpty, gates(rows))
    }
  }

  test("table5 harness: P-tree within 2x CELF, identical sketches for all") {
    val rows = Tables.table5(tinyWl, r = 64, k = 6)
    rows.foreach(r => assert(r.wintree >= 0 && r.wintreeRefreshes == 0 && r.n == r.wl.graph.n))
    val s = Tables.formatTable5(rows)
    assert(s.contains("CELF") && s.contains("Win-Tree"))
    assert(Tables.table5Gates(rows).isEmpty, Tables.table5Gates(rows))
  }

  test("sweep harness: one row per alpha, identical seeds, about 10x fewer bytes at alpha=0.1") {
    val rows = Tables.sweep(tinyWl.head, r = 256, k = 5)
    assert(rows.map(_.alpha) == Tables.SweepAlphas)
    assert(rows.forall(r => r.seeds.size == 5 && r.visitsPerEval >= 0))
    assert(Tables.sweepGates(rows).isEmpty, Tables.sweepGates(rows))
    assert(Tables.formatSweep(rows).contains("visits/eval"))
  }

  // ------------------------------------------------- gates on hand-made rows

  private def wl(name: String, cls: Workload.Cls) = Workload(name, "hand-made", cls, () => sys.error("no graph"))
  private val systems = Seq("Ours_1", "Ours_0.1", "Ours_0.1 lazy", "InfuserMG", "Ripples")

  /** One Table-4 row that passes every gate unless an argument breaks one. */
  private def row4(name: String, cls: Workload.Cls = ScaleFree, inf: Seq[Double] = Seq(100, 100, 100, 100, 90),
                   timeMs: Seq[Long] = Seq(10, 20, 40, 90, 200), mem: Seq[Long] = Seq(1000, 200, 190, 1000, 5000)) =
    Seq(Table4Row(wl(name, cls), 100, systems.indices.map(i => SystemRow(systems(i), inf(i), timeMs(i), mem(i)))))

  /** Sweep rows that pass every gate unless an argument breaks one. */
  private def sweepRows(name: String, seeds: Double => Seq[Int] = _ => Seq(1, 2),
                        bytes: Double => Long = a => (100000 * a).toLong + 100) =
    SweepAlphas.map(a => SweepRow(wl(name, ScaleFree), a, seeds(a), 1, 1, bytes(a), 1.0))

  // The tiny rows above pass every gate but the timing one; these are the
  // unbroken rows that the cases below break one check at a time.
  test("every gate passes on hand-made rows that keep the paper's shapes") {
    for (gates <- Seq[Seq[Table4Row] => Seq[String]](table4Gates, table4TimeGates, table6Gates, table7Gates);
         cls <- Seq(ScaleFree, Road, Knn)) assert(gates(row4("X*", cls)).isEmpty)
    assert(sweepGates(sweepRows("S*")).isEmpty)
    // Edge cases that pass: a slow Ours_1 off scale-free graphs, 96% of the best under WIC.
    assert(table4TimeGates(row4("X*", Road, timeMs = Seq(90, 20, 40, 90, 200))).isEmpty)
    assert(table7Gates(row4("X*", inf = Seq(96, 96, 96, 96, 100))).isEmpty)
  }

  test("every gate names the workload of a hand-made row that breaks it") {
    val breaks: Seq[String => Seq[String]] = Seq(
      n => table3Gates(Seq(Table3Row(wl(n, Knn), 1000, 2000, 4)), 5), // influence below the k seeds
      n => table3Gates(Seq(Table3Row(wl(n, ScaleFree), 100, 200, 101)), 5), // above n
      n => table3Gates(Seq(Table3Row(wl(n, Road), 1000, 2000, 20)), 5), // road influence >= 0.02 n
      n => table4Gates(row4(n, inf = Seq(96, 96, 96, 96, 100))), // Ours_1 below 97% of the best
      n => table4Gates(row4(n, Road, inf = Seq(100, 99, 100, 100, 90))), // Ours_0.1 influence != Ours_1 influence
      n => table4Gates(row4(n, Road, inf = Seq(100, 100, 99, 100, 90))), // Ours_0.1 lazy influence != Ours_1's
      n => table4Gates(row4(n, Road, mem = Seq(1000, 1001, 900, 2000, 50))), // Ours_0.1 memory above Ours_1
      n => table4Gates(row4(n, Road, mem = Seq(1000, 999, 900, 998, 50))), // Ours_0.1 memory above InfuserMG
      n => table4Gates(row4(n, mem = Seq(1000, 200, 190, 1000, 199))), // Ours_0.1 memory above Ripples
      n => table4Gates(row4(n, Road, mem = Seq(1050, 200, 190, 1000, 50))), // Ours_1 memory >= 1.05 x InfuserMG
      n => table4TimeGates(row4(n, timeMs = Seq(90, 20, 40, 90, 200))), // Ours_1 not faster than InfuserMG
      n => table6Gates(row4(n, Knn, inf = Seq(96, 96, 96, 96, 100))), // Ours_1 below 97% of the best
      n => table6Gates(row4(n, Knn, mem = Seq(1000, 1001, 900, 2000, 50))), // Ours_0.1 memory above Ours_1
      n => table7Gates(row4(n, Knn, inf = Seq(94, 94, 94, 94, 100))), // Ours_1 below 95% of the best
      n => table7Gates(row4(n, Knn, mem = Seq(1000, 999, 900, 998, 50))), // Ours_0.1 memory above InfuserMG
      n => table5Gates(Seq(Table5Row(wl(n, Knn), 1000, 10, 21, 12))), // Thm 4.2: P-tree > 2 x CELF
      n => table5Gates(Seq(Table5Row(wl(n, Knn), 1000, 10, 9, 12))), // P-tree below CELF
      n => table5Gates(Seq(Table5Row(wl(n, ScaleFree), 1000, 250, 300, 260))), // scale-free CELF <= n/4
      n => table5Gates(Seq(Table5Row(wl(n, Road), 1000, 100, 120, 110))), // road CELF >= n/10
      n => table5Gates(Seq(Table5Row(wl(n, Knn), 1000, 10, 12, 12, 1))), // Win-Tree refreshed
      n => sweepGates(sweepRows(n, seeds = a => Seq(1, if (a < 0.5) 3 else 2))), // seeds change with alpha
      n => sweepGates(sweepRows(n, bytes = a => if (a == 0.2) 10 else 1000)), // bytes do not fall
      n => sweepGates(sweepRows(n, bytes = a => (1000 * a).toLong + 200)), // alpha=0.1 cuts bytes < 9x
    )
    breaks.zipWithIndex.foreach { case (break, i) =>
      val failures = break(s"W$i*")
      assert(failures.nonEmpty && failures.forall(_.startsWith(s"W$i*:")), s"case $i: $failures")
    }
  }
}
