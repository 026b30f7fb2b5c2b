package repro.graph

import scala.jdk.CollectionConverters._

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.{SparkSpec, TestGens}

class EngineSpec extends SparkSpec {

  // Units from 1 to 3 × parallelism, so that some jobs have fewer units
  // than the engine has threads or tasks. A Spark collection accumulator
  // (a synchronized list, so safe from the local engine's threads too)
  // records every call's range on both engines.
  test("ranges makes min(units, parallelism) calls covering [0, units) once, results in range order") {
    val g = TestGens.erdosRenyi(40, 60, seed = 5)
    Seq(Engine.Local, Engine.OnSpark(spark)).foreach { engine =>
      val p = engine.parallelism
      val calls = spark.sparkContext.collectionAccumulator[(Int, Int)]
      val prop = Prop.forAllNoShrink(Gen.choose(1, 3 * p), Gen.choose(0, 1000)) { (units, extra) =>
        calls.reset()
        val got = engine.ranges(g, extra, units) { (gg, x, lo, hi) =>
          calls.add((lo, hi))
          (lo, hi, x, gg.n, gg.arcs)
        }.toSeq
        val pieces = math.min(units, p)
        val where = s"$engine units=$units parallelism=$p: ${got.map(r => (r._1, r._2))}"
        val made = calls.value.asScala.toSeq.sorted
        (made.length == pieces && got.length == pieces) :| s"calls $made, $where" &&
          (made == got.map(r => (r._1, r._2))) :| s"calls $made, $where" &&
          (got.head._1 == 0 && got.last._2 == units) :| s"ends, $where" &&
          got.zip(got.tail).forall { case (a, b) => a._2 == b._1 } :| s"contiguous, $where" &&
          got.forall(r => r._1 < r._2) :| s"ascending, $where" &&
          got.forall(r => r._3 == extra && r._4 == g.n && r._5 == g.arcs) :| s"graph and extra, $where"
      }
      TestGens.check(prop, 30)
    }
  }
}
