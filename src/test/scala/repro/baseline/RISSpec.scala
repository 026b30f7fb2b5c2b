package repro.baseline

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens
import repro.core.{InfluenceEval, PaCIM}
import repro.graph.GraphGen
import repro.prob.{Constant, WIC}

class RISSpec extends AnyFunSuite {

  test("returns k distinct in-range seeds and coherent accounting") {
    val g = GraphGen.rmat(512, 3000, seed = 81)
    val res = RIS.run(g, Constant(0.05), k = 10, pilot = 256)
    assert(res.seeds.length == 10 && res.seeds.distinct.length == 10)
    assert(res.seeds.forall(v => v >= 0 && v < g.n))
    assert(res.theta > 0 && res.theta <= res.requiredTheta)
    assert(res.bytes > 0)
    assert(res.capped == (res.theta < res.requiredTheta))
  }

  test("modeled bytes: 8 per RR entry plus max coverage's 24n + 4(2L - 1) + theta") {
    // n = 5 rounds up to L = 8 leaves; one byte per set for `covered`.
    val sets = Array(Array(0, 1), Array(2), Array(1, 3, 4))
    assert(RIS.maxCover(5, sets, 2).bytes == 24L * 5 + 4L * (2 * 8 - 1) + 3)
    val g = GraphGen.rmat(512, 3000, seed = 81)
    val res = RIS.run(g, Constant(0.05), k = 10, pilot = 256)
    val rr = res.bytes - (24L * 512 + 4L * (2 * 512 - 1) + res.theta)
    // Every RR set holds its target, and no set holds more than n vertices.
    assert(rr % 8 == 0 && rr / 8 >= res.theta && rr / 8 <= res.theta * 512, s"RR bytes $rr")
  }

  test("on p=1 components RIS picks one seed per component, biggest first") {
    // Components of sizes 6, 3, 1 with p=1: every RR set from a component
    // is the whole component; greedy coverage picks them biggest-first.
    val edges = Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8))
    val g = TestGens.fromEdges(10, edges)
    val res = RIS.run(g, Constant(1.0), k = 3, pilot = 64)
    val comp = res.seeds.map(v => if (v <= 5) 0 else if (v <= 8) 1 else 2)
    assert(comp.toSet.size == 3, s"seeds=${res.seeds.mkString(",")}")
    assert(comp(0) == 0 && comp(1) == 1 && comp(2) == 2)
  }

  test("theta, the required theta and the seeds on fixed graphs keep their recorded values") {
    // The pilot's covered fraction sets OPT-hat and with it theta.
    val g = GraphGen.rmat(512, 3000, seed = 81)
    val res = RIS.run(g, Constant(0.05), k = 10, pilot = 256)
    assert(res.theta == 11167L && res.requiredTheta == 11167L && !res.capped)
    assert(res.seeds.toSeq == Seq(0, 128, 376, 480, 486, 27, 250, 425, 427, 54))
    val wic = GraphGen.rmat(1024, 8000, seed = 84)
    val w = RIS.run(wic, WIC.of(wic), k = 10)
    assert(w.theta == 35967L && w.requiredTheta == 35967L)
    assert(w.seeds.toSeq == Seq(128, 8, 0, 4, 1, 32, 16, 2, 576, 34))
  }

  test("max coverage rejects n above 2^29 before allocating") {
    // The n-long inverted index alone would take 2 GiB.
    val e = intercept[IllegalArgumentException](RIS.maxCover((1 << 29) + 1, Array.empty, 1))
    assert(e.getMessage.contains(s"n=${(1 << 29) + 1}"))
  }

  test("theta grows when epsilon shrinks") {
    val g = GraphGen.rmat(256, 1500, seed = 82)
    val loose = RIS.run(g, Constant(0.05), 5, eps = 0.5, pilot = 256)
    val tight = RIS.run(g, Constant(0.05), 5, eps = 0.25, pilot = 256)
    assert(tight.requiredTheta > loose.requiredTheta)
  }

  test("memory cap binds and is reported") {
    val g = GraphGen.rmat(512, 3000, seed = 83)
    val res = RIS.run(g, Constant(0.05), 5, maxStoredInts = 20000, maxSets = 2000, pilot = 128)
    assert(res.capped)
    assert(res.theta < res.requiredTheta)
  }

  test("RIS quality is comparable to PaC-IM (within 10% on influence)") {
    val g = GraphGen.rmat(1024, 8000, seed = 84)
    val model = Constant(0.05)
    val ris = RIS.run(g, model, 10, pilot = 512)
    val ours = PaCIM.run(g, model, 10, 64, 1.0)
    val iRis = InfluenceEval.estimate(g, ris.seeds, model, 1000)
    val iOurs = InfluenceEval.estimate(g, ours.seeds, model, 1000)
    assert(iRis >= 0.9 * iOurs, s"ris=$iRis ours=$iOurs")
    assert(iOurs >= 0.9 * iRis, s"ris=$iRis ours=$iOurs")
  }

  test("greedy max coverage on a crafted instance") {
    // Star with p=1: all RR sets are the whole graph; first seed covers
    // everything, remaining seeds are arbitrary but distinct.
    val g = TestGens.star(12)
    val res = RIS.run(g, Constant(1.0), 3, pilot = 64)
    assert(res.seeds.distinct.length == 3)
  }

  test("an empty graph returns no seeds, with theta = 0 and nothing capped") {
    val res = RIS.run(TestGens.fromEdges(0, Nil), Constant(0.5), k = 3)
    assert(res.seeds.isEmpty && res.theta == 0L && res.requiredTheta == 0L && !res.capped)
  }

  test("k = 0 returns no seeds, with theta = 0 and nothing capped") {
    val g = GraphGen.rmat(256, 1500, seed = 85)
    val res = RIS.run(g, Constant(0.05), k = 0)
    assert(res.seeds.isEmpty && res.theta == 0L && res.requiredTheta == 0L && !res.capped)
    assert(res.bytes == 0L)
  }

  test("negative k is rejected") {
    val g = GraphGen.rmat(256, 1500, seed = 86)
    intercept[IllegalArgumentException](RIS.run(g, Constant(0.05), k = -1))
    intercept[IllegalArgumentException](RIS.run(TestGens.fromEdges(0, Nil), Constant(0.05), k = -1))
  }

  /** Greedy max coverage written out: k times the vertex, not yet a seed,
    * in the most uncovered sets, the smaller id on ties.
    */
  private def bruteCover(n: Int, sets: Seq[Set[Int]], k: Int): Seq[Int] =
    (0 until math.min(k, n)).foldLeft(Vector.empty[Int]) { (seeds, _) =>
      val uncovered = sets.filterNot(set => seeds.exists(set.contains))
      seeds :+ (0 until n).filterNot(seeds.contains).maxBy(v => (uncovered.count(_.contains(v)), -v))
    }

  test("max coverage picks brute-force greedy's seeds on set systems with ties") {
    val cases = for {
      n <- Gen.choose(1, 25)
      sets <- Gen.listOf(Gen.choose(0, 4).flatMap(Gen.containerOfN[Set, Int](_, Gen.choose(0, n - 1))))
      k <- Gen.choose(0, n + 2)
    } yield (n, sets, k)
    val prop = Prop.forAllNoShrink(cases) { case (n, sets, k) =>
      val cover = RIS.maxCover(n, sets.map(_.toArray).toArray, k)
      val got = cover.seeds.toSeq
      val expect = bruteCover(n, sets, k)
      val covered = sets.count(set => expect.exists(set.contains))
      (got == expect && cover.covered == covered) :|
        s"n=$n k=$k sets=${sets.map(_.mkString("{", ",", "}")).mkString(",")}: got $got covering ${cover.covered}, expected $expect covering $covered"
    }
    TestGens.check(prop, 300)
  }
}
