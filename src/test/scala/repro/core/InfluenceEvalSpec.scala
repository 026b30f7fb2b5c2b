package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens.{check, graph, model}
import repro.{TestGens, TestRefs}
import repro.graph.GraphGen
import repro.prob.Constant
import repro.sample.EdgeSampler
import repro.util.{Par, Scratch}

class InfluenceEvalSpec extends AnyFunSuite {

  test("p=1: sigma is the size of the union of seed components") {
    val g = TestGens.fromEdges(10,
      Seq((0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)))
    val model = Constant(1.0)
    assert(InfluenceEval.estimate(g, Array(0), model, 10) == 3.0)
    assert(InfluenceEval.estimate(g, Array(3), model, 10) == 2.0)
    assert(InfluenceEval.estimate(g, Array(0, 5), model, 10) == 7.0)
    assert(InfluenceEval.estimate(g, Array(9), model, 10) == 1.0)
  }

  test("p=0: sigma equals the number of seeds") {
    val g = TestGens.clique(20)
    assert(InfluenceEval.estimate(g, Array(1, 5, 9), Constant(0.0), 20) == 3.0)
  }

  test("single edge with probability p activates p of the time") {
    val g = TestGens.fromEdges(2, Seq((0, 1)))
    val est = InfluenceEval.estimate(g, Array(0), Constant(0.3), 20000)
    assert(math.abs(est - 1.3) < 0.02, s"est=$est")
  }

  test("two-hop path: sigma(1 + p + p^2)") {
    val g = TestGens.path(3)
    val p = 0.5
    val est = InfluenceEval.estimate(g, Array(0), Constant(p), 40000)
    assert(math.abs(est - (1 + p + p * p)) < 0.02, s"est=$est")
  }

  test("simulate is deterministic per sim id") {
    val g = GraphGen.rmat(256, 1500, seed = 71)
    val sampler = EdgeSampler.forEval(Constant(0.1))
    val seeds = Array(1, 2, 3)
    def simulate(sim: Int): Long =
      InfluenceEval.simulateBlock(g, seeds, sampler, sim, 1, Scratch.local(g.n))
    (0 until 20).foreach(sim => assert(simulate(sim) == simulate(sim)))
  }

  test("monotonicity: adding a seed never lowers sigma") {
    val g = GraphGen.rmat(512, 3000, seed = 72)
    val model = Constant(0.05)
    val s1 = InfluenceEval.estimate(g, Array(1, 2), model, 500)
    val s2 = InfluenceEval.estimate(g, Array(1, 2, 3), model, 500)
    assert(s2 >= s1)
  }

  test("sigma is bounded by n and at least |seeds|") {
    val g = GraphGen.grid(20, 20)
    val est = InfluenceEval.estimate(g, Array(0, 100, 399), Constant(0.2), 200)
    assert(est >= 3.0 && est <= g.n)
  }

  test("estimate rejects sims <= 0") {
    val g = TestGens.path(3)
    Seq(0, -1).foreach { sims =>
      intercept[IllegalArgumentException](InfluenceEval.estimate(g, Array(0), Constant(0.5), sims))
    }
  }

  test("blockSize: ceil(sims / threads) capped at 64, at least 1") {
    assert(InfluenceEval.blockSize(1, 4) == 1)
    assert(InfluenceEval.blockSize(63, 4) == 16)
    assert(InfluenceEval.blockSize(65, 4) == 17)
    assert(InfluenceEval.blockSize(256, 4) == 64)
    assert(InfluenceEval.blockSize(10000, 4) == 64)
    assert(InfluenceEval.blockSize(Int.MaxValue, 1) == 64)
  }

  // sims around one 64-bit block and past two; seed sets may repeat a
  // vertex or be empty.
  private val cases = for {
    n <- Gen.choose(0, 80)
    g <- graph(n)
    m <- model(g)
    sims <- Gen.oneOf(1, 63, 64, 65, 130)
    k <- Gen.choose(0, if (n == 0) 0 else 6)
    picks <- Gen.listOfN(k, Gen.choose(0, math.max(0, n - 1)))
    dup <- Gen.oneOf(true, false)
    b <- Gen.choose(1, 64)
  } yield (g, m, sims, if (dup) picks ++ picks.take(1) else picks, b)

  test("ringTail is (head + queued) mod n without overflow for n up to 2^31 - 2") {
    for (n <- Seq(1, 2, 7, (1 << 30) + 1, Int.MaxValue - 1)) {
      val picks = Seq(0, 1, n / 2, n - 2, n - 1).filter(x => x >= 0 && x < n).distinct
      for (head <- picks; queued <- picks)
        assert(InfluenceEval.ringTail(head, queued, n) == ((head.toLong + queued) % n).toInt,
          s"n=$n head=$head queued=$queued")
    }
  }

  test("the block kernel equals one plain BFS per simulation") {
    check(Prop.forAllNoShrink(cases) { case (g, m, sims, seeds, b) =>
      val sampler = EdgeSampler.forEval(m)
      val expect = (0 until sims).map(TestRefs.simulateRef(g, sampler, seeds, _).toLong).sum
      // One thread running every block of size b in turn on its one scratch.
      val s = Scratch.local(g.n)
      val sequential = (0 until sims by b).map { s0 =>
        InfluenceEval.simulateBlock(g, seeds.toArray, sampler, s0, math.min(b, sims - s0), s)
      }.sum
      val est = InfluenceEval.estimate(g, seeds.toArray, m, sims)
      val where = s"n=${g.n} edges=${g.edgeList.mkString(",")} ${m.label} sims=$sims seeds=$seeds"
      (est == expect.toDouble / sims) :| s"estimate $est * $sims != $expect, threads=${Par.threads}, $where" &&
        (sequential == expect) :| s"blocks of $b in turn: $sequential != $expect, $where"
    }, 200)
  }
}
