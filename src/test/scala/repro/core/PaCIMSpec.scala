package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{TestGens, TestRefs}
import repro.baseline.InfuserMG
import repro.graph.GraphGen
import repro.prob.Constant
import repro.sample.EdgeSampler
import repro.select.{CelfSelector, PTreeSelector, WinTreeSelector}
import repro.sketch.SketchBuilder

class PaCIMSpec extends AnyFunSuite {

  test("run returns k distinct seeds with timing and space accounting") {
    val g = GraphGen.rmat(512, 3000, seed = 61)
    val res = PaCIM.run(g, Constant(0.05), k = 20, numSketches = 16, alpha = 0.5)
    assert(res.seeds.length == 20 && res.seeds.distinct.length == 20)
    assert(res.sketchTimeMs >= 0 && res.selectTimeMs >= 0)
    assert(res.csrBytes == g.csrBytes)
    assert(res.sketchBytes > 0 && res.structBytes > 0)
    assert(res.totalBytes == res.csrBytes + res.sketchBytes + res.structBytes)
  }

  test("alpha=1 and alpha=0.1 produce the same seeds (compression is lossless)") {
    TestGens.tiny.foreach { case (name, g, model) =>
      val a = PaCIM.run(g, model, 15, 16, alpha = 1.0)
      val b = PaCIM.run(g, model, 15, 16, alpha = 0.1)
      val c = PaCIM.run(g, model, 15, 16, alpha = 0.0)
      assert(a.seeds.toSeq == b.seeds.toSeq, name)
      assert(a.seeds.toSeq == c.seeds.toSeq, name)
    }
  }

  test("negative k is rejected by run and by every selector") {
    val g = GraphGen.rmat(256, 1500, seed = 63)
    intercept[IllegalArgumentException](PaCIM.run(g, Constant(0.05), k = -1, numSketches = 4))
    val sk = SketchBuilder.build(g, Constant(0.05), numSketches = 4, alpha = 0.5)
    Seq(new CelfSelector(), new PTreeSelector(), new WinTreeSelector()).foreach { s =>
      intercept[IllegalArgumentException](s.select(sk.copy(), -1))
    }
  }

  test("numSketches = 0 is rejected by run, build and fromCCLabels") {
    val g = GraphGen.rmat(256, 1500, seed = 64)
    intercept[IllegalArgumentException](PaCIM.run(g, Constant(0.05), k = 3, numSketches = 0))
    intercept[IllegalArgumentException](SketchBuilder.build(g, Constant(0.05), 0, alpha = 0.5))
    intercept[IllegalArgumentException] {
      SketchBuilder.fromCCLabels(g, EdgeSampler.forSketches(Constant(0.05)), 0,
        SketchBuilder.chooseCenters(g.n, 0.5))(_ => Array.tabulate(g.n)(identity))
    }
  }

  test("run on an empty graph returns no seeds") {
    val g = TestGens.fromEdges(0, Nil)
    Seq(new CelfSelector(), new PTreeSelector(), new WinTreeSelector()).foreach { s =>
      val res = PaCIM.run(g, Constant(0.05), k = 3, numSketches = 8, alpha = 0.5, selector = s)
      assert(res.seeds.isEmpty, s.getClass.getSimpleName)
    }
  }

  test("compressed run uses less sketch memory") {
    val g = GraphGen.rmat(2048, 10000, seed = 62)
    val a = PaCIM.run(g, Constant(0.05), 10, 32, alpha = 1.0)
    val b = PaCIM.run(g, Constant(0.05), 10, 32, alpha = 0.1)
    assert(b.sketchBytes < a.sketchBytes / 5)
  }

  test("P-tree and Win-Tree full runs agree") {
    val g = GraphGen.rmat(512, 3000, seed = 63)
    val a = PaCIM.run(g, Constant(0.05), 20, 16, 0.3, new PTreeSelector())
    val b = PaCIM.run(g, Constant(0.05), 20, 16, 0.3, new WinTreeSelector())
    assert(a.seeds.toSeq == b.seeds.toSeq)
  }

  test("greedy beats k random seeds on sigma-hat and on fresh simulations") {
    val g = GraphGen.rmat(1024, 8000, seed = 64)
    val model = Constant(0.05)
    val numSk = 32
    val res = PaCIM.run(g, model, 10, numSk, 1.0)
    val rng = new repro.util.Rand.Pcg(65)
    val random = Array.fill(10)(rng.nextInt(g.n)).distinct
    val sampler = EdgeSampler.forSketches(model)
    val sGreedy = TestRefs.sketchSigma(g, sampler, numSk, res.seeds.toSeq)
    val sRandom = TestRefs.sketchSigma(g, sampler, numSk, random.toSeq)
    assert(sGreedy >= sRandom, s"greedy=$sGreedy random=$sRandom")
    val iGreedy = InfluenceEval.estimate(g, res.seeds, model, 300)
    val iRandom = InfluenceEval.estimate(g, random, model, 300)
    assert(iGreedy >= iRandom, s"greedy=$iGreedy random=$iRandom")
  }

  test("bfsVisits accounting is populated for compressed runs") {
    val g = GraphGen.rmat(512, 4000, seed = 66)
    val res = PaCIM.run(g, Constant(0.08), 10, 16, alpha = 0.1)
    assert(res.bfsVisits > 0)
  }

  test("InfuserMG baseline (coloring + sequential CELF) selects PaC-IM's seeds") {
    TestGens.tiny.foreach { case (name, g, model) =>
      val ours = PaCIM.run(g, model, 12, 16, 1.0)
      val inf = InfuserMG.run(g, model, 12, 16)
      assert(inf.seeds.toSeq == ours.seeds.toSeq, name)
    }
  }

  test("StaticGreedy baseline (alpha=0 simulation) selects PaC-IM's seeds") {
    TestGens.tiny.foreach { case (name, g, model) =>
      val ours = PaCIM.run(g, model, 12, 16, 1.0)
      val st = PaCIM.run(g, model, 12, 16, alpha = 0.0, selector = new CelfSelector)
      assert(st.seeds.toSeq == ours.seeds.toSeq, name)
      assert(st.sketchBytes < ours.sketchBytes, "alpha=0 must store no per-center data")
    }
  }

  test("GeneralGreedy (MC oracle) agrees with sketch greedy where sigma is exact (p=1)") {
    // Two components with p=1: influence is deterministic, both methods
    // must pick one vertex per component, larger first.
    val edges = (0 until 7).map(i => (i, (i + 1) % 8)) ++ Seq((8, 9), (9, 10))
    val g = TestGens.fromEdges(11, edges)
    val mc = TestRefs.generalGreedy(g, Constant(1.0), 2, mcRounds = 8)
    val sk = PaCIM.run(g, Constant(1.0), 2, 8, 1.0)
    assert(mc.toSeq == sk.seeds.toSeq)
    assert(mc(0) < 8 && mc(1) >= 8)
  }

  test("GeneralGreedy and PaC-IM reach similar quality on a random graph") {
    val g = TestGens.erdosRenyi(80, 200, seed = 67)
    val model = Constant(0.2)
    val mc = TestRefs.generalGreedy(g, model, 5, mcRounds = 400)
    val sk = PaCIM.run(g, model, 5, numSketches = 400, alpha = 1.0)
    val iMc = InfluenceEval.estimate(g, mc, model, 2000)
    val iSk = InfluenceEval.estimate(g, sk.seeds, model, 2000)
    assert(iSk >= 0.93 * iMc, s"sketch=$iSk mc=$iMc")
  }
}
