package repro.sketch

import org.scalatest.funsuite.AnyFunSuite
import repro.{TestGens, TestRefs}
import repro.connectivity.LocalCC
import repro.core.PaCIM
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.{Constant, ProbModel, UniformHash}
import repro.sample.EdgeSampler
import repro.select.{CelfSelector, PTreeSelector, Selector, WinTreeSelector}

class SketchSetSpec extends AnyFunSuite {

  private val alphas = Seq(0.0, 0.1, 0.5, 1.0)

  /** InfuserMG's build: coloring CC, one sketch at a time. */
  private def coloringBuild(g: CSRGraph, model: ProbModel, numSketches: Int, alpha: Double): SketchSet = {
    val sampler = EdgeSampler.forSketches(model)
    SketchBuilder.fromCCLabels(g, sampler, numSketches, SketchBuilder.chooseCenters(g.n, alpha))(
      LocalCC.byColoring(g, sampler, _))
  }

  test("chooseCenters: bounds, determinism, uniqueness, sortedness") {
    val c = SketchBuilder.chooseCenters(1000, 0.1)
    assert(c.length == 100)
    assert(c.toSeq == c.sorted.toSeq)
    assert(c.distinct.length == c.length)
    assert(c.forall(v => v >= 0 && v < 1000))
    assert(SketchBuilder.chooseCenters(1000, 0.1).toSeq == c.toSeq)
    assert(SketchBuilder.chooseCenters(1000, 0.0).isEmpty)
    assert(SketchBuilder.chooseCenters(1000, 1.0).toSeq == (0 until 1000))
  }

  test("alpha=1 sketch stores every component size at its representative") {
    val g = TestGens.erdosRenyi(200, 300, seed = 31)
    val model = Constant(0.5)
    val sk = SketchBuilder.build(g, model, numSketches = 4, alpha = 1.0)
    val sampler = EdgeSampler.forSketches(model)
    (0 until 4).foreach { r =>
      val cc = TestRefs.bfsCC(g, sampler, r)
      val sizes = cc.groupBy(identity).view.mapValues(_.length).toMap
      (0 until g.n).foreach { v =>
        // With alpha=1 center index == vertex id; the label is the CC min.
        assert(sk.labels(r)(v) == cc(v), s"label of $v on sketch $r")
        if (cc(v) == v) assert(sk.sizes(r)(v) == sizes(v), s"size at rep $v sketch $r")
      }
    }
  }

  test("compression matches a reference: centers grouped by label, the smallest index represents") {
    val model = Constant(0.3)
    val sampler = EdgeSampler.forSketches(model)
    val numSk = 9
    for (g <- Seq(TestGens.erdosRenyi(300, 400, seed = 35), GraphGen.grid(12, 15)); a <- alphas) {
      val sk = SketchBuilder.build(g, model, numSk, a)
      val centers = SketchBuilder.chooseCenters(g.n, a)
      (0 until numSk).foreach { r =>
        val cc = TestRefs.bfsCC(g, sampler, r)
        val size = cc.groupBy(identity).view.mapValues(_.length).toMap
        val lab = new Array[Int](centers.length)
        val siz = new Array[Int](centers.length)
        centers.indices.groupBy(j => cc(centers(j))).foreach { case (l, js) =>
          js.foreach(lab(_) = js.min)
          siz(js.min) = size(l)
        }
        assert(sk.labels(r).toSeq == lab.toSeq, s"labels, alpha=$a sketch $r")
        assert(sk.sizes(r).toSeq == siz.toSeq, s"sizes, alpha=$a sketch $r")
      }
    }
  }

  test("the branch-free representative and owner mask hold for indices up to 2^31 - 2") {
    val idx = Seq(0, 1, 2, 3, (1 << 30) - 1, 1 << 30, (1 << 30) + 1, (1 << 30) + 2, Int.MaxValue - 2, Int.MaxValue - 1)
    for (j <- idx) {
      assert(SketchBuilder.Assembly.repAfter(-1, j) == j, s"no rep yet, j=$j")
      for (r <- idx) {
        assert(SketchBuilder.Assembly.repAfter(r, j) == r, s"r=$r j=$j")
        assert(SketchBuilder.Assembly.ownerMask(r, j) == (if (r == j) -1 else 0), s"nr=$r j=$j")
      }
    }
  }

  test("initScores equal the average component size") {
    val g = TestGens.erdosRenyi(150, 250, seed = 32)
    val model = Constant(0.4)
    val numSk = 8
    val sampler = EdgeSampler.forSketches(model)
    alphas.foreach { a =>
      val sk = SketchBuilder.build(g, model, numSk, a)
      (0 until g.n).foreach { v =>
        val expect = TestRefs.sketchSigma(g, sampler, numSk, Seq(v))
        assert(sk.scores(v) == expect, s"alpha=$a v=$v")
      }
    }
  }

  test("marginal on the empty seed set equals initScores for every alpha") {
    val g = GraphGen.rmat(256, 1200, seed = 33)
    val model = Constant(0.1)
    alphas.foreach { a =>
      val sk = SketchBuilder.build(g, model, 16, a)
      (0 until g.n by 7).foreach { v =>
        assert(sk.marginal(v) == sk.scores(v), s"alpha=$a v=$v")
      }
    }
  }

  test("marginal values are IDENTICAL across alphas after seeding (compression changes cost, not values)") {
    val g = GraphGen.rmat(256, 1200, seed = 34)
    val model = Constant(0.1)
    val sks = alphas.map(a => SketchBuilder.build(g, model, 16, a))
    val seedsToMark = Seq(3, 77, 145)
    seedsToMark.foreach(s => sks.foreach(_.markSeed(s)))
    (0 until g.n by 5).filterNot(seedsToMark.contains).foreach { v =>
      val vals = sks.map(_.marginal(v))
      assert(vals.forall(_ == vals.head), s"v=$v vals=$vals")
    }
  }

  test("marginal equals the brute-force marginal gain of sigma-hat") {
    val g = TestGens.erdosRenyi(120, 260, seed = 35)
    val model = Constant(0.3)
    val numSk = 8
    val sampler = EdgeSampler.forSketches(model)
    val sk = SketchBuilder.build(g, model, numSk, alpha = 0.2)
    val seeds = Seq(5, 40)
    seeds.foreach(sk.markSeed)
    val base = TestRefs.sketchSigma(g, sampler, numSk, seeds)
    (0 until g.n by 3).filterNot(seeds.contains).foreach { v =>
      val expect = TestRefs.sketchSigma(g, sampler, numSk, seeds :+ v) - base
      assert(sk.marginal(v) == expect, s"v=$v")
    }
  }

  test("marginal of a seed is zero") {
    val g = TestGens.erdosRenyi(100, 200, seed = 36)
    val sk = SketchBuilder.build(g, Constant(0.3), 8, 0.3)
    sk.markSeed(17)
    assert(sk.marginal(17) == 0L)
    // A refresh writes every score but the seeds'.
    java.util.Arrays.fill(sk.scores, -7L)
    sk.refresh()
    assert(sk.scores(17) == -7L && sk.scores.count(_ == -7L) == 1 && sk.refreshes == 1)
  }

  test("sequential and parallel marginal agree") {
    val g = GraphGen.rmat(512, 2500, seed = 37)
    val sk = SketchBuilder.build(g, Constant(0.05), 32, 0.1)
    sk.markSeed(9)
    (0 until g.n by 17).foreach { v =>
      assert(sk.marginal(v, parallel = false) == sk.marginal(v, parallel = true))
    }
  }

  test("copy isolates seed markings") {
    val g = TestGens.erdosRenyi(100, 300, seed = 38)
    val sk = SketchBuilder.build(g, Constant(0.4), 8, 1.0)
    val before = sk.marginal(50)
    val c = sk.copy()
    c.markSeed(50)
    assert(c.marginal(50) == 0L)
    assert(sk.marginal(50) == before, "original sketches must be untouched")
    // The scores are the copy's own too: a selector lowers the scores of
    // the set it runs on, and after selectOn the original's are the build's.
    val built = sk.scores.toSeq
    Seq(new CelfSelector(): Selector, new PTreeSelector(), new WinTreeSelector()).foreach { sel =>
      PaCIM.selectOn(sk, 10, sel)
      assert(sk.scores.toSeq == built, sel.name)
      val direct = sk.copy()
      sel.select(direct, 10)
      assert(direct.scores.toSeq != built, s"${sel.name} lowered no score")
      assert(sk.scores.toSeq == built, sel.name)
    }
  }

  test("UF-built and coloring-built sketches are identical") {
    val g = GraphGen.rmat(300, 1500, seed = 39)
    val model = UniformHash(0.0, 0.3)
    val a = SketchBuilder.build(g, model, 8, 0.2)
    val b = coloringBuild(g, model, 8, 0.2)
    (0 until 8).foreach { r =>
      assert(a.labels(r).toSeq == b.labels(r).toSeq)
      assert(a.sizes(r).toSeq == b.sizes(r).toSeq)
    }
    assert(a.scores.toSeq == b.scores.toSeq)
  }

  test("sketchBytes follows the O((1+alpha R)n) model") {
    val g = TestGens.erdosRenyi(1000, 3000, seed = 40)
    val r = 16
    val skFull = SketchBuilder.build(g, Constant(0.2), r, 1.0)
    val skComp = SketchBuilder.build(g, Constant(0.2), r, 0.1)
    assert(skFull.sketchBytes == 8L * r * 1000 + 4L * 1000)
    assert(skComp.sketchBytes == 8L * r * 100 + 4L * 1000)
  }

  test("Thm 3.1: expected BFS visits per evaluation bounded by ~min(1/alpha, T)") {
    val g = GraphGen.rmat(2048, 20000, seed = 41)
    val model = Constant(0.05)
    val numSk = 16
    val alpha = 0.1
    val sk = SketchBuilder.build(g, model, numSk, alpha)
    sk.visitCounter.reset()
    val evalVerts = (0 until g.n by 11).toArray
    evalVerts.foreach(v => sk.marginal(v))
    val visitsPerGetCenter = sk.visitCounter.sum().toDouble / (evalVerts.length.toLong * numSk)
    // Expected stopping time is 1/alpha = 10; allow generous slack for the
    // geometric tail and for small components.
    assert(visitsPerGetCenter < 3.0 / alpha, s"visits/GetCenter=$visitsPerGetCenter")
  }

  test("alpha=1 evaluations visit exactly one vertex per sketch") {
    val g = TestGens.erdosRenyi(500, 1500, seed = 42)
    val sk = SketchBuilder.build(g, Constant(0.2), 8, 1.0)
    sk.visitCounter.reset()
    sk.marginal(123)
    assert(sk.visitCounter.sum() == 8)
  }

  test("markSeed leaves visitCounter unchanged") {
    val g = GraphGen.rmat(512, 3000, seed = 43)
    val sk = SketchBuilder.build(g, Constant(0.1), 16, 0.1)
    sk.marginal(7)
    val before = sk.visitCounter.sum()
    assert(before > 0)
    Seq(7, 100, 301).foreach(sk.markSeed)
    assert(sk.visitCounter.sum() == before)
  }

  test("drawCounter counts GetCenter's arc draws: none at alpha=1 and none for markSeed") {
    // p = 1 on a 10-vertex path with no centers: a search draws each of the
    // 9 edges once, from whichever end it reaches first.
    val g = TestGens.path(10)
    val bare = SketchBuilder.build(g, Constant(1.0), 2, 0.0)
    Seq(0, 5, 9).foreach { v =>
      val before = bare.drawCounter.sum()
      assert(bare.marginal(v) == 20L)
      assert(bare.drawCounter.sum() - before == 18L, s"v=$v")
    }
    val before = bare.drawCounter.sum()
    bare.markSeed(3)
    assert(bare.drawCounter.sum() == before)
    val full = SketchBuilder.build(g, Constant(1.0), 2, 1.0)
    (0 until 10).foreach(v => full.marginal(v, parallel = v % 2 == 0))
    assert(full.drawCounter.sum() == 0L)
  }

  test("one marginal call adds exactly the GetCenter visits a plain BFS predicts") {
    val g = TestGens.erdosRenyi(80, 160, seed = 44)
    val model = Constant(0.5)
    val numSk = 6
    val sampler = EdgeSampler.forSketches(model)
    val sk = SketchBuilder.build(g, model, numSk, alpha = 0.1)
    val isCenter = sk.centers.toSet
    val seeds = Seq(11, 52)
    seeds.foreach(sk.markSeed)
    (0 until g.n).foreach { v =>
      val expect = (0 until numSk).map { r =>
        TestRefs.getCenterVisits(g, sampler, r, v, isCenter, seeds.contains)
      }.sum
      Seq(false, true).foreach { parallel =>
        val before = sk.visitCounter.sum()
        sk.marginal(v, parallel)
        assert(sk.visitCounter.sum() - before == expect, s"v=$v parallel=$parallel")
      }
    }
  }

  test("markSeed zeroes exactly the component's representative size") {
    val g = TestGens.path(10) // one CC when p=1
    val sk = SketchBuilder.build(g, Constant(1.0), 2, 1.0)
    assert(sk.sizes(0)(0) == 10)
    sk.markSeed(5)
    (0 until 2).foreach { r =>
      assert(sk.sizes(r)(0) == 0)
      (0 until 10).foreach(v => assert(sk.marginal(v) == 0L))
    }
  }

  test("blockSize: ceil(R / threads) capped at 16, at least 1") {
    val expected = Map(
      (1, 1) -> 1, (1, 4) -> 1, (1, 16) -> 1,
      (4, 1) -> 4, (4, 4) -> 1, (4, 16) -> 1,
      (5, 1) -> 5, (5, 4) -> 2, (5, 16) -> 1,
      (256, 1) -> 16, (256, 4) -> 16, (256, 16) -> 16)
    expected.foreach { case ((r, t), b) =>
      assert(SketchBuilder.blockSize(1000, r, t) == b, s"R=$r threads=$t")
    }
    assert(SketchBuilder.blockSize(0, 256, 4) == 16)
  }

  test("blockSize keeps n * B within Int.MaxValue for n near 2^31") {
    for (n <- Seq(1 << 27, (1 << 27) + 1, 1 << 30, Int.MaxValue); r <- Seq(1, 5, 256); t <- Seq(1, 4, 16)) {
      val b = SketchBuilder.blockSize(n, r, t)
      assert(b >= 1 && n.toLong * b <= Int.MaxValue, s"n=$n R=$r threads=$t B=$b")
    }
    assert(SketchBuilder.blockSize(1 << 27, 256, 4) == 15)
    assert(SketchBuilder.blockSize(1 << 30, 256, 4) == 1)
    assert(SketchBuilder.blockSize(Int.MaxValue, 256, 4) == 1)
  }

  test("an empty graph builds rho = 0 sketches with empty initScores") {
    val g = TestGens.fromEdges(0, Nil)
    alphas.foreach { a =>
      Seq("union-find" -> SketchBuilder.build _, "coloring" -> coloringBuild _).foreach { case (algo, build) =>
        val sk = build(g, Constant(0.5), 5, a)
        assert(sk.R == 5 && sk.rho == 0 && sk.scores.isEmpty, s"alpha=$a $algo")
        assert(sk.labels.forall(_.isEmpty) && sk.sizes.forall(_.isEmpty))
      }
    }
  }
}
