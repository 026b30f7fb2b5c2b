package repro.sketch

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens.{check, graph, model}
import repro.TestRefs
import repro.connectivity.LocalCC
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler

/** The sketch invariants as properties over generated graphs and all three
  * probability models: marginals do not depend on α and equal the
  * brute-force gain of σ̂, before and after seeding (Sec. 3); the
  * parallel assembly, and the blocked union–find build as a whole, equal
  * a plain one-sketch-at-a-time BFS and assembly.
  */
class SketchPropertySpec extends AnyFunSuite {

  private val cases = for {
    n <- Gen.choose(1, 60)
    g <- graph(n)
    m <- model(g)
    r <- Gen.choose(1, 12)
    prefix <- Gen.choose(0, math.min(4, n))
    seeds <- Gen.pick(prefix, 0 until n)
  } yield (g, m, r, seeds.toList)

  test("marginal is alpha-invariant and equals the brute-force gain, before and after markSeed") {
    check(Prop.forAllNoShrink(cases) { case (g, m, r, seeds) =>
      val sampler = EdgeSampler.forSketches(m)
      val sks = Seq(0.0, 0.1, 1.0).map(a => SketchBuilder.build(g, m, r, a))
      val where = s"n=${g.n} edges=${g.edgeList.mkString(",")} ${m.label} R=$r seeds=$seeds"
      def agree(marked: Seq[Int]): Prop = {
        val base = TestRefs.sketchSigma(g, sampler, r, marked)
        Prop.all((0 until g.n).filterNot(marked.contains).map { v =>
          val gains = sks.map(_.marginal(v))
          val expect = TestRefs.sketchSigma(g, sampler, r, marked :+ v) - base
          gains.forall(_ == expect) :| s"v=$v marginals $gains, brute force $expect, marked $marked, $where"
        }: _*)
      }
      val before = agree(Nil)
      seeds.foreach(s => sks.foreach(_.markSeed(s)))
      before && agree(seeds)
    }, 100)
  }

  test("fromCCLabels equals the plain HashMap assembly") {
    val withAlpha = for {
      c <- cases
      alpha <- Gen.oneOf(0.0, 0.1, 0.5, 1.0)
    } yield (c._1, c._2, c._3, alpha)
    check(Prop.forAllNoShrink(withAlpha) { case (g, m, r, alpha) =>
      val sampler = EdgeSampler.forSketches(m)
      val centers = SketchBuilder.chooseCenters(g.n, alpha)
      val ccs = (0 until r).map(TestRefs.bfsCC(g, sampler, _))
      val sk = SketchBuilder.fromCCLabels(g, sampler, r, centers)(ccs(_))
      val (labels, sizes, init) = TestRefs.assembleRef(g.n, centers, ccs)
      val where = s"n=${g.n} edges=${g.edgeList.mkString(",")} ${m.label} R=$r alpha=$alpha"
      (sk.labels.map(_.toSeq).toSeq == labels) :| s"labels, $where" &&
        (sk.sizes.map(_.toSeq).toSeq == sizes) :| s"sizes, $where" &&
        (sk.initScores.toSeq == init) :| s"initScores, $where"
    }, 200)
  }

  // n from 0 and R up to 40: with Par.threads ranges of blocks of
  // ceil(R / threads) sketches, this covers a partial last block and fewer
  // blocks than threads.
  private val blockCases = for {
    n <- Gen.choose(0, 60)
    g <- graph(n)
    m <- model(g)
    alpha <- Gen.oneOf(0.0, 0.1, 0.5, 1.0)
    r <- Gen.choose(1, 40)
  } yield (g, m, alpha, r)

  private def describe(g: CSRGraph, m: ProbModel, r: Int): String =
    s"n=${g.n} edges=${g.edgeList.mkString(",")} ${m.label} R=$r"

  test("the blocked build equals per-sketch BFS labels plus the plain assembly") {
    check(Prop.forAllNoShrink(blockCases) { case (g, m, alpha, r) =>
      val sampler = EdgeSampler.forSketches(m)
      val centers = SketchBuilder.chooseCenters(g.n, alpha)
      val sk = SketchBuilder.build(g, m, r, alpha)
      val (labels, sizes, init) =
        TestRefs.assembleRef(g.n, centers, (0 until r).map(TestRefs.bfsCC(g, sampler, _)))
      val where = s"${describe(g, m, r)} alpha=$alpha"
      (sk.labels.map(_.toSeq).toSeq == labels) :| s"labels, $where" &&
        (sk.sizes.map(_.toSeq).toSeq == sizes) :| s"sizes, $where" &&
        (sk.initScores.toSeq == init) :| s"initScores, $where"
    }, 200)
  }

  test("byUnionFind and uniteBlock on any block equal BFS labels") {
    val withBlock = for {
      c <- blockCases
      b <- Gen.choose(1, 16)
      r0 <- Gen.choose(0, 40)
    } yield (c._1, c._2, c._4, b, r0)
    check(Prop.forAllNoShrink(withBlock) { case (g, m, r, b, r0) =>
      val sampler = EdgeSampler.forSketches(m)
      val where = describe(g, m, r)
      val single = Prop.all((0 until r).map { x =>
        (LocalCC.byUnionFind(g, sampler, x).toSeq == TestRefs.bfsCC(g, sampler, x).toSeq) :|
          s"byUnionFind r=$x, $where"
      }: _*)
      val par = new Array[Int](g.n * b)
      LocalCC.uniteBlock(g, sampler, r0, b, par)
      val out = new Array[Int](g.n)
      val block = Prop.all((0 until b).map { j =>
        LocalCC.labelOf(par, b, j, out)
        (out.toSeq == TestRefs.bfsCC(g, sampler, r0 + j).toSeq) :| s"block r0=$r0 b=$b j=$j, $where"
      }: _*)
      single && block
    }, 200)
  }
}
